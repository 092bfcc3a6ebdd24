//! **E9 — the pre-computation attack** (§IV-B).
//!
//! The adversary grinds puzzles for `h` epochs and releases everything
//! at once. Without fresh global strings the hoard is fully valid — the
//! adversary fields `h·βn` IDs instead of `βn`, breaking the β-budget
//! every other analysis step relies on. With per-epoch strings, stale
//! solutions fail verification and the attack collapses back to the
//! single-window budget.

use crate::args::Options;
use crate::table::{f, Table};
use tg_pow::attack::precomputation_attack;
use tg_pow::PuzzleParams;
use tg_sim::stream_rng;

/// Run E9 and return the result table.
pub fn run(opts: &Options) -> Table {
    let n: f64 = if opts.full { 16384.0 } else { 4096.0 };
    let beta = 0.05;
    let params = PuzzleParams::calibrated(16, 2048);
    let hoards = [1u64, 5, 10, 20];

    let mut table = Table::new(
        "e9_precompute",
        &[
            "hoard_epochs",
            "beta_n_budget",
            "accepted_fresh_strings",
            "accepted_stale_strings",
            "amplification",
        ],
    );
    for &h in &hoards {
        let mut rng = stream_rng(opts.seed, "e9", h);
        let out = precomputation_attack(&params, beta * n, h, &mut rng);
        table.push(vec![
            h.to_string(),
            f(beta * n),
            out.accepted_with_fresh_strings.to_string(),
            out.accepted_without_fresh_strings.to_string(),
            f(out.accepted_without_fresh_strings as f64
                / out.accepted_with_fresh_strings.max(1) as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_tracks_hoard_length() {
        let opts = Options { seed: 17, out_dir: "/tmp".into(), quiet: true, ..Options::default() };
        let t = run(&opts);
        for i in 0..t.rows.len() {
            let h: f64 = t.cell(i, 0);
            let amp: f64 = t.cell(i, 4);
            assert!(
                (amp - h).abs() < 0.35 * h,
                "hoarding {h} epochs must amplify ≈{h}×, got {amp:.2}×"
            );
        }
    }
}
