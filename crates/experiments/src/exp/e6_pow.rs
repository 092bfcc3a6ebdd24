//! **E6 — proof-of-work minting** (Lemma 11 and the two-hash argument).
//!
//! Four measurements:
//!
//! 1. the adversary's minted-ID count per window concentrates at `βn`
//!    (the `(1+ε)βn` bound),
//! 2. its ID values pass a uniformity test (`f∘g` output),
//! 3. the targeted-interval attack: devastating against the single-hash
//!    scheme, useless against the paper's two-hash composition,
//! 4. the honest-miner reality check: with one expected solution per
//!    window, a good participant misses with probability `≈ 1/e`
//!    (the concentration the paper assumes and we report honestly).

use crate::args::Options;
use crate::table::{f, Table};
use tg_crypto::OracleFamily;
use tg_idspace::{Id, RingInterval};
use tg_pow::attack::targeted_interval_attack;
use tg_pow::{MintingSim, PuzzleParams};
use tg_sim::stats::{chi_square_accepts_uniform, chi_square_uniform};
use tg_sim::stream_rng;

/// Run E6 and return the result tables (minting + attack).
pub fn run(opts: &Options) -> Vec<Table> {
    let n_good: usize = if opts.full { 50_000 } else { 10_000 };
    let betas = [0.05, 0.10, 0.25];
    let windows = if opts.full { 10 } else { 5 };

    // --- Lemma 11: counts and uniformity ---
    let mut minting = Table::new(
        "e6_pow_minting",
        &[
            "beta",
            "mode",
            "window",
            "adversary_ids",
            "beta_n",
            "ratio",
            "chi2_uniform",
            "good_misses",
            "miss_rate",
        ],
    );
    for &beta in &betas {
        for (mode, idealized) in [("idealized", true), ("realistic", false)] {
            let sim = MintingSim {
                params: PuzzleParams::calibrated(16, 4096),
                n_good,
                adversary_units: beta * n_good as f64,
                idealized_good: idealized,
            };
            let mut rng =
                stream_rng(opts.seed, "e6-mint", (beta * 100.0) as u64 ^ idealized as u64);
            for w in 0..windows {
                let out = sim.run_window(&mut rng);
                let values: Vec<f64> = out.bad_ids.iter().map(|id| id.as_f64()).collect();
                let uniform = if values.len() >= 64 {
                    let (stat, dof) = chi_square_uniform(&values, 32);
                    chi_square_accepts_uniform(stat, dof)
                } else {
                    true
                };
                let beta_n = beta * n_good as f64;
                minting.push(vec![
                    f(beta),
                    mode.to_string(),
                    w.to_string(),
                    out.bad_ids.len().to_string(),
                    f(beta_n),
                    f(out.bad_ids.len() as f64 / beta_n),
                    uniform.to_string(),
                    out.good_misses.to_string(),
                    f(out.good_misses as f64 / n_good as f64),
                ]);
            }
        }
    }

    // --- The two-hash vs single-hash attack ---
    let mut attack = Table::new(
        "e6_pow_attack",
        &["scheme", "target_width", "ids_minted", "frac_in_target", "bias_factor"],
    );
    let fam = OracleFamily::new(opts.seed);
    let params = PuzzleParams { tau: Id::from_f64(0.02), attempts_per_step: 1, t_epoch: 2 };
    let width = 0.01;
    let target = RingInterval::between(Id::from_f64(0.40), Id::from_f64(0.40 + width));
    let attempts = if opts.full { 200_000 } else { 50_000 };
    let mut rng = stream_rng(opts.seed, "e6-attack", 0);
    let out = targeted_interval_attack(&fam, &params, target, attempts, &mut rng);
    attack.push(vec![
        "single-hash".into(),
        f(width),
        out.single_hash_count.to_string(),
        f(out.single_hash_in_target),
        f(out.single_hash_in_target / width),
    ]);
    attack.push(vec![
        "two-hash (paper)".into(),
        f(width),
        out.two_hash_count.to_string(),
        f(out.two_hash_in_target),
        f(out.two_hash_in_target / width),
    ]);

    vec![minting, attack]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minting_rows_have_ratio_near_one_and_attack_contrast() {
        let opts = Options { out_dir: "/tmp".into(), quiet: true, ..Options::default() };
        let tables = run(&opts);
        let minting = &tables[0];
        // The experiment is a pure function of the seed (labelled RNG
        // streams, no scheduling dependence), so the chi-square outcome
        // per window is deterministic: at this pinned seed every one of
        // the 30 windows accepts uniformity. No statistical tolerance —
        // any refactor that shifts the stream or the statistic fails
        // this exactly.
        for (i, row) in minting.rows.iter().enumerate() {
            let ratio: f64 = minting.cell(i, 5);
            assert!((0.7..1.3).contains(&ratio), "adversary count ratio {ratio}");
            assert_eq!(row[6], "true", "uniformity must hold at seed 42: row {row:?}");
        }
        // Realistic rows show the 1/e miss rate; idealized rows zero.
        for (i, row) in minting.rows.iter().enumerate() {
            let miss: f64 = minting.cell(i, 8);
            if row[1] == "idealized" {
                assert_eq!(miss, 0.0);
            } else {
                assert!((0.3..0.45).contains(&miss), "miss rate {miss}");
            }
        }
        let attack = &tables[1];
        let single_bias: f64 = attack.cell(0, 4);
        let two_bias: f64 = attack.cell(1, 4);
        assert!(single_bias > 50.0, "single-hash bias factor {single_bias}");
        assert!(two_bias < 3.0, "two-hash bias factor {two_bias}");
    }
}
