//! **E5 — per-ID state under the join-request attack** (Lemma 10).
//!
//! The adversary tries to inflate good IDs' state by sending spurious
//! membership requests; a good ID accepts one only when *both* of its
//! verification searches fail (it then took the adversary's word). The
//! lemma: expected memberships stay `O(log log n)` per graph and
//! erroneous acceptances stay `O(1)` — sweep the attack intensity and
//! check the state stays flat.

use crate::args::Options;
use crate::table::{f, Table};
use tg_core::scenario::ScenarioSpec;
use tg_overlay::GraphKind;

/// Run E5 and return the result table.
pub fn run(opts: &Options) -> Table {
    let n_good: usize = if opts.full { 2000 } else { 600 };
    let beta = 0.05;
    let n_bad = (n_good as f64 * beta / (1.0 - beta)).round() as usize;
    let epochs = if opts.full { 4 } else { 3 };
    let attack_levels = [0usize, 4, 16];

    let mut table = Table::new(
        "e5_state",
        &[
            "attack_reqs_per_id",
            "epoch",
            "mean_memberships",
            "max_memberships",
            "spurious_issued",
            "spurious_accepted",
            "accept_rate",
        ],
    );

    for &attack in &attack_levels {
        let spec = ScenarioSpec::new(n_good, opts.seed)
            .budget(n_bad)
            .churn(0.2)
            .attack_requests(attack)
            .topology(GraphKind::D2B)
            .searches(200);
        let mut sys = opts.exec.driver(&opts.exec.install(spec));
        for _ in 0..epochs {
            let r = sys.step();
            let accept_rate = if r.build.spurious_issued > 0 {
                r.build.spurious_accepted as f64 / r.build.spurious_issued as f64
            } else {
                0.0
            };
            table.push(vec![
                attack.to_string(),
                r.epoch.to_string(),
                f(r.mean_memberships),
                r.max_memberships.to_string(),
                r.build.spurious_issued.to_string(),
                r.build.spurious_accepted.to_string(),
                f(accept_rate),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lemma 10's content: even a 16×-per-ID request barrage changes the
    /// accepted state by at most O(1) per ID, because acceptance needs a
    /// dual search failure.
    #[test]
    fn attack_barely_moves_state() {
        let opts = Options { seed: 7, out_dir: "/tmp".into(), quiet: true, ..Options::default() };
        let t = run(&opts);
        // Partition rows by attack level; compare mean memberships.
        let rows_for = |attack: &str| -> Vec<usize> {
            (0..t.rows.len()).filter(|&i| t.rows[i][0] == attack).collect()
        };
        let mean_for = |attack: &str| -> f64 {
            let rows = rows_for(attack);
            rows.iter().map(|&i| t.cell::<f64>(i, 2)).sum::<f64>() / rows.len() as f64
        };
        let none = mean_for("0");
        let heavy = mean_for("16");
        assert!(
            (heavy - none).abs() / none < 0.25,
            "state must stay flat under attack: {none:.1} vs {heavy:.1}"
        );
        // And acceptance of spurious requests is rare.
        for i in rows_for("16") {
            let rate: f64 = t.cell(i, 6);
            assert!(rate < 0.05, "spurious accept rate {rate}");
        }
    }
}
