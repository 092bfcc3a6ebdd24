//! **E12 — adaptive frontier refinement over the extended axes** (the
//! E11 boundary, located by bisection instead of swept, with churn and
//! topology as first-class dimensions).
//!
//! Two claims, one experiment:
//!
//! * **Efficiency** — per row, the capture threshold is *located*
//!   (bracket → bisect → confidence seeds at the bracket cells, see
//!   [`crate::refine`]) rather than swept. At matching resolution the
//!   refined map equals the uniform grid's map — cell streams are
//!   shared, decisions read the same base trials — while evaluating a
//!   fraction of the cells; the acceptance test below runs both engines
//!   on one grid at seed 42 and pins the ≥2× saving.
//! * **New axes** — the default grid sweeps `churn_rate` and
//!   [`GraphKind`] alongside β, with the [`ChurnTimed`] adversary in
//!   the strategy set: an adversary that times its budget to the epochs
//!   right after heavy good-ID departure only shows up as a threshold
//!   *shift along the churn axis*, which a (β × d₂)-only grid can
//!   never display. The PoW rows face the real `FullSystem` epoch-string
//!   protocol, exactly like E11's.
//!
//! Expected shape: under no PoW, the churn-timed frontier at heavy
//! churn sits at or below its light-churn frontier (the strike lands
//! when margins are thinnest, and at light churn the strategy idles at
//! its camouflage retainer); under `f∘g` the placement half of the
//! strike is discarded and the shift flattens toward the uniform noise
//! floor.
//!
//! [`ChurnTimed`]: tg_core::dynamic::ChurnTimed
//! [`GraphKind`]: tg_overlay::GraphKind

use crate::args::Options;
use crate::frontier::{Defense, FrontierConfig, LEGACY_CHURN};
use crate::refine::{run_refine, RefineConfig, RefineOutcome};
use tg_overlay::GraphKind;
use tg_pow::MintScheme;

/// The strategy axis of the small (per-PR) grid: the strongest
/// placement attacker plus the timing attacker this experiment adds.
pub const STRATEGIES: [&str; 2] = ["gap-filling", "churn-timed"];

/// The strategy axis of the `--full` (nightly) grid.
pub const STRATEGIES_FULL: [&str; 4] =
    ["uniform", "gap-filling", "adaptive-majority-flipper", "churn-timed"];

/// The defense axis: the undefended dynamic layer vs the paper's full
/// `f∘g` protocol (the ablation columns stay in E11; here the question
/// is how the frontier moves along the *new* axes).
pub const DEFENSES: [Defense; 2] =
    [Defense::NoPow, Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }];

/// Light-vs-heavy churn: below and above the churn-timed adversary's
/// strike trigger.
pub const CHURNS: [f64; 2] = [0.05, 0.2];

/// Topology families swept at small scale.
pub const KINDS: [GraphKind; 2] = [GraphKind::Chord, GraphKind::D2B];

/// The β ladder of the small grid — four times E11's resolution over
/// the same range, which is exactly the regime where bisection beats a
/// uniform sweep.
pub const LADDER: [f64; 12] = [0.02, 0.04, 0.06, 0.09, 0.12, 0.16, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45];

/// The grid for the given options.
pub fn config(opts: &Options) -> RefineConfig {
    let grid = if opts.full {
        FrontierConfig {
            n_good: 1200,
            betas: vec![
                0.02, 0.04, 0.06, 0.08, 0.1, 0.13, 0.16, 0.19, 0.22, 0.26, 0.3, 0.34, 0.38, 0.42,
                0.46, 0.5,
            ],
            d2s: vec![3.0, 4.0, 6.0],
            churns: vec![0.05, LEGACY_CHURN, 0.2],
            kinds: vec![GraphKind::Chord, GraphKind::D2B, GraphKind::DistanceHalving],
            strategies: STRATEGIES_FULL.to_vec(),
            defenses: DEFENSES.to_vec(),
            epochs: 4,
            trials: 3,
            searches: 300,
            seed: opts.seed,
            exec: opts.exec.clone(),
        }
    } else {
        FrontierConfig {
            n_good: 300,
            betas: LADDER.to_vec(),
            d2s: vec![4.0],
            churns: CHURNS.to_vec(),
            kinds: KINDS.to_vec(),
            strategies: STRATEGIES.to_vec(),
            defenses: DEFENSES.to_vec(),
            epochs: 2,
            trials: 1,
            searches: 60,
            seed: opts.seed,
            exec: opts.exec.clone(),
        }
    };
    RefineConfig { grid, z: 1.645, max_extra_rounds: 2 }
}

/// Run E12 and return the full outcome (evaluated cells, refined
/// frontier map with confidence bands, cost ledger).
pub fn run(opts: &Options) -> RefineOutcome {
    run_refine(&config(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::run_frontier;
    use crate::table::f;

    fn opts() -> Options {
        Options { out_dir: "/tmp".into(), quiet: true, ..Options::default() }
    }

    /// One shared sweep for the assertions in this module.
    fn shared_run() -> &'static RefineOutcome {
        static RUN: std::sync::OnceLock<RefineOutcome> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&opts()))
    }

    /// The grid both engines race on for the acceptance comparison:
    /// E11's legacy axes — its two adaptive strategies against all four
    /// defense columns — on a 16-rung geometric β ladder (the canonical
    /// spacing for a threshold whose location spans a decade and a
    /// half: uniform resolution in `log β`).
    fn comparison_grid() -> FrontierConfig {
        FrontierConfig {
            n_good: 300,
            betas: vec![
                0.01, 0.0129, 0.0166, 0.0214, 0.0276, 0.0356, 0.0459, 0.0592, 0.0763, 0.0983,
                0.1268, 0.1634, 0.2107, 0.2716, 0.3501, 0.45,
            ],
            d2s: vec![3.0, 6.0],
            churns: vec![LEGACY_CHURN],
            kinds: vec![GraphKind::Chord],
            strategies: vec!["gap-filling", "adaptive-majority-flipper"],
            defenses: crate::exp::e11_frontier::DEFENSES.to_vec(),
            epochs: 1,
            trials: 1,
            searches: 50,
            seed: 42,
            exec: Default::default(),
        }
    }

    /// **The acceptance property**: at seed 42 the refinement engine
    /// reproduces the uniform grid's frontier map — same first-capturing
    /// β *and* same measured capture there, row for row — while running
    /// at most half the cell-runs. The saving is logged.
    #[test]
    fn refinement_matches_uniform_frontier_with_half_the_cell_runs() {
        let grid = comparison_grid();
        let uniform = run_frontier(&grid);
        let refined =
            run_refine(&RefineConfig { grid: grid.clone(), z: 1.645, max_extra_rounds: 1 });

        assert_eq!(uniform.frontier.rows.len(), refined.frontier.rows.len());
        for (u, r) in uniform.frontier.rows.iter().zip(&refined.frontier.rows) {
            // axes (5 columns), frontier β, and the capture measured at
            // the frontier must agree byte-for-byte.
            assert_eq!(u[..7], r[..7], "frontier mismatch: uniform {u:?} vs refined {r:?}");
        }

        // Cells the uniform engine actually simulated (its overrun early
        // exit already skips the far side — the refinement must halve
        // what is left, per-cell trial budget held equal). The extra
        // confidence seeds are capability the uniform sweep does not
        // have at all; they are budgeted separately and still leave the
        // total trial spend strictly below the uniform engine's.
        let uniform_cells = uniform.cells.rows.iter().filter(|r| r[6] == "run").count();
        assert!(
            2 * refined.cell_runs <= uniform_cells,
            "refinement must halve the uniform sweep: {} vs {uniform_cells} cell-runs",
            refined.cell_runs,
        );
        assert!(
            refined.trial_runs < uniform_cells * grid.trials,
            "even with confidence seeds the refinement must spend fewer trials: {} vs {}",
            refined.trial_runs,
            uniform_cells * grid.trials
        );
        eprintln!(
            "[e12] refinement: {} cell-runs ({} trials incl. confidence seeds) vs uniform \
             {uniform_cells} cells — {:.0}% of the cell-runs saved",
            refined.cell_runs,
            refined.trial_runs,
            100.0 * (1.0 - refined.cell_runs as f64 / uniform_cells as f64)
        );
    }

    /// Structure of the default sweep: every row of the
    /// strategy × defense × d₂ × churn × topology product appears in
    /// the map, and the confidence columns are coherent (bands inside
    /// [0,1] straddling their rate; cost ledger consistent with the
    /// per-row counts).
    #[test]
    fn map_covers_all_rows_with_coherent_bands() {
        let out = shared_run();
        let cfg = config(&opts());
        assert_eq!(out.frontier.rows.len(), cfg.grid.rows().len());
        let mut cell_runs = 0usize;
        for row in &out.frontier.rows {
            cell_runs += row[12].parse::<usize>().expect("cell_runs column");
            if row[5] == "-" {
                continue;
            }
            let (rate, lo, hi) = (
                row[7].parse::<f64>().expect("capture_rate"),
                row[8].parse::<f64>().expect("ci_lo"),
                row[9].parse::<f64>().expect("ci_hi"),
            );
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
            assert!(lo <= rate && rate <= hi, "band [{lo},{hi}] must straddle rate {rate}");
        }
        assert_eq!(cell_runs, out.cell_runs, "ledger must match the per-row counts");
        assert!(
            out.cell_runs < cfg.grid.rows().len() * cfg.grid.betas.len(),
            "refinement must evaluate strictly fewer cells than the grid"
        );
    }

    /// The churn-axis story the new adversary exists for: under no PoW,
    /// the churn-timed frontier at heavy churn (strike armed) never
    /// sits above its light-churn frontier (camouflage retainer), on
    /// either topology — and on at least one topology the threshold
    /// strictly drops.
    #[test]
    fn churn_timed_frontier_drops_under_heavy_churn_without_pow() {
        let out = shared_run();
        let mut strict_drop = false;
        for kind in KINDS {
            let at = |churn: f64| {
                out.frontier_beta(&["churn-timed", "none", &f(4.0), &f(churn), kind.name()])
                    .unwrap_or(f64::INFINITY)
            };
            let (light, heavy) = (at(0.05), at(0.2));
            assert!(
                heavy <= light,
                "{}: heavy-churn frontier {heavy} above light-churn {light}",
                kind.name()
            );
            strict_drop |= heavy < light;
        }
        assert!(strict_drop, "the strike must strictly lower the threshold somewhere");
    }

    /// Same seed ⇒ byte-identical tables, regardless of scheduling, on
    /// a reduced grid that still crosses both engines' phases.
    #[test]
    fn refinement_is_byte_identical_across_runs() {
        let cfg = RefineConfig {
            grid: FrontierConfig {
                n_good: 260,
                betas: vec![0.06, 0.12, 0.25],
                d2s: vec![3.0],
                churns: vec![0.2],
                kinds: vec![GraphKind::Chord],
                strategies: vec!["churn-timed"],
                defenses: DEFENSES.to_vec(),
                epochs: 2,
                trials: 2,
                searches: 60,
                seed: 42,
                exec: Default::default(),
            },
            z: 1.645,
            max_extra_rounds: 1,
        };
        let (a, b) = (run_refine(&cfg), run_refine(&cfg));
        for (ta, tb) in a.tables().iter().zip(tb_iter(&b)) {
            assert_eq!(ta.to_csv(), tb.to_csv());
        }
        assert_eq!(a.cell_runs, b.cell_runs);
        assert_eq!(a.trial_runs, b.trial_runs);
    }

    fn tb_iter(o: &RefineOutcome) -> impl Iterator<Item = &crate::table::Table> {
        o.tables().into_iter()
    }
}
