//! **E10 — the adversary-strategy sweep** (the boundary Theorem 3
//! defends, probed from the other side).
//!
//! Every placement strategy of the `tg-core::dynamic::adversary` engine
//! runs against every identity pipeline:
//!
//! * `none` — no PoW: the adversary's chosen values go straight in (the
//!   world §IV exists to prevent),
//! * `single-hash` — the warned-against `ID = σ` scheme: the puzzle
//!   rate-limits the adversary but leaves placement free,
//! * `f∘g` — the paper: placement is discarded by the two-hash
//!   composition (Lemma 11) and only the `≈ βn` count survives.
//!
//! Reported per epoch: the adversary's identity count and key-space
//! share, groups without a good majority (captured), the red fraction,
//! dual-search success, and the success of searches aimed at the
//! interval-targeting victim key. Expected shape: `gap-filling` and
//! `adaptive-majority-flipper` capture far more groups than `uniform`
//! whenever placement is free, `interval-targeting` owns its arc but
//! captures ≈ uniform (the group layer blunts censorship placement),
//! and under `f∘g` every strategy collapses back to the uniform row.
//!
//! A second table isolates §IV-B: the `precompute-hoarder` under fresh
//! vs frozen epoch strings — the hoard dies at verification when
//! strings refresh and compounds without bound when they do not.

use crate::args::Options;
use crate::exec::Exec;
use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::Rng;
use tg_core::routing::dual_search;
use tg_core::scenario::{Defense, ScenarioSpec, StrategySpec, StringMode};
use tg_core::{GraphsView, GroupGraphView, Params};
use tg_idspace::{Id, RingDistance};
use tg_pow::MintScheme;
use tg_sim::{stream_rng, Metrics};

/// The victim key the interval-targeting strategy concentrates on (all
/// strategies are probed with searches for keys in its arc).
const VICTIM: f64 = 0.40;
/// Width of the victim arc, as a ring fraction.
const VICTIM_WIDTH: f64 = 0.01;

/// The strategy axis of the sweep.
pub const STRATEGIES: [&str; 5] = [
    "uniform",
    "gap-filling",
    "interval-targeting",
    "adaptive-majority-flipper",
    "precompute-hoarder",
];

/// The identity-pipeline axis of the sweep, as [`Defense`] labels. The
/// PoW pipelines run at provider level with synthesized strings (the
/// E10 convention: the real string-agreement protocol is E11's subject).
pub const PIPELINES: [&str; 3] = ["none", "single-hash", "f∘g"];

/// The declarative strategy of one sweep cell. The hoarder grinds real
/// puzzles, so its spec carries the cell's oracle-family seed and an
/// attempt budget (≈ `n_bad/τ` exact hashes per epoch stays cheap).
fn cell_strategy(name: &str, fam_seed: u64, n_bad: usize) -> StrategySpec {
    match name {
        "uniform" => StrategySpec::Uniform,
        "gap-filling" => StrategySpec::GapFilling,
        "interval-targeting" => {
            StrategySpec::IntervalTargeting { victim: VICTIM, width: VICTIM_WIDTH }
        }
        "adaptive-majority-flipper" => StrategySpec::AdaptiveMajorityFlipper { margin: 2 },
        "precompute-hoarder" => {
            StrategySpec::PrecomputeHoarder { fam_seed, attempts: (n_bad as f64 / 0.02) as u64 }
        }
        other => panic!("unknown strategy {other}"),
    }
}

/// The shared per-cell scenario: paper parameters with the sweep's
/// churn/attack conventions over a dual-graph Chord system.
fn cell_spec(
    exec: &Exec,
    n_good: usize,
    n_bad: usize,
    searches: usize,
    cell_seed: u64,
) -> ScenarioSpec {
    let spec = ScenarioSpec::new(n_good, cell_seed)
        .params(sweep_params())
        .budget(n_bad)
        .strings(StringMode::Synthesized)
        .searches(searches);
    exec.install(spec)
}

/// Dual-search success for keys u.a.r. in the victim arc.
fn victim_success(graphs: GraphsView<'_>, probes: usize, rng: &mut StdRng) -> f64 {
    let mut metrics = Metrics::new();
    let start = Id::from_f64(VICTIM).sub(RingDistance::from_f64(VICTIM_WIDTH));
    let mut ok = 0usize;
    let (s0, s1) = (graphs.side(0), graphs.side(1));
    for _ in 0..probes {
        let from = rng.gen_range(0..s0.len());
        let key = start.add(RingDistance::from_f64(rng.gen::<f64>() * VICTIM_WIDTH));
        if dual_search([&s0, &s1], from, key, &mut metrics) {
            ok += 1;
        }
    }
    ok as f64 / probes.max(1) as f64
}

fn sweep_params() -> Params {
    let mut params = Params::paper_defaults();
    params.churn_rate = 0.1;
    params.attack_requests_per_id = 0;
    params
}

/// One (strategy, pipeline) cell: run `epochs` epochs, one row each.
/// Cells are driven entirely by labelled RNG streams derived from the
/// master seed, so they can run in parallel without losing determinism.
fn run_cell(
    opts: &Options,
    strategy: &str,
    pipeline: &str,
    n_good: usize,
    n_bad: usize,
    epochs: usize,
    searches: usize,
) -> Vec<Vec<String>> {
    let pipeline_idx = PIPELINES.iter().position(|&p| p == pipeline).unwrap() as u64;
    let cell_seed = tg_sim::derive_seed(opts.seed, strategy, pipeline_idx);
    let spec = cell_spec(&opts.exec, n_good, n_bad, searches, cell_seed)
        .strategy(cell_strategy(strategy, cell_seed ^ 0xE10, n_bad))
        .defense(Defense::parse(pipeline).expect("PIPELINES are defense labels"));
    let mut sys = opts.exec.driver(&spec);
    (0..epochs)
        .map(|e| {
            let r = sys.step();
            let mut vrng = stream_rng(cell_seed, "e10-victim", e as u64);
            let mut row = vec![
                strategy.to_string(),
                pipeline.to_string(),
                r.epoch.to_string(),
                r.bad_ids.to_string(),
                f(r.bad_share),
                r.captured_groups.to_string(),
                f(r.frac_red[0]),
                f(r.search_success_dual),
            ];
            row.push(f(victim_success(sys.graphs(), searches / 2, &mut vrng)));
            row
        })
        .collect()
}

/// Run E10 and return the result tables (strategy sweep + hoard axis).
pub fn run(opts: &Options) -> Vec<Table> {
    let n_good: usize = if opts.full { 4000 } else { 1200 };
    let beta = 0.06;
    let n_bad = (n_good as f64 * beta / (1.0 - beta)).round() as usize;
    let epochs = if opts.full { 8 } else { 4 };
    let searches = if opts.full { 600 } else { 300 };

    let mut sweep = Table::new(
        "e10_adversaries",
        &[
            "strategy",
            "pipeline",
            "epoch",
            "bad_ids",
            "bad_share",
            "captured_groups",
            "frac_red_s0",
            "success_dual",
            "victim_success",
        ],
    );
    let mut cells = Vec::new();
    for strategy in STRATEGIES {
        for pipeline in PIPELINES {
            cells.push((strategy, pipeline));
        }
    }
    let results = tg_sim::parallel_map(cells, |(strategy, pipeline)| {
        run_cell(opts, strategy, pipeline, n_good, n_bad, epochs, searches)
    });
    for rows in results {
        for row in rows {
            sweep.push(row);
        }
    }

    // --- §IV-B isolated: the hoard vs the fresh-string defense ---
    let mut hoard = Table::new(
        "e10_hoard",
        &[
            "fresh_strings",
            "epoch",
            "bad_ids",
            "beta_effective",
            "captured_groups",
            "frac_red_s0",
            "success_dual",
        ],
    );
    let hoard_rows = tg_sim::parallel_map(vec![true, false], |fresh| {
        let cell_seed = tg_sim::derive_seed(opts.seed, "e10-hoard", fresh as u64);
        let spec = cell_spec(&opts.exec, n_good, n_bad, searches, cell_seed)
            .strategy(cell_strategy("precompute-hoarder", cell_seed ^ 0xB0A, n_bad))
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: fresh });
        let mut sys = opts.exec.driver(&spec);
        (0..epochs)
            .map(|_| {
                let r = sys.step();
                let beta_eff = r.bad_ids as f64 / (n_good + r.bad_ids) as f64;
                vec![
                    fresh.to_string(),
                    r.epoch.to_string(),
                    r.bad_ids.to_string(),
                    f(beta_eff),
                    r.captured_groups.to_string(),
                    f(r.frac_red[0]),
                    f(r.search_success_dual),
                ]
            })
            .collect::<Vec<_>>()
    });
    for rows in hoard_rows {
        for row in rows {
            hoard.push(row);
        }
    }

    vec![sweep, hoard]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options { out_dir: "/tmp".into(), quiet: true, ..Options::default() }
    }

    /// One shared sweep for all assertions in this module (the
    /// determinism test pays for its own second run).
    fn shared_run() -> &'static Vec<Table> {
        static RUN: std::sync::OnceLock<Vec<Table>> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&opts()))
    }

    /// Cumulative captured groups per (strategy, pipeline) cell.
    fn captured_by_cell(sweep: &Table) -> std::collections::BTreeMap<(String, String), usize> {
        let mut out = std::collections::BTreeMap::new();
        for (i, row) in sweep.rows.iter().enumerate() {
            let captured: usize = sweep.cell(i, 5);
            *out.entry((row[0].clone(), row[1].clone())).or_insert(0) += captured;
        }
        out
    }

    /// The acceptance contrast: placement strategies beat uniform when
    /// placement is free; the paper's `f∘g` pipeline erases the edge.
    #[test]
    fn placement_attacks_work_without_pow_and_die_under_fog() {
        let tables = shared_run();
        let by_cell = captured_by_cell(&tables[0]);
        let get = |s: &str, p: &str| by_cell[&(s.to_string(), p.to_string())];

        for pipeline in ["none", "single-hash"] {
            let uniform = get("uniform", pipeline);
            assert!(
                get("gap-filling", pipeline) > uniform,
                "{pipeline}: gap-filling {} must capture strictly more than uniform {}",
                get("gap-filling", pipeline),
                uniform
            );
            assert!(
                get("adaptive-majority-flipper", pipeline) > uniform,
                "{pipeline}: flipper {} must capture strictly more than uniform {}",
                get("adaptive-majority-flipper", pipeline),
                uniform
            );
        }
        // Under f∘g every strategy sits within noise of uniform: the
        // capture counts are small binomial tails, so "noise" is a small
        // absolute band around the uniform row, not a tight ratio.
        let uniform_fog = get("uniform", "f∘g");
        for s in STRATEGIES {
            let c = get(s, "f∘g");
            assert!(
                c <= 3 * uniform_fog + 12,
                "f∘g must neutralize {s}: captured {c} vs uniform {uniform_fog}"
            );
        }
        // And the flipper's no-PoW edge is large, not marginal.
        assert!(get("adaptive-majority-flipper", "none") > 3 * get("uniform", "none") + 10);
    }

    /// §IV-B: the hoard compounds only when strings never refresh.
    #[test]
    fn hoard_axis_shows_fresh_string_defense() {
        let tables = shared_run();
        let hoard = &tables[1];
        let last_bad = |fresh: &str| -> usize {
            (0..hoard.rows.len())
                .filter(|&i| hoard.rows[i][0] == fresh)
                .map(|i| hoard.cell::<usize>(i, 2))
                .next_back()
                .expect("hoard table has rows for both fresh-string settings")
        };
        assert!(
            last_bad("false") > 2 * last_bad("true"),
            "frozen-string hoard {} vs fresh {}",
            last_bad("false"),
            last_bad("true")
        );
    }

    /// Same seed ⇒ byte-identical tables (the whole sweep is driven by
    /// labelled RNG streams; nothing depends on scheduling or iteration
    /// order).
    #[test]
    fn sweep_is_byte_identical_across_runs() {
        let a = shared_run();
        let b = run(&opts());
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(b.iter()) {
            assert_eq!(ta.render(), tb.render(), "table {} not deterministic", ta.name);
            assert_eq!(ta.to_csv(), tb.to_csv());
        }
    }
}
