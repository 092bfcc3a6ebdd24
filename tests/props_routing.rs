//! Property tests for the routing invariants the robustness measurements
//! stand on, across arbitrary seeds, graph kinds, and red patterns.
//!
//! * §II-B search-path semantics: a search **fails iff** its group path
//!   meets a red group — and it fails *at the first* red group on the
//!   topology route, never before, never after.
//! * Dual-graph availability: per query, the dual search succeeds iff
//!   either side's search succeeds, so dual success is never below the
//!   better single side (pointwise, hence also in aggregate).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::core::routing::{dual_search, search_path, SearchOutcome};
use tiny_groups::core::{build_initial_graph, GroupGraph, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;
use tiny_groups::sim::Metrics;

/// A group graph with adversarial membership *and* an arbitrary extra
/// confusion pattern (every confusion bit set makes that group red
/// regardless of its members).
fn arbitrary_graph(
    kind: GraphKind,
    seed: u64,
    confusion_rate: f64,
    oracle_tag: usize,
) -> GroupGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_good = rng.gen_range(60..200);
    let n_bad = rng.gen_range(0..n_good / 3);
    let pop = Population::uniform(n_good, n_bad, &mut rng);
    let fam = OracleFamily::new(seed ^ 0x5EED);
    let oracle = if oracle_tag == 0 { fam.h1 } else { fam.h2 };
    let mut gg = build_initial_graph(pop, kind, oracle, &Params::paper_defaults());
    for i in 0..gg.len() {
        if rng.gen::<f64>() < confusion_rate {
            gg.mark_confused(i);
        }
    }
    gg.recolor();
    gg
}

/// Index of the first red group on the topology route, if any.
fn first_red_on_route(gg: &GroupGraph, from: usize, key: Id) -> Option<usize> {
    gg.topology.route(from, key).hops.iter().position(|&i| gg.is_red(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §II-B, both directions: success ⟺ an all-blue route, and a
    /// failure is located exactly at the first red group.
    #[test]
    fn search_fails_iff_path_meets_red_group(
        seed in any::<u64>(),
        confusion in 0.0f64..0.4,
        from_sel in any::<u16>(),
        key in any::<u64>(),
    ) {
        for kind in GraphKind::ALL {
            let gg = arbitrary_graph(kind, seed, confusion, 0);
            let from = from_sel as usize % gg.len();
            let mut m = Metrics::new();
            let out = search_path(&gg, from, Id(key), &mut m);
            match (out, first_red_on_route(&gg, from, Id(key))) {
                (SearchOutcome::Success { .. }, first_red) => {
                    prop_assert_eq!(first_red, None, "{}: success with a red group on the path", kind.name());
                }
                (SearchOutcome::Fail { failed_at, hops, .. }, first_red) => {
                    prop_assert_eq!(Some(failed_at), first_red, "{}: failure not at the first red group", kind.name());
                    prop_assert_eq!(hops, failed_at + 1, "{}: truncation length mismatch", kind.name());
                }
            }
        }
    }

    /// Dual-graph search success is never below the better single side —
    /// pointwise: dual succeeds exactly when either side does.
    #[test]
    fn dual_search_never_below_better_single_side(
        seed in any::<u64>(),
        confusion in 0.0f64..0.4,
        from_sel in any::<u16>(),
        key in any::<u64>(),
    ) {
        for kind in GraphKind::ALL {
            let a = arbitrary_graph(kind, seed, confusion, 0);
            let b = arbitrary_graph(kind, seed, confusion / 2.0, 1);
            prop_assert_eq!(a.len(), b.len(), "same population on both sides");
            let from = from_sel as usize % a.len();
            let mut m = Metrics::new();
            let sa = search_path(&a, from, Id(key), &mut m).is_success();
            let sb = search_path(&b, from, Id(key), &mut m).is_success();
            let dual = dual_search([&a, &b], from, Id(key), &mut m);
            prop_assert_eq!(dual, sa || sb, "{}: dual must be the OR of the sides", kind.name());
            prop_assert!(dual as u8 >= sa.max(sb) as u8, "{}: dual below a single side", kind.name());
        }
    }
}
