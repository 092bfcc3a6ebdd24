//! Cross-crate integration: the static construction end to end
//! (idspace + crypto + overlay + core).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::ba::AdversaryMode;
use tiny_groups::core::routing::secure_route_verified;
use tiny_groups::core::{
    build_initial_graph, measure_robustness, search_path, GroupGraphView, Params, Population,
};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;
use tiny_groups::sim::Metrics;

/// Theorem 3's static shape holds over every implemented input graph:
/// at β = 5% with Θ(log log n) groups, ≥ 99% of groups are good and
/// ≥ 95% of searches succeed.
#[test]
fn theorem3_static_shape_all_topologies() {
    for kind in GraphKind::ALL {
        let mut rng = StdRng::seed_from_u64(0xAB);
        let pop = Population::uniform(1900, 100, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, kind, OracleFamily::new(1).h1, &params);
        let rep = measure_robustness(&gg, &params, 600, &mut rng);
        assert!(
            rep.frac_good_majority > 0.99,
            "{}: good-majority fraction {:.4}",
            kind.name(),
            rep.frac_good_majority
        );
        assert!(
            rep.search_success > 0.95,
            "{}: search success {:.4}",
            kind.name(),
            rep.search_success
        );
    }
}

/// The group-level search abstraction agrees with the message-level
/// simulation across seeds and adversary modes (soundness: group-level
/// success implies message-level delivery).
#[test]
fn group_level_abstraction_is_sound_everywhere() {
    let mut rng = StdRng::seed_from_u64(7);
    let pop = Population::uniform(950, 50, &mut rng);
    let params = Params::paper_defaults();
    let gg = build_initial_graph(pop, GraphKind::D2B, OracleFamily::new(2).h1, &params);
    let mut m = Metrics::new();
    for mode in [
        AdversaryMode::Silent,
        AdversaryMode::Equivocate { seed: 3 },
        AdversaryMode::Collude { value: 13 },
    ] {
        for _ in 0..60 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let out = secure_route_verified(&gg, from, key, 0xFEED, mode, &mut m);
            assert!(out.abstraction_sound, "mode {mode:?}");
        }
    }
}

/// Message accounting matches Corollary 1's model: per-search messages
/// scale with D·|G|², so tiny groups cost far less than log-n groups on
/// identical populations and topologies.
#[test]
fn corollary1_message_scaling() {
    let mut rng = StdRng::seed_from_u64(11);
    let pop = Population::uniform(3800, 200, &mut rng);
    let fam = OracleFamily::new(3);
    let tiny_params = Params::paper_defaults();
    let tiny = build_initial_graph(pop.clone(), GraphKind::Chord, fam.h1, &tiny_params);
    let classic_params = Params::paper_defaults().with_classic_groups(1.5);
    let classic = build_initial_graph(pop, GraphKind::Chord, fam.h1, &classic_params);

    let mut mt = Metrics::new();
    let mut mc = Metrics::new();
    for _ in 0..300 {
        let from = rng.gen_range(0..tiny.len());
        let key = Id(rng.gen());
        search_path(&tiny, from, key, &mut mt);
        search_path(&classic, from, key, &mut mc);
    }
    let ratio = mc.routing_msgs as f64 / mt.routing_msgs as f64;
    let size_ratio = classic.mean_group_size() / tiny.mean_group_size();
    // Message ratio ≈ (size ratio)² up to route-length noise.
    assert!(
        ratio > 0.5 * size_ratio * size_ratio,
        "msg ratio {ratio:.1} vs size ratio² {:.1}",
        size_ratio * size_ratio
    );
    assert!(ratio > 1.5, "classic must cost more: ×{ratio:.1}");
}

/// Determinism across the whole static stack: same seed, same numbers.
#[test]
fn static_stack_is_deterministic() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(99);
        let pop = Population::uniform(480, 20, &mut rng);
        let params = Params::paper_defaults();
        let gg =
            build_initial_graph(pop, GraphKind::DistanceHalving, OracleFamily::new(4).h1, &params);
        let rep = measure_robustness(&gg, &params, 200, &mut rng);
        (gg.frac_red(), rep.search_success, rep.mean_msgs)
    };
    assert_eq!(build(), build());
}
