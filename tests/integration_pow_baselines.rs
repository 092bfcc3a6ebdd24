//! Cross-crate integration: PoW pipeline and baselines against the core
//! construction.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tiny_groups::baselines::{CuckooParams, CuckooSim, CuckooStrategy};
use tiny_groups::core::{build_initial_graph, GroupGraphView, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::overlay::GraphKind;
use tiny_groups::pow::{
    run_string_protocol, MintingSim, PuzzleParams, StringAdversary, StringParams,
};

/// The headline comparison the paper's abstract promises: under a
/// computationally-bounded adversary (PoW world), log-log-size groups
/// retain good majorities — while the cuckoo rule at the *same* group
/// size under classic join-leave churn does not survive.
#[test]
fn tiny_groups_with_pow_beat_cuckoo_at_same_group_size() {
    // Tiny groups, PoW-bounded adversary: one minting window, β = 5%.
    let sim = MintingSim {
        params: PuzzleParams::calibrated(16, 2048),
        n_good: 2000,
        adversary_units: 100.0,
        idealized_good: true,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let out = sim.run_window(&mut rng);
    let pop = Population::new(out.good_ids, out.bad_ids);
    let params = Params::paper_defaults();
    let gg = build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(1).h1, &params);
    let group_size = gg.mean_group_size().round() as usize;
    assert!(
        gg.frac_good_majority() > 0.995,
        "PoW world: {:.4} good majorities at |G| ≈ {group_size}",
        gg.frac_good_majority()
    );

    // Cuckoo rule at the same group size, same β, classic churn.
    let cparams = CuckooParams { n_good: 2000, n_bad: 105, group_size, k: 4 };
    let mut rng = StdRng::seed_from_u64(2);
    let mut cuckoo = CuckooSim::new(cparams, &mut rng);
    let result = cuckoo.run(50_000, CuckooStrategy::RandomRejoin, &mut rng);
    assert!(
        result.failed_at.is_some(),
        "cuckoo with |G| = {group_size} at β ≈ 5% must lose a region within 50k events"
    );
}

/// The string protocol runs on a *freshly built* group graph (not a
/// synthetic topology) and holds Lemma 12 under the worst release
/// timing, across seeds.
#[test]
fn string_protocol_on_built_graphs_across_seeds() {
    for seed in [3u64, 4, 5] {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(760, 40, &mut rng);
        let gg = build_initial_graph(
            pop,
            GraphKind::Chord,
            OracleFamily::new(seed).h1,
            &Params::paper_defaults(),
        );
        let adv = StringAdversary::DelayedRelease { strings: 6, release_frac: 0.49, units: 40.0 };
        let out = run_string_protocol(&gg, &StringParams::default(), adv, &mut rng);
        assert!(out.agreement, "seed {seed}: {} missing pairs", out.missing_pairs);
        assert!(out.giant_size > 700, "seed {seed}: giant {}", out.giant_size);
    }
}

/// Baseline sanity across the whole stack: the Θ(log n) construction
/// and the tiny construction order correctly on *both* axes — the
/// baseline has larger groups (more cost) and at least as many good
/// majorities (it buys ε = 1/poly(n), not 1/poly(log n)).
#[test]
fn cost_robustness_tradeoff_orders_correctly() {
    let mut rng = StdRng::seed_from_u64(6);
    let pop = Population::uniform(3800, 200, &mut rng);
    let fam = OracleFamily::new(6);
    let tiny =
        build_initial_graph(pop.clone(), GraphKind::Chord, fam.h1, &Params::paper_defaults());
    let classic = build_initial_graph(
        pop,
        GraphKind::Chord,
        fam.h1,
        &Params::paper_defaults().with_classic_groups(2.0),
    );
    assert!(classic.mean_group_size() > 1.3 * tiny.mean_group_size());
    assert!(classic.frac_good_majority() >= tiny.frac_good_majority());
    assert_eq!(classic.frac_good_majority(), 1.0);
}
