//! Cross-crate property tests: invariants that span subsystem
//! boundaries.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tiny_groups::ba::{majority_filter, phase_king, AdversaryMode};
use tiny_groups::core::{build_initial_graph, search_path, GroupGraphView, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::{Id, SortedRing};
use tiny_groups::overlay::GraphKind;
use tiny_groups::sim::Metrics;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every topology resolves every key to the ring successor, from any
    /// start, on arbitrary rings.
    #[test]
    fn routing_always_resolves_successor(
        ids in prop::collection::btree_set(any::<u64>(), 3..120),
        from_sel in any::<u16>(),
        key in any::<u64>(),
    ) {
        let ring = SortedRing::new(ids.into_iter().map(Id).collect());
        let from = from_sel as usize % ring.len();
        let key = Id(key);
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            let route = g.route(from, key);
            prop_assert_eq!(route.hops[0], from);
            prop_assert_eq!(ring.at(route.resolver()), ring.successor(key), "{}", kind.name());
            prop_assert!(route.len() <= g.route_len_bound());
        }
    }

    /// The oracle family is a function: equal inputs, equal outputs —
    /// and group building over it is a pure function of the population.
    #[test]
    fn group_build_is_pure(seed in any::<u64>(), n_good in 24usize..120, n_bad in 0usize..12) {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = Population::uniform(n_good, n_bad, &mut rng);
            build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(seed).h1, &Params::paper_defaults())
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.frac_red(), b.frac_red());
        for i in 0..a.len() {
            prop_assert_eq!(a.group_members(i), b.group_members(i));
        }
    }

    /// With zero Byzantine IDs, no search ever fails, whatever the seed,
    /// size, or topology.
    #[test]
    fn no_adversary_no_failures(
        seed in any::<u64>(),
        n in 16usize..200,
        kind_sel in 0..GraphKind::ALL.len(),
    ) {
        let kind = GraphKind::ALL[kind_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n, 0, &mut rng);
        let gg = build_initial_graph(pop, kind, OracleFamily::new(seed).h1, &Params::paper_defaults());
        let mut m = Metrics::new();
        use rand::Rng;
        for _ in 0..16 {
            let from = rng.gen_range(0..gg.len());
            let out = search_path(&gg, from, Id(rng.gen()), &mut m);
            prop_assert!(out.is_success());
        }
        prop_assert_eq!(m.failed_searches, 0);
    }

    /// Majority filtering with a good-majority sender set is immune to
    /// any combination of omissions and lies.
    #[test]
    fn majority_filter_immunity(
        truth in any::<u64>(),
        n_good in 3usize..20,
        lies in prop::collection::vec(prop::option::of(any::<u64>()), 0..10),
    ) {
        prop_assume!(lies.len() < n_good);
        let mut claims: Vec<Option<u64>> = vec![Some(truth); n_good];
        claims.extend(lies.iter().copied());
        let (winner, strict) = majority_filter(&claims);
        prop_assert_eq!(winner, Some(truth));
        prop_assert!(strict);
    }

    /// Phase King agreement and validity hold for random small groups
    /// with t < n/4 equivocating traitors.
    #[test]
    fn phase_king_agreement_random_groups(
        n in 5usize..14,
        seed in any::<u64>(),
        unanimous in any::<bool>(),
    ) {
        let t = (n - 1) / 4;
        let bad: Vec<bool> = (0..n).map(|i| i < t).collect();
        let inputs: Vec<u64> = (0..n as u64)
            .map(|i| if unanimous { 5 } else { i % 3 })
            .collect();
        let out = phase_king(&inputs, &bad, AdversaryMode::Equivocate { seed });
        let agreed = out.agreed_value();
        prop_assert!(agreed.is_some(), "agreement must hold (n={n}, t={t})");
        if unanimous {
            prop_assert_eq!(agreed, Some(5), "validity must hold");
        }
    }
}
