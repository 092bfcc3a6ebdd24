//! Property-based tests for the input-graph overlays: P1/P3 invariants
//! on adversarially-shaped rings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tg_idspace::{Id, SortedRing};
use tg_overlay::GraphKind;

fn ring_from(ids: std::collections::BTreeSet<u64>) -> SortedRing {
    SortedRing::new(ids.into_iter().map(Id).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// P1 on arbitrary rings: every topology resolves every key from
    /// every start, within its hop bound.
    #[test]
    fn resolution_on_arbitrary_rings(
        ids in prop::collection::btree_set(any::<u64>(), 2..150),
        start_sel in any::<u16>(),
        key in any::<u64>(),
    ) {
        let ring = ring_from(ids);
        let from = start_sel as usize % ring.len();
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            let r = g.route(from, Id(key));
            prop_assert_eq!(ring.at(r.resolver()), ring.successor(Id(key)), "{}", kind.name());
            prop_assert!(r.len() <= g.route_len_bound(), "{}: {} hops", kind.name(), r.len());
        }
    }

    /// P1 on clustered rings (every ID inside a tiny arc) — the shape an
    /// unconstrained Sybil adversary would produce.
    #[test]
    fn resolution_on_clustered_rings(
        seed in any::<u64>(),
        n in 4usize..100,
        width_exp in 8u32..48,
        key in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = 1u64 << (64 - width_exp);
        let base: u64 = rng.gen();
        let ids: std::collections::BTreeSet<u64> =
            (0..n).map(|_| base.wrapping_add(rng.gen::<u64>() % width)).collect();
        prop_assume!(ids.len() >= 2);
        let ring = ring_from(ids);
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            let r = g.route(0, Id(key));
            prop_assert_eq!(ring.at(r.resolver()), ring.successor(Id(key)), "{}", kind.name());
        }
    }

    /// P3 for the continuous-discrete constructions: D2B and distance
    /// halving link `w` to exactly the `u ≠ w` that are ring-adjacent to
    /// it or whose covering segment meets a halved or the doubled image
    /// of `w`'s — the segment rule, checked pair by pair.
    #[test]
    fn continuous_discrete_links_match_segment_rule(
        ids in prop::collection::btree_set(any::<u64>(), 3..60),
        w_sel in any::<u16>(),
    ) {
        let ring = ring_from(ids);
        let n = ring.len();
        let w = w_sel as usize % n;
        let seg_w = ring.segment_after(w);
        let rule: Vec<usize> = (0..n)
            .filter(|&u| u != w)
            .filter(|&u| {
                let seg_u = ring.segment_after(u);
                u == (w + n - 1) % n
                    || u == (w + 1) % n
                    || seg_u.intersects(&seg_w.half_left())
                    || seg_u.intersects(&seg_w.half_right())
                    || seg_u.intersects(&seg_w.double())
            })
            .collect();
        for kind in [GraphKind::D2B, GraphKind::DistanceHalving] {
            let g = kind.build(ring.clone());
            prop_assert_eq!(g.neighbor_indices(w), rule.clone(), "{}: w={}", kind.name(), w);
        }
    }

    /// Routes never visit IDs outside the ring and always start at the
    /// initiator: every hop is an index of the ring, and reading it back
    /// through `ring.at` lands on a ring ID.
    #[test]
    fn routes_stay_on_ring(
        ids in prop::collection::btree_set(any::<u64>(), 2..80),
        start_sel in any::<u16>(),
        key in any::<u64>(),
    ) {
        let ring = ring_from(ids);
        let from = start_sel as usize % ring.len();
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            let r = g.route(from, Id(key));
            prop_assert_eq!(r.hops[0], from);
            for &h in &r.hops {
                prop_assert!(h < ring.len(), "{}: off-ring hop", kind.name());
                prop_assert!(ring.contains(ring.at(h)), "{}: off-ring hop", kind.name());
            }
        }
    }
}

/// `route` sizes its hop buffer once, from `route_len_bound`: over many
/// random searches on one ring the buffer's capacity is a single
/// constant, whatever the route length. (Growing it hop by hop went
/// through `realloc` — and the allocator's lock — several times per
/// search, which serialized the arena kernel's worker threads.)
#[test]
fn route_hop_buffers_never_regrow() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let ids: std::collections::BTreeSet<u64> = (0..4096).map(|_| rng.gen()).collect();
    let ring = ring_from(ids);
    for kind in GraphKind::ALL {
        let g = kind.build(ring.clone());
        let mut capacities = std::collections::BTreeSet::new();
        let mut lengths = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let from = rng.gen::<usize>() % ring.len();
            let r = g.route(from, Id(rng.gen()));
            capacities.insert(r.hops.capacity());
            lengths.insert(r.len());
        }
        assert!(lengths.len() > 1, "{}: the sample must vary in route length", kind.name());
        assert_eq!(capacities.len(), 1, "{}: capacities {capacities:?}", kind.name());
    }
}
