//! Property-based tests for the input-graph overlays: P1/P3 invariants
//! on adversarially-shaped rings.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tg_idspace::{Id, RingDistance, SortedRing};
use tg_overlay::{Chord, GraphKind, InputGraph, D2B};

fn ring_from(ids: std::collections::BTreeSet<u64>) -> SortedRing {
    SortedRing::new(ids.into_iter().map(Id).collect())
}

/// A ring of `n` IDs drawn inside one arc of width `2^(64 - width_exp)`.
fn clustered_ring(seed: u64, n: usize, width_exp: u32) -> SortedRing {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = 1u64 << (64 - width_exp);
    let base: u64 = rng.gen();
    ring_from((0..n).map(|_| base.wrapping_add(rng.gen::<u64>() % width)).collect())
}

/// Chord's links by the full rule, all 64 finger levels: the ring
/// neighbours of `i` and `suc(w + 2^-l)` for every `l`, ascending,
/// deduplicated, without `i`.
fn chord_links_model(ring: &SortedRing, i: usize) -> Vec<usize> {
    let n = ring.len();
    if n == 1 {
        return Vec::new();
    }
    let w = ring.at(i);
    let mut out = vec![(i + n - 1) % n, (i + 1) % n];
    out.extend((1..=64).map(|l| ring.successor_index(w.add_pow2_fraction(l))));
    out.sort_unstable();
    out.dedup();
    out.retain(|&u| u != i);
    out
}

/// Chord's greedy step in IDs: the link of `current` (its row in `rows`)
/// farthest clockwise strictly inside the arc `(current, key)`.
fn closest_preceding_model(
    ring: &SortedRing,
    rows: &[Vec<usize>],
    current: usize,
    key: Id,
) -> Option<usize> {
    let here = ring.at(current);
    let mut best: Option<usize> = None;
    let mut best_dist = RingDistance::ZERO;
    for &j in &rows[current] {
        let u = ring.at(j);
        if u != key && u.in_arc_open_closed(here, key) {
            let d = here.distance_cw(u);
            if d > best_dist {
                best_dist = d;
                best = Some(j);
            }
        }
    }
    best
}

/// Chord's route over the link rows `rows` by the ID-space step, falling
/// back to the ring successor when no link precedes the key.
fn chord_route_model(ring: &SortedRing, rows: &[Vec<usize>], from: usize, key: Id) -> Vec<usize> {
    let target = ring.successor_index(key);
    let mut hops = vec![from];
    let mut current = from;
    while current != target {
        current =
            closest_preceding_model(ring, rows, current, key).unwrap_or((current + 1) % ring.len());
        hops.push(current);
        assert!(hops.len() <= ring.len(), "model route revisits a node");
    }
    hops
}

/// The keys where the node at ring index `i` changes the level its step
/// reads (`leading_zeros(key − w)`): each of its finger points
/// `w + 2^-l`, from level 1 to one past the level the finger scan stops
/// at, and the points one below and one above each.
fn finger_point_keys(ring: &SortedRing, i: usize) -> Vec<Id> {
    let w = ring.at(i);
    let gap = w.distance_cw(ring.at((i + 1) % ring.len()));
    let stop = (1..=64).find(|&l| w.distance_cw(w.add_pow2_fraction(l)) <= gap).unwrap_or(64);
    (1..=(stop + 1).min(64))
        .flat_map(|l| {
            let p = w.add_pow2_fraction(l).raw();
            [p.wrapping_sub(1), p, p.wrapping_add(1)]
        })
        .map(Id)
        .collect()
}

/// Chord on `ring` against both models: every node's link set against
/// the full finger scan, and the route from every start to each key
/// (and to every eighth ring ID, which is its own successor) against the
/// ID-space step, hop by hop; and from every node to the keys around
/// its own finger points, where its step's level changes.
fn check_chord_against_models(ring: &SortedRing, keys: &[u64]) -> Result<(), TestCaseError> {
    let g = Chord::new(ring.clone());
    let n = ring.len();
    let rows: Vec<Vec<usize>> = (0..n).map(|i| g.neighbor_indices(i)).collect();
    for i in 0..n {
        prop_assert_eq!(&rows[i], &chord_links_model(ring, i), "links of {}", i);
    }
    for i in 0..n {
        for key in finger_point_keys(ring, i) {
            let model = chord_route_model(ring, &rows, i, key);
            prop_assert_eq!(g.route(i, key).hops, model, "from {} to {:?}", i, key);
        }
    }
    let on_ring = (0..n).step_by(8).map(|i| ring.at(i));
    for key in keys.iter().map(|&k| Id(k)).chain(on_ring) {
        for from in 0..n {
            let model = chord_route_model(ring, &rows, from, key);
            prop_assert_eq!(g.route(from, key).hops, model, "from {} to {:?}", from, key);
        }
    }
    Ok(())
}

/// D2B's route by its definition, with every ring lookup a plain binary
/// search over `ring.ids()` and the correction a modular ring walk: the
/// `k`-bit injection walk from `from`'s ID, one hop per change of
/// covering node, then the shorter way round to `suc(key)`.
fn d2b_route_model(ring: &SortedRing, from: usize, key: Id) -> Vec<usize> {
    let ids = ring.ids();
    let n = ids.len();
    let mut hops = vec![from];
    if n == 1 {
        return hops;
    }
    let k = (usize::BITS - (n - 1).leading_zeros() + 3).min(60);
    let mut p = ids[from];
    let mut here = from;
    for j in (0..k).rev() {
        p = if key.bit(j) { p.half_right() } else { p.half_left() };
        here = match ids.partition_point(|&id| id <= p) {
            0 => n - 1,
            i => i - 1,
        };
        if hops[hops.len() - 1] != here {
            hops.push(here);
        }
    }
    let target = ids.partition_point(|&id| id < key) % n;
    let (fwd, back) = ((target + n - here) % n, (here + n - target) % n);
    if fwd <= back {
        hops.extend((1..=fwd).map(|s| (here + s) % n));
    } else {
        hops.extend((1..=back).map(|s| (here + n - s) % n));
    }
    hops
}

/// D2B on `ring` against its model, hop by hop, from every start to each
/// key and to every fourth ring ID and its two neighbouring points.
fn check_d2b_against_model(ring: &SortedRing, keys: &[u64]) -> Result<(), TestCaseError> {
    let g = D2B::new(ring.clone());
    let n = ring.len();
    let near_ring = (0..n).step_by(4).flat_map(|i| {
        let v = ring.at(i).raw();
        [v.wrapping_sub(1), v, v.wrapping_add(1)]
    });
    for key in keys.iter().copied().chain(near_ring).map(Id) {
        for from in 0..n {
            let model = d2b_route_model(ring, from, key);
            prop_assert_eq!(g.route(from, key).hops, model, "from {} to {:?}", from, key);
        }
    }
    Ok(())
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
        let ring = clustered_ring(seed, n, width_exp);
        prop_assume!(ring.len() >= 2);
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            let r = g.route(0, Id(key));
            prop_assert_eq!(ring.at(r.resolver()), ring.successor(Id(key)), "{}", kind.name());
        }
    }

    /// Chord's level-indexed step, derived rows and early-exit finger
    /// scan against the ID-space step and the full 64-level scan.
    #[test]
    fn chord_matches_its_id_space_model(
        ids in prop::collection::btree_set(any::<u64>(), 2..150),
        keys in prop::collection::vec(any::<u64>(), 4),
    ) {
        check_chord_against_models(&ring_from(ids), &keys)?;
    }

    /// The same on clustered rings, where the finger scan runs deep and
    /// the arcs to most keys wrap past index 0.
    #[test]
    fn chord_matches_its_id_space_model_when_clustered(
        seed in any::<u64>(),
        n in 2usize..150,
        width_exp in 8u32..56,
        keys in prop::collection::vec(any::<u64>(), 4),
    ) {
        let ring = clustered_ring(seed, n, width_exp);
        prop_assume!(ring.len() >= 2);
        check_chord_against_models(&ring, &keys)?;
    }

    /// D2B's bucket-probe lookups and split ring walk against binary
    /// searches and a modular walk.
    #[test]
    fn d2b_matches_its_binary_search_model(
        ids in prop::collection::btree_set(any::<u64>(), 2..150),
        keys in prop::collection::vec(any::<u64>(), 4),
    ) {
        check_d2b_against_model(&ring_from(ids), &keys)?;
    }

    /// The same on clustered rings, where the bit walk's points land in
    /// long directory buckets (the binary-search fallback) and the ring
    /// correction runs long.
    #[test]
    fn d2b_matches_its_binary_search_model_when_clustered(
        seed in any::<u64>(),
        n in 2usize..150,
        width_exp in 8u32..56,
        keys in prop::collection::vec(any::<u64>(), 4),
    ) {
        let ring = clustered_ring(seed, n, width_exp);
        prop_assume!(ring.len() >= 2);
        check_d2b_against_model(&ring, &keys)?;
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

/// `route` sizes its hop buffer once, for the longest route a u.a.r.
/// ring takes: over many random searches on one ring the buffer's
/// capacity is a single constant, whatever the route length. (Growing
/// it hop by hop went through `realloc` — and the allocator's lock —
/// several times per search, which serialized the arena kernel's worker
/// threads.)
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
