//! Chord \[48\]: logarithmic-degree ring with finger shortcuts.
//!
//! Node `w` links to its ring predecessor and successor and to the
//! *fingers* `suc(w + Δ(i))` where `Δ(i) = 2^{-i}` for `i = 1..⌈log2 n⌉`
//! (the paper's footnote 11 describes exactly this rule and how any ID can
//! verify a claimed link by searching for `w + Δ(i)`).
//!
//! Routing is greedy: forward to the neighbor that makes the most
//! clockwise progress without overshooting the key. Route length is
//! `O(log n)` w.h.p., and congestion is `O(log n / n)` (P4 with `c = 1`).
//!
//! **What a hop costs.** Both the links and the routes live in ring-index
//! space, where index order is ID order. The links are one flat table of
//! finger successors by level, and the greedy step reads it at the level
//! the key's distance names: finger point `l` lies at or before a key `d`
//! clockwise of the current node exactly from `l = leading_zeros(d) + 1`
//! on, so the hop is the first finger from that level on that is not the
//! key's successor. A hop is one ID load, two offsets and (almost always)
//! one finger, with no search. The finger scan behind the table stops at
//! the first finger point at or before the node's ring successor, so a
//! node costs `≈ log2 n + O(1)` ring lookups to link.

use crate::graph::InputGraph;
use std::iter::once;
use tg_idspace::{Id, SortedRing};

/// The Chord overlay over a fixed ring.
///
/// Finger tables span all 64 bit-scales of the ID space (as in deployed
/// Chord, where `m` is the hash width): offsets at or below the gap to a
/// node's successor all resolve to that successor, so the scan stops at
/// the first of them and the *distinct* degree is `O(log n)` w.h.p. while
/// greedy routing stays robust even on non-uniform rings.
///
/// The link table is flat and by level: entry `l − 1` of node `i`'s row
/// `fingers[foffs[i]..foffs[i + 1]]` is `suc(w + 2^-l)`, for each level
/// before the scan's stop, repeats (and `i` itself, a finger that wraps
/// the whole ring) kept. The step is exact: fingers below the key's level
/// point past the key and resolve at or past its successor `t`; those
/// from it on resolve inside `(w, t]`, no farther as the level grows; the
/// predecessor never lies strictly before the key. So the first of them
/// that is not `t` is the link farthest clockwise before the key, and
/// failing one it is the ring successor. The ascending neighbor row is
/// derived from the same table on demand.
#[derive(Clone, Debug)]
pub struct Chord {
    ring: SortedRing,
    /// Row starts into `fingers`, `n + 1` of them.
    foffs: Vec<u32>,
    /// Every node's finger successors by level, row after row.
    fingers: Vec<u32>,
}

impl Chord {
    /// Number of finger levels (bit-width of the ID space).
    const LEVELS: u32 = 64;

    /// The hop buffer a route starts with: room for any `O(log n)` route
    /// on a u.a.r. ring, far below [`InputGraph::route_len_bound`].
    const HOPS_CAPACITY: usize = 32;

    /// Build Chord over `ring`, precomputing the finger tables.
    ///
    /// # Panics
    /// Panics if the ring is empty, or if its finger table outgrows `u32`
    /// offsets.
    pub fn new(ring: SortedRing) -> Self {
        assert!(!ring.is_empty(), "Chord over an empty ring");
        let n = ring.len();
        let mut foffs = Vec::with_capacity(n + 1);
        let mut fingers = Vec::new();
        foffs.push(0);
        for i in 0..n {
            if n > 1 {
                Self::fingers(&ring, i, &mut fingers);
            }
            assert!(
                fingers.len() < u32::MAX as usize,
                "chord table of {} fingers exceeds its u32 offsets",
                fingers.len()
            );
            foffs.push(fingers.len() as u32);
        }
        Chord { ring, foffs, fingers }
    }

    /// Append `suc(w + 2^{-l})` for `l = 1, 2, …` to `out`, where `w` is
    /// the ID at ring index `i` (`n ≥ 2`), up to the first finger point
    /// at or before `w`'s ring successor: that finger and every later one
    /// resolve to the successor, which is linked anyway.
    fn fingers(ring: &SortedRing, i: usize, out: &mut Vec<u32>) {
        let w = ring.at(i);
        let gap = w.distance_cw(ring.at(if i + 1 == ring.len() { 0 } else { i + 1 }));
        for level in 1..=Self::LEVELS {
            let p = w.add_pow2_fraction(level);
            if w.distance_cw(p) <= gap {
                break;
            }
            out.push(ring.successor_index(p) as u32);
        }
    }

    /// The fingers of the node at ring index `i`, by level.
    #[inline]
    fn fingers_of(&self, i: usize) -> &[u32] {
        &self.fingers[self.foffs[i] as usize..self.foffs[i + 1] as usize]
    }

    /// Greedy step from `current` toward `key`, whose successor `target`
    /// is not `current`: the first finger from level
    /// `leading_zeros(key − w) + 1` on that is not `target`, else the
    /// ring successor (`target` itself when no link precedes the key).
    #[inline]
    fn step(&self, current: usize, key: Id, target: usize) -> usize {
        let first = self.ring.at(current).distance_cw(key).0.leading_zeros() as usize;
        let ahead = self.fingers_of(current).get(first..).unwrap_or_default();
        match ahead.iter().find(|&&j| j as usize != target) {
            Some(&j) => j as usize,
            None if current + 1 == self.ring.len() => 0,
            None => current + 1,
        }
    }
}

impl InputGraph for Chord {
    fn ring(&self) -> &SortedRing {
        &self.ring
    }

    fn neighbor_indices(&self, i: usize) -> Vec<usize> {
        // Clockwise from `i`: the successor, the fingers nearest first,
        // the predecessor. Without `i` the walk never turns back, so
        // repeats are adjacent and a rotation at index 0 sorts it.
        let (n, fingers) = (self.ring.len(), self.fingers_of(i));
        let mut row: Vec<usize> = Vec::with_capacity(fingers.len() + 2);
        let nearest_first = fingers.iter().rev().map(|&j| j as usize);
        for j in once((i + 1) % n).chain(nearest_first).chain(once((i + n - 1) % n)) {
            if j != i && row.last() != Some(&j) {
                row.push(j);
            }
        }
        let wrap = row.partition_point(|&j| j > i);
        row.rotate_left(wrap);
        row
    }

    fn route_into(&self, from: usize, key: Id, hops: &mut Vec<usize>) {
        debug_assert!(from < self.ring.len(), "route from an index off the ring");
        let target = self.ring.successor_index(key);
        hops.clear();
        hops.push(from);
        let mut current = from;
        // Greedy progress strictly shrinks the index arc to the target,
        // so the loop terminates; the bound is a safety net.
        let bound = self.route_len_bound();
        while current != target {
            current = self.step(current, key, target);
            hops.push(current);
            assert!(
                hops.len() <= bound,
                "chord routing exceeded its hop bound (n={}, {} hops)",
                self.ring.len(),
                hops.len()
            );
        }
    }

    fn hops_capacity(&self) -> usize {
        Self::HOPS_CAPACITY
    }

    fn route_len_bound(&self) -> usize {
        // With fingers at every bit-scale, each greedy hop at least halves
        // the remaining clockwise distance, so 64 halvings reach any key on
        // any ring; the slack covers the final successor corrections.
        2 * Self::LEVELS as usize + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_ring(n: usize, seed: u64) -> SortedRing {
        let mut rng = StdRng::seed_from_u64(seed);
        SortedRing::new((0..n).map(|_| Id(rng.gen())).collect())
    }

    #[test]
    fn neighbors_contain_ring_edges() {
        let ring = random_ring(64, 1);
        let g = Chord::new(ring.clone());
        for i in (0..64).step_by(7) {
            let w = ring.at(i);
            let nb = g.neighbors(w);
            assert!(nb.contains(&ring.predecessor(w)));
            assert!(nb.contains(&ring.successor(w.add(tg_idspace::RingDistance(1)))));
            assert!(!nb.contains(&w), "no self-loop");
        }
    }

    #[test]
    fn degree_is_logarithmic_after_dedup() {
        let ring = random_ring(1024, 2);
        let g = Chord::new(ring.clone());
        for i in (0..1024).step_by(111) {
            let d = g.neighbors(ring.at(i)).len();
            // 64 raw fingers collapse to O(log n) distinct neighbors:
            // offsets below the local gap all hit the same successor.
            assert!(d <= 2 * 10 + 4, "degree {d} not O(log2 1024)");
            assert!(d >= 3, "degree {d} suspiciously small");
        }
    }

    #[test]
    fn routes_terminate_on_clustered_ring() {
        // All IDs crammed into [0, 1e-6): full-scale fingers keep greedy
        // routing short even though the ring is wildly non-uniform.
        let mut rng = StdRng::seed_from_u64(10);
        let ring =
            SortedRing::new((0..512).map(|_| Id::from_f64(rng.gen::<f64>() * 1e-6)).collect());
        let g = Chord::new(ring.clone());
        for _ in 0..50 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            assert_eq!(ring.at(r.resolver()), ring.successor(key));
            assert!(r.len() <= g.route_len_bound());
        }
    }

    #[test]
    fn routes_resolve_to_successor() {
        let ring = random_ring(256, 3);
        let g = Chord::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            assert_eq!(r.hops[0], from);
            assert_eq!(ring.at(r.resolver()), ring.successor(key));
        }
    }

    #[test]
    fn routes_follow_edges() {
        let ring = random_ring(128, 4);
        let g = Chord::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            for pair in r.hops.windows(2) {
                assert!(
                    g.neighbor_indices(pair[0]).contains(&pair[1]),
                    "hop {} -> {} is not a chord link",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn routes_are_logarithmic() {
        let ring = random_ring(4096, 6);
        let g = Chord::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            assert!(r.len() <= g.route_len_bound());
            total += r.len();
        }
        let mean = total as f64 / trials as f64;
        // Expected ~ (1/2)·log2 n + O(1) ≈ 7; allow slack.
        assert!(mean < 14.0, "mean chord route length {mean:.1} too large");
        assert!(mean > 3.0, "mean chord route length {mean:.1} implausibly small");
    }

    #[test]
    fn neighbor_indices_match_finger_rule() {
        // The rule as footnote 11 states it, in IDs: `u ∈ S_w` iff `u` is
        // ring-adjacent to `w` or the successor of one of `w`'s finger
        // points.
        let ring = random_ring(100, 8);
        let g = Chord::new(ring.clone());
        for i in (0..100).step_by(13) {
            let w = ring.at(i);
            let nb = g.neighbor_indices(i);
            for j in 0..100 {
                let u = ring.at(j);
                let linked = u != w
                    && (u == ring.predecessor(w)
                        || u == ring.successor(w.add(tg_idspace::RingDistance(1)))
                        || (1..=64).any(|l| ring.successor(w.add_pow2_fraction(l)) == u));
                assert_eq!(nb.contains(&j), linked, "w={w:?} u={u:?}");
            }
        }
    }

    #[test]
    fn finger_scan_stops_at_the_successor() {
        // Every finger the scan looks up lands past the ring successor,
        // and the scan goes on while one does. On the evenly spaced ring
        // the successor gap is exactly `2^-10`, so the stop is taken at
        // the equality itself.
        let even = SortedRing::new((0..1024u64).map(|k| Id(k << 54)).collect());
        for ring in [even, random_ring(300, 11)] {
            let n = ring.len();
            for i in 0..n {
                let next = (i + 1) % n;
                let mut fingers = Vec::new();
                Chord::fingers(&ring, i, &mut fingers);
                assert!(!fingers.contains(&(next as u32)), "n={n} i={i}: wasted lookup");
                let w = ring.at(i);
                let p = w.add_pow2_fraction(fingers.len() as u32 + 1);
                assert_eq!(ring.successor(p), ring.at(next), "n={n} i={i}: stopped early");
            }
        }
    }

    #[test]
    fn rows_drop_a_finger_that_wraps_to_its_own_node() {
        // Every ID inside `[0, 2^-20)`: node 0's low-level finger points
        // lie past the whole cluster, so its level-1 finger wraps the ring
        // back to node 0 itself. The derived row drops it and still reads
        // ascending, as the rule gives it.
        let mut rng = StdRng::seed_from_u64(12);
        let ring = SortedRing::new((0..200).map(|_| Id(rng.gen::<u64>() >> 20)).collect());
        let g = Chord::new(ring.clone());
        let n = ring.len();
        assert_eq!(g.fingers_of(0)[0], 0, "the level-1 finger of node 0 is node 0");
        for i in 0..n {
            let w = ring.at(i);
            let mut rule: Vec<usize> = (1..=64)
                .map(|l| ring.successor_index(w.add_pow2_fraction(l)))
                .chain([(i + 1) % n, (i + n - 1) % n])
                .filter(|&j| j != i)
                .collect();
            rule.sort_unstable();
            rule.dedup();
            assert_eq!(g.neighbor_indices(i), rule, "row of {i}");
        }
    }

    #[test]
    fn route_to_own_key_is_trivial() {
        let ring = random_ring(32, 9);
        let g = Chord::new(ring.clone());
        let w = ring.at(5);
        let r = g.route(5, w);
        let hops: Vec<Id> = r.hops.iter().map(|&h| ring.at(h)).collect();
        assert_eq!(hops, vec![w], "an ID resolves its own key locally");
    }

    #[test]
    fn two_node_ring_routes() {
        let ring = SortedRing::new(vec![Id::from_f64(0.25), Id::from_f64(0.75)]);
        let g = Chord::new(ring.clone());
        let (a, b) = (0, 1);
        let resolver = |from, key| ring.at(g.route(from, Id::from_f64(key)).resolver());
        assert_eq!(resolver(a, 0.5), Id::from_f64(0.75));
        assert_eq!(resolver(a, 0.9), Id::from_f64(0.25));
        assert_eq!(resolver(b, 0.1), Id::from_f64(0.25));
    }
}
