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
//! space, where index order is ID order. The links are one flat table (a
//! CSR row per node), and the greedy step is one binary search in the
//! current node's row for the last link before the key's successor, plus
//! a check for an arc that wraps past index 0. The finger scan behind the
//! table stops at the first finger point at or before the node's ring
//! successor, so a node costs `≈ log2 n + O(1)` ring lookups to link.

use crate::graph::InputGraph;
use tg_idspace::{Id, SortedRing};

/// The Chord overlay over a fixed ring.
///
/// Finger tables span all 64 bit-scales of the ID space (as in deployed
/// Chord, where `m` is the hash width): offsets at or below the gap to a
/// node's successor all resolve to that successor, so the scan stops at
/// the first of them and the *distinct* degree is `O(log n)` w.h.p. while
/// greedy routing stays robust even on non-uniform rings.
///
/// The neighbor table is flat: node `i`'s neighbors, ascending, are
/// `links[offsets[i]..offsets[i + 1]]`. The dynamic-epoch builder issues
/// hundreds of searches per joining ID, and each hop is one binary search
/// in one row.
#[derive(Clone, Debug)]
pub struct Chord {
    ring: SortedRing,
    /// Row starts into `links`, `n + 1` of them.
    offsets: Vec<u32>,
    /// Every node's neighbor indices, row after row.
    links: Vec<u32>,
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
    /// Panics if the ring is empty, or if its link table outgrows `u32`
    /// offsets.
    pub fn new(ring: SortedRing) -> Self {
        assert!(!ring.is_empty(), "Chord over an empty ring");
        let n = ring.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::new();
        let mut row = Vec::with_capacity(Self::LEVELS as usize + 2);
        offsets.push(0);
        for i in 0..n {
            Self::links_of(&ring, i, &mut row);
            links.extend_from_slice(&row);
            assert!(
                links.len() < u32::MAX as usize,
                "chord table of {} links exceeds its u32 offsets",
                links.len()
            );
            offsets.push(links.len() as u32);
        }
        Chord { ring, offsets, links }
    }

    /// Fill `row` with the neighbor indices of the node at ring index `i`:
    /// its ring predecessor and successor and the successors of its finger
    /// points, ascending (index order is ID order), deduplicated, without
    /// `i`.
    fn links_of(ring: &SortedRing, i: usize, row: &mut Vec<u32>) {
        row.clear();
        let n = ring.len();
        if n == 1 {
            return;
        }
        row.push(if i == 0 { n - 1 } else { i - 1 } as u32);
        row.push(if i + 1 == n { 0 } else { i + 1 } as u32);
        Self::fingers(ring, i, row);
        row.sort_unstable();
        row.dedup();
        row.retain(|&u| u as usize != i);
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

    /// The neighbor row of the node at ring index `i`.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Greedy step from `current` toward `target != current`: the
    /// neighbor farthest clockwise strictly inside the index arc
    /// `(current, target)`, which holds exactly the IDs strictly between
    /// `current` and the key. `None` when no neighbor lies inside, which
    /// happens only when `target` is `current`'s ring successor.
    #[inline]
    fn step(&self, current: usize, target: usize) -> Option<usize> {
        let row = self.row(current);
        let below = &row[..row.partition_point(|&j| (j as usize) < target)];
        let best = if current < target {
            // The arc does not wrap: the last link below `target`, if it
            // lies past `current`.
            below.last().filter(|&&j| j as usize > current)
        } else {
            // The arc wraps past index 0: a link below `target` is the
            // farthest; failing one, the last link past `current`.
            below.last().or(row.last().filter(|&&j| j as usize > current))
        };
        best.map(|&j| j as usize)
    }
}

impl InputGraph for Chord {
    fn ring(&self) -> &SortedRing {
        &self.ring
    }

    fn neighbor_indices(&self, i: usize) -> Vec<usize> {
        self.row(i).iter().map(|&j| j as usize).collect()
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
            // No neighbor strictly inside the arc: current's ring
            // successor is the target, and resolves the key.
            current = self.step(current, target).unwrap_or(target);
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
