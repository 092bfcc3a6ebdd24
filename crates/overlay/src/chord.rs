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

use crate::graph::{InputGraph, Route};
use tg_idspace::{Id, SortedRing};

/// The Chord overlay over a fixed ring.
///
/// Finger tables span all 64 bit-scales of the ID space (as in deployed
/// Chord, where `m` is the hash width): offsets below the minimum ring gap
/// all resolve to the same successor and are deduplicated, so the
/// *distinct* degree is `O(log n)` w.h.p. while greedy routing stays
/// robust even on non-uniform rings.
#[derive(Clone, Debug)]
pub struct Chord {
    ring: SortedRing,
    /// Number of finger levels (bit-width of the ID space).
    levels: u32,
    /// Precomputed neighbor table: the ring indices of each node's
    /// neighbors, ascending, indexed by ring position. Routing does one
    /// table scan per hop; the dynamic-epoch builder issues hundreds of
    /// searches per joining ID, so the table pays for itself within the
    /// first few hundred searches.
    adj: Vec<Vec<u32>>,
}

impl Chord {
    /// Build Chord over `ring`, precomputing the finger tables.
    ///
    /// # Panics
    /// Panics if the ring is empty.
    pub fn new(ring: SortedRing) -> Self {
        assert!(!ring.is_empty(), "Chord over an empty ring");
        let mut g = Chord { ring, levels: 64, adj: Vec::new() };
        g.adj = (0..g.ring.len()).map(|i| g.compute_neighbors(i)).collect();
        g
    }

    /// The neighbor indices of the node at ring index `i`: its ring
    /// predecessor and successor and the successors of its finger points,
    /// ascending (index order is ID order), deduplicated, without `i`.
    fn compute_neighbors(&self, i: usize) -> Vec<u32> {
        let n = self.ring.len();
        let mut out = Vec::with_capacity(self.levels as usize + 2);
        if n == 1 {
            return out;
        }
        out.push(((i + n - 1) % n) as u32);
        out.push(((i + 1) % n) as u32);
        for p in self.finger_points(self.ring.at(i)) {
            out.push(self.ring.successor_index(p) as u32);
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u as usize != i);
        out
    }

    /// The finger targets of `w`: the points `w + 2^{-i}`.
    fn finger_points(&self, w: Id) -> impl Iterator<Item = Id> + '_ {
        (1..=self.levels).map(move |i| w.add_pow2_fraction(i))
    }

    /// Greedy step: the neighbor of the node at index `current` making the
    /// most clockwise progress while staying strictly before `key`'s
    /// responsible zone.
    fn closest_preceding(&self, current: usize, key: Id) -> Option<usize> {
        let here = self.ring.at(current);
        let mut best: Option<usize> = None;
        let mut best_dist = tg_idspace::RingDistance::ZERO;
        for &j in &self.adj[current] {
            let u = self.ring.at(j as usize);
            // u must lie strictly inside the clockwise arc (current, key)
            // — i.e. make progress but not jump past the key.
            if u != key && u.in_arc_open_closed(here, key) {
                let d = here.distance_cw(u);
                if d > best_dist {
                    best_dist = d;
                    best = Some(j as usize);
                }
            }
        }
        best
    }
}

impl InputGraph for Chord {
    fn ring(&self) -> &SortedRing {
        &self.ring
    }

    fn neighbor_indices(&self, i: usize) -> Vec<usize> {
        self.adj[i].iter().map(|&j| j as usize).collect()
    }

    fn route(&self, from: usize, key: Id) -> Route {
        debug_assert!(from < self.ring.len(), "route from an index off the ring");
        let n = self.ring.len();
        let target = self.ring.successor_index(key);
        let mut hops = Vec::with_capacity(self.route_len_bound());
        hops.push(from);
        let mut current = from;
        // Greedy progress strictly decreases clockwise distance to the
        // key, so the loop terminates; the bound is a safety net.
        let bound = self.route_len_bound();
        while current != target {
            // If the key lies between current and its ring successor, the
            // successor resolves it.
            let next = match self.closest_preceding(current, key) {
                Some(u) => u,
                // No neighbor strictly precedes the key: the successor of
                // current is responsible.
                None => (current + 1) % n,
            };
            hops.push(next);
            current = next;
            assert!(
                hops.len() <= bound,
                "chord routing exceeded its hop bound (n={n}, {} hops)",
                hops.len()
            );
        }
        Route { hops }
    }

    fn route_len_bound(&self) -> usize {
        // With fingers at every bit-scale, each greedy hop at least halves
        // the remaining clockwise distance, so 64 halvings reach any key on
        // any ring; the slack covers the final successor corrections.
        2 * 64 + 16
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
                        || g.finger_points(w).any(|p| ring.successor(p) == u));
                assert_eq!(nb.contains(&j), linked, "w={w:?} u={u:?}");
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
