//! D2B \[19\]: a de Bruijn content-addressable network with constant
//! expected degree.
//!
//! Following the continuous-discrete approach, node `w` *covers* the
//! segment `[w, next(w))`. The continuous de Bruijn graph has edges
//! `x → x/2` and `x → x/2 + 1/2` (the two preimages of doubling); the
//! discrete graph links `w` to every node covering an image of its
//! segment — both the halved images (out-edges used for routing) and the
//! doubled image (the reverse direction, which makes every link visible
//! from both endpoints and matches D2B's parent/child structure) — plus
//! its ring predecessor and successor. Distance halving links by the same
//! rule, so both call the one `continuous_discrete_links`.
//!
//! **Routing** injects the key's bits: from point `p`, the step
//! `p ← p/2 + b/2` with `b` the next key bit (taken least-significant
//! first over a `k = ⌈log2 n⌉ + 3` bit prefix) lands, after `k` steps, at
//! `prefix_k(key) + s/2^k` — within `2^{1-k}` of the key. A short ring
//! walk then reaches `suc(key)`. Route length is `k + O(1)` expected,
//! i.e. `O(log N)` (property P1); degree is `O(1)` in expectation.

use crate::graph::{ceil_log2, continuous_discrete_links, ring_walk, InputGraph};
use tg_idspace::{Id, SortedRing};

/// The D2B overlay over a fixed ring.
#[derive(Clone, Debug)]
pub struct D2B {
    ring: SortedRing,
    /// Bit-walk length `k`.
    k: u32,
}

impl D2B {
    /// Build D2B over `ring`.
    ///
    /// # Panics
    /// Panics if the ring is empty.
    pub fn new(ring: SortedRing) -> Self {
        assert!(!ring.is_empty(), "D2B over an empty ring");
        let k = (ceil_log2(ring.len()) + 3).min(60);
        D2B { ring, k }
    }
}

impl InputGraph for D2B {
    fn ring(&self) -> &SortedRing {
        &self.ring
    }

    fn neighbor_indices(&self, i: usize) -> Vec<usize> {
        continuous_discrete_links(&self.ring, i)
    }

    fn route_into(&self, from: usize, key: Id, hops: &mut Vec<usize>) {
        debug_assert!(from < self.ring.len(), "route from an index off the ring");
        hops.clear();
        hops.push(from);
        if self.ring.len() == 1 {
            return;
        }
        // Bit-injection walk: feed the k-bit key prefix, least significant
        // bit first, so the final point is prefix_k(key) + from/2^k.
        let mut p = self.ring.at(from);
        let mut here = from;
        for j in (0..self.k).rev() {
            p = if key.bit(j) { p.half_right() } else { p.half_left() };
            here = self.ring.covering_index(p);
            if *hops.last().expect("non-empty") != here {
                hops.push(here);
            }
        }
        // Final ring correction to the successor of the key.
        let target = self.ring.successor_index(key);
        ring_walk(self.ring.len(), hops, here, target);
        debug_assert_eq!(*hops.last().expect("non-empty"), target);
    }

    fn hops_capacity(&self) -> usize {
        // The initiator, at most k bit-steps and the ring correction. The
        // walk ends within 2^{1-k} ≤ 1/(4n) of the key, so on a u.a.r.
        // ring the correction is a hop or two and the buffer never
        // regrows; a clustered ring's longer walk just grows it.
        self.k as usize + 8
    }

    fn route_len_bound(&self) -> usize {
        // k bit-steps plus the ring correction; the correction window
        // holds O(log n) IDs w.h.p. on u.a.r. rings, but is bounded by n
        // in the worst case. Use a generous cap for the assert-style uses.
        self.k as usize + self.ring.len().min(4 * (self.k as usize + 8)) + 2
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
    fn routes_resolve_to_successor() {
        let ring = random_ring(512, 21);
        let g = D2B::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            assert_eq!(r.hops[0], from);
            assert_eq!(ring.at(r.resolver()), ring.successor(key));
        }
    }

    #[test]
    fn routes_follow_edges() {
        let ring = random_ring(256, 22);
        let g = D2B::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            for pair in r.hops.windows(2) {
                assert!(
                    g.neighbor_indices(pair[0]).contains(&pair[1]),
                    "hop {} -> {} is not a d2b link",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn routes_are_logarithmic() {
        let ring = random_ring(4096, 23);
        let g = D2B::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 300;
        let mut total = 0usize;
        for _ in 0..trials {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            total += r.len();
            assert!(r.len() <= g.route_len_bound());
        }
        let mean = total as f64 / trials as f64;
        // k = log2(4096) + 3 = 15 bit-steps, some merged, plus O(1) walk.
        assert!(mean < 22.0, "mean d2b route length {mean:.1} too large");
        assert!(mean > 6.0, "mean d2b route length {mean:.1} implausibly small");
    }

    #[test]
    fn expected_degree_is_constant() {
        let ring = random_ring(4096, 24);
        let g = D2B::new(ring.clone());
        let mut total = 0usize;
        let mut maxd = 0usize;
        let sample: Vec<usize> = (0..ring.len()).step_by(17).collect();
        for &i in &sample {
            let d = g.neighbors(ring.at(i)).len();
            total += d;
            maxd = maxd.max(d);
        }
        let mean = total as f64 / sample.len() as f64;
        assert!(mean < 12.0, "mean d2b degree {mean:.1} not O(1)");
        assert!(mean >= 3.0, "mean d2b degree {mean:.1} too small to be connected");
        // Max degree is O(log n / log log n)-ish (balls in bins on gaps).
        assert!(maxd < 40, "max d2b degree {maxd} too large");
    }

    #[test]
    fn neighbors_symmetric_in_coverage() {
        // If u covers a halved image of w's segment then w covers a doubled
        // image of u's segment — the edge is visible from both endpoints.
        let ring = random_ring(64, 26);
        let g = D2B::new(ring.clone());
        for w in 0..64 {
            for u in g.neighbor_indices(w) {
                assert!(g.neighbor_indices(u).contains(&w), "edge {w} -> {u} not seen from {u}");
            }
        }
    }

    #[test]
    fn two_node_ring_routes() {
        let ring = SortedRing::new(vec![Id::from_f64(0.2), Id::from_f64(0.6)]);
        let g = D2B::new(ring.clone());
        // Index 0 is the ID at 0.2, index 1 the one at 0.6.
        for (from, key_f) in [(0, 0.5), (0, 0.9), (1, 0.3), (1, 0.61)] {
            let r = g.route(from, Id::from_f64(key_f));
            assert_eq!(ring.at(r.resolver()), ring.successor(Id::from_f64(key_f)));
        }
    }

    #[test]
    fn single_node_ring() {
        let ring = SortedRing::new(vec![Id::from_f64(0.5)]);
        let g = D2B::new(ring.clone());
        let r = g.route(0, Id::from_f64(0.123));
        let hops: Vec<Id> = r.hops.iter().map(|&h| ring.at(h)).collect();
        assert_eq!(hops, vec![Id::from_f64(0.5)]);
        assert!(g.neighbors(Id::from_f64(0.5)).is_empty());
    }
}
