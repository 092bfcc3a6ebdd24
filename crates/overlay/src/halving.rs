//! The Naor–Wieder continuous-discrete **distance-halving** construction
//! \[39\].
//!
//! The continuous graph on `[0,1)` has edge functions `ℓ(x) = x/2` and
//! `r(x) = x/2 + 1/2`; node `w` covers the segment `[w, next(w))` and the
//! discrete graph links `w` to every node covering `ℓ(seg)`, `r(seg)`, or
//! the doubled segment (the backward direction), plus ring edges — the
//! same discretization rule as de Bruijn, which is no accident (both
//! realize the de Bruijn shift on the continuum).
//!
//! What distinguishes the construction is **distance-halving routing**:
//! a shared bit string `σ` drives *both* endpoints. Applying the same
//! `σ_j ∈ {ℓ, r}` to the current source image `x_j` and target image
//! `y_j` halves their distance each step:
//! `|x_{j+1} − y_{j+1}| = |x_j − y_j| / 2`. After `k = ⌈log2 n⌉ + 3`
//! steps the images are within `2^{-k}` — the same or adjacent nodes.
//! The message path is: the `x`-walk forward (halving edges), a short
//! ring walk, then the `y`-walk *in reverse* (doubling edges) down to the
//! node covering the key. With `σ` random, congestion is `O(log n / n)`;
//! we derive `σ` deterministically from `(source, key)` via splitmix so
//! simulations replay exactly.

use crate::graph::{ceil_log2, continuous_discrete_links, mix64, ring_walk, InputGraph};
use tg_idspace::{Id, SortedRing};

/// The longest halving walk: `k` never exceeds it, so a route keeps its
/// target images on the stack.
const MAX_K: u32 = 60;

/// The distance-halving overlay over a fixed ring.
#[derive(Clone, Debug)]
pub struct DistanceHalving {
    ring: SortedRing,
    /// Halving-walk length `k`.
    k: u32,
}

impl DistanceHalving {
    /// Build the overlay over `ring`.
    ///
    /// # Panics
    /// Panics if the ring is empty.
    pub fn new(ring: SortedRing) -> Self {
        assert!(!ring.is_empty(), "distance-halving over an empty ring");
        let k = (ceil_log2(ring.len()) + 3).min(MAX_K);
        DistanceHalving { ring, k }
    }

    /// The deterministic `σ` bits for a `(from, key)` pair.
    fn sigma(&self, from: Id, key: Id) -> u64 {
        mix64(from.raw() ^ mix64(key.raw()))
    }

    fn apply(p: Id, bit: bool) -> Id {
        if bit {
            p.half_right()
        } else {
            p.half_left()
        }
    }

    /// Append the index of the node covering `p` if it differs from the
    /// last hop, and return it.
    fn push_cover(&self, hops: &mut Vec<usize>, p: Id) -> usize {
        let node = self.ring.covering_index(p);
        if *hops.last().expect("non-empty route") != node {
            hops.push(node);
        }
        node
    }
}

impl InputGraph for DistanceHalving {
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
        let n = self.ring.len();
        if n == 1 {
            return;
        }
        let from_id = self.ring.at(from);
        let sigma = self.sigma(from_id, key);

        // Forward σ-walk on the source image (halving edges), recording
        // the target images along the way for the reverse leg.
        let mut x = from_id;
        let mut y = key;
        let mut here = from;
        let mut y_images = [y; MAX_K as usize + 1];
        for j in 0..self.k {
            let bit = (sigma >> j) & 1 == 1;
            x = Self::apply(x, bit);
            y = Self::apply(y, bit);
            y_images[j as usize + 1] = y;
            here = self.push_cover(hops, x);
        }

        // Bridge the (now ≤ 2^{-k}) gap between the two images on the ring.
        let there = self.ring.covering_index(y);
        ring_walk(n, hops, here, there);

        // Reverse σ-walk down the target images (doubling edges) until the
        // node covering the key itself.
        let mut cover = there;
        for &img in y_images[..self.k as usize].iter().rev() {
            cover = self.push_cover(hops, img);
        }

        // The covering node of the key is its predecessor; the responsible
        // ID is the successor. One final ring hop if they differ.
        let target = self.ring.successor_index(key);
        ring_walk(n, hops, cover, target);
        debug_assert_eq!(*hops.last().expect("non-empty"), target);
    }

    fn hops_capacity(&self) -> usize {
        // The initiator, the two k-step σ-walks and the ring walks that
        // bridge them; on a u.a.r. ring those are a hop or two each (see
        // `D2B::hops_capacity`), and a clustered ring's longer walks grow
        // it.
        2 * self.k as usize + 8
    }

    fn route_len_bound(&self) -> usize {
        // Two k-step walks plus two ring corrections.
        2 * self.k as usize + self.ring.len().min(4 * (self.k as usize + 8)) + 4
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
        let ring = random_ring(512, 31);
        let g = DistanceHalving::new(ring.clone());
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
        let ring = random_ring(256, 32);
        let g = DistanceHalving::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            for pair in r.hops.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    g.neighbor_indices(a).contains(&b) || g.neighbor_indices(b).contains(&a),
                    "hop {a} -> {b} is not a distance-halving link"
                );
            }
        }
    }

    #[test]
    fn neighbors_symmetric_in_coverage() {
        // If u covers a halved image of w's segment then w covers a doubled
        // image of u's segment — the edge is visible from both endpoints.
        let ring = random_ring(64, 36);
        let g = DistanceHalving::new(ring.clone());
        for w in 0..64 {
            for u in g.neighbor_indices(w) {
                assert!(g.neighbor_indices(u).contains(&w), "edge {w} -> {u} not seen from {u}");
            }
        }
    }

    #[test]
    fn distance_actually_halves() {
        // The defining invariant (Naor–Wieder analyze the *real-line*
        // distance |x − y| on [0,1), which upper-bounds ring distance):
        // images of source and key approach each other by a factor of 2
        // per σ-step.
        let from = Id::from_f64(0.9);
        let key = Id::from_f64(0.1);
        let mut x = from;
        let mut y = key;
        let mut dist = (x.as_f64() - y.as_f64()).abs();
        for bit in [true, false, true, true, false] {
            x = DistanceHalving::apply(x, bit);
            y = DistanceHalving::apply(y, bit);
            let nd = (x.as_f64() - y.as_f64()).abs();
            assert!((nd - dist / 2.0).abs() < 1e-12, "distance must halve: {dist} -> {nd}");
            dist = nd;
        }
        // After enough steps the images land on the same or adjacent
        // nodes of any ring whose gaps exceed the final distance.
        assert!(dist < 0.8 / 32.0 + 1e-12, "real distance 0.8 halved 5 times");
    }

    #[test]
    fn routes_are_logarithmic() {
        let ring = random_ring(4096, 33);
        let g = DistanceHalving::new(ring.clone());
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
        // Two 15-step walks with merges: roughly 2k hops.
        assert!(mean < 40.0, "mean dh route length {mean:.1} too large");
        assert!(mean > 10.0, "mean dh route length {mean:.1} implausibly small");
    }

    #[test]
    fn expected_degree_is_constant() {
        let ring = random_ring(4096, 34);
        let g = DistanceHalving::new(ring.clone());
        let sample: Vec<usize> = (0..ring.len()).step_by(17).collect();
        let mut total = 0usize;
        for &i in &sample {
            total += g.neighbors(ring.at(i)).len();
        }
        let mean = total as f64 / sample.len() as f64;
        assert!(mean < 12.0, "mean dh degree {mean:.1} not O(1)");
    }

    #[test]
    fn deterministic_routes() {
        let ring = random_ring(128, 35);
        let g = DistanceHalving::new(ring.clone());
        let from = 7;
        let key = Id::from_f64(0.777);
        assert_eq!(g.route(from, key), g.route(from, key));
    }

    #[test]
    fn two_node_ring_routes() {
        let ring = SortedRing::new(vec![Id::from_f64(0.2), Id::from_f64(0.6)]);
        let g = DistanceHalving::new(ring.clone());
        // Index 0 is the ID at 0.2, index 1 the one at 0.6.
        for (from, key_f) in [(0, 0.5), (0, 0.9), (1, 0.3)] {
            let r = g.route(from, Id::from_f64(key_f));
            assert_eq!(ring.at(r.resolver()), ring.successor(Id::from_f64(key_f)));
        }
    }
}
