//! Viceroy \[32\]: a constant-degree butterfly emulation.
//!
//! The third input graph Corollary 1 names. Every node draws a **level**
//! `ℓ ∈ 1..=L` with `L = ⌈log2 n⌉` (derived here by hashing the ID, so
//! any node can recompute — and verify — anyone's level, keeping P3's
//! verifiability). Edges per node are O(1):
//!
//! * ring predecessor/successor,
//! * level-ring: the previous/next node of the *same* level,
//! * an **up** edge (`ℓ > 1`): the nearest level-`ℓ−1` node clockwise,
//! * two **down** edges (`ℓ < L`): the nearest level-`ℓ+1` node
//!   clockwise of the node itself ("down-left") and of the point
//!   `w + 2^{-ℓ}` ("down-right") — the butterfly's distance-halving
//!   shortcuts.
//!
//! Routing climbs to level 1, then descends: at level `ℓ`, take the
//! down-right edge when the clockwise distance to the key is at least
//! `2^{-ℓ}`, else down-left; each descent level halves the scale, and a
//! short ring walk finishes. Total `O(log n)` hops with a constant
//! *worst-case* degree — the strongest state profile of the three
//! implemented graphs.

use crate::graph::{ceil_log2, mix64, ring_walk, InputGraph};
use tg_idspace::{Id, RingDistance, SortedRing};

/// The Viceroy-style butterfly over a fixed ring.
#[derive(Clone, Debug)]
pub struct Viceroy {
    ring: SortedRing,
    /// Number of levels `L`.
    levels: u32,
    /// Level of each node, indexed by ring position.
    level_of: Vec<u32>,
    /// Ring indices of each level's members (sorted by ring position),
    /// indexed by level − 1.
    level_members: Vec<Vec<u32>>,
}

impl Viceroy {
    /// Build the butterfly over `ring`.
    ///
    /// # Panics
    /// Panics if the ring is empty.
    pub fn new(ring: SortedRing) -> Self {
        assert!(!ring.is_empty(), "Viceroy over an empty ring");
        let n = ring.len();
        let levels = ceil_log2(n).max(1);
        let level_of: Vec<u32> =
            (0..n).map(|i| (mix64(ring.at(i).raw()) % levels as u64) as u32 + 1).collect();
        let mut level_members = vec![Vec::new(); levels as usize];
        for (i, &l) in level_of.iter().enumerate() {
            level_members[(l - 1) as usize].push(i as u32);
        }
        // Guarantee every level is inhabited (tiny rings may miss one):
        // an empty level would strand the descent, so fall back by
        // reassigning the lowest-index node of the fullest level.
        for l in 0..levels as usize {
            if level_members[l].is_empty() {
                let donor = (0..levels as usize)
                    .max_by_key(|&k| level_members[k].len())
                    .expect("levels exist");
                let moved = level_members[donor].remove(0);
                level_members[l].push(moved);
            }
        }
        let mut level_of = level_of;
        for (l, members) in level_members.iter().enumerate() {
            for &m in members {
                level_of[m as usize] = l as u32 + 1;
            }
        }
        for members in level_members.iter_mut() {
            members.sort_unstable();
        }
        Viceroy { ring, levels, level_of, level_members }
    }

    /// Nearest node of `level` at or clockwise of point `x`.
    fn nearest_at_level(&self, level: u32, x: Id) -> u32 {
        let members = &self.level_members[(level - 1) as usize];
        debug_assert!(!members.is_empty());
        // Members are sorted by ring index, hence by ID value.
        let pos = members.partition_point(|&m| self.ring.at(m as usize) < x);
        members[pos % members.len()]
    }

    fn push(hops: &mut Vec<usize>, idx: u32) {
        if *hops.last().expect("non-empty route") != idx as usize {
            hops.push(idx as usize);
        }
    }
}

impl InputGraph for Viceroy {
    fn ring(&self) -> &SortedRing {
        &self.ring
    }

    fn neighbor_indices(&self, i: usize) -> Vec<usize> {
        let n = self.ring.len();
        let mut out = Vec::with_capacity(7);
        if n == 1 {
            return out;
        }
        out.push((i + n - 1) % n);
        out.push((i + 1) % n);
        let l = self.level_of[i];
        // Level ring: next same-level node clockwise (and it links back,
        // so the previous one appears via its own edge set; include both
        // for symmetric maintenance).
        let members = &self.level_members[(l - 1) as usize];
        if members.len() > 1 {
            let pos = members.binary_search(&(i as u32)).expect("node in its level list");
            out.push(members[(pos + 1) % members.len()] as usize);
            out.push(members[(pos + members.len() - 1) % members.len()] as usize);
        }
        let w = self.ring.at(i);
        if l > 1 {
            out.push(self.nearest_at_level(l - 1, w) as usize);
        }
        if l < self.levels {
            out.push(self.nearest_at_level(l + 1, w) as usize);
            out.push(self.nearest_at_level(l + 1, w.add_pow2_fraction(l)) as usize);
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u != i);
        out
    }

    fn route_into(&self, from: usize, key: Id, hops: &mut Vec<usize>) {
        debug_assert!(from < self.ring.len(), "route from an index off the ring");
        hops.clear();
        hops.push(from);
        if self.ring.len() == 1 {
            return;
        }
        // Ascend to level 1.
        let mut cur = from as u32;
        while self.level_of[cur as usize] > 1 {
            let next =
                self.nearest_at_level(self.level_of[cur as usize] - 1, self.ring.at(cur as usize));
            Self::push(hops, next);
            cur = next;
        }
        // Descend, halving the clockwise distance scale per level. Each
        // down hop lands at the nearest level-member clockwise of its
        // ideal point, overshooting by an expected inter-member gap
        // (≈ L/n), so the descent accumulates ≈ L²/n of forward drift;
        // stop on wrap-around (we passed the key) and let the level-ring
        // correction below absorb the drift.
        while self.level_of[cur as usize] < self.levels {
            let v = self.ring.at(cur as usize);
            let dist = v.distance_cw(key);
            if dist.0 > 1 << 63 {
                break; // overshot the key
            }
            let l = self.level_of[cur as usize];
            let scale = if l >= 64 { RingDistance(1) } else { RingDistance(1u64 << (64 - l)) };
            let target_point = if dist >= scale { v.add(scale) } else { v };
            let next = self.nearest_at_level(l + 1, target_point);
            if next == cur {
                break;
            }
            Self::push(hops, next);
            cur = next;
        }

        // Coarse correction along the current level's ring: each hop
        // skips ≈ L ring positions, turning the ≈ L² position drift into
        // O(L) hops. Hop while it strictly shrinks the index distance.
        let n = self.ring.len();
        let target = self.ring.successor_index(key);
        let idx_dist = |a: usize| -> usize {
            let fwd = (target + n - a) % n;
            let back = (a + n - target) % n;
            fwd.min(back)
        };
        let lvl = self.level_of[cur as usize] as usize;
        let members = &self.level_members[lvl - 1];
        if members.len() > 1 {
            let mut pos =
                members.binary_search(&cur).expect("current node belongs to its level list");
            let mut guard = members.len();
            loop {
                guard -= 1;
                let here = idx_dist(cur as usize);
                let fwd_m = members[(pos + 1) % members.len()];
                let back_m = members[(pos + members.len() - 1) % members.len()];
                let (best_m, best_pos) = if idx_dist(fwd_m as usize) <= idx_dist(back_m as usize) {
                    (fwd_m, (pos + 1) % members.len())
                } else {
                    (back_m, (pos + members.len() - 1) % members.len())
                };
                if guard == 0 || idx_dist(best_m as usize) >= here {
                    break;
                }
                Self::push(hops, best_m);
                cur = best_m;
                pos = best_pos;
            }
        }

        // Fine ring walk to the responsible ID.
        ring_walk(n, hops, cur as usize, target);
        debug_assert_eq!(*hops.last().expect("non-empty"), target);
    }

    fn route_len_bound(&self) -> usize {
        // Ascent ≤ L, descent ≤ L, ring walk O(L) expected; allow a
        // generous constant plus the worst-case ring fallback for tiny
        // rings.
        (4 * self.levels as usize + 32) + self.ring.len().min(16 * self.levels as usize + 64)
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
    fn levels_cover_and_are_deterministic() {
        let ring = random_ring(512, 1);
        let g = Viceroy::new(ring.clone());
        let g2 = Viceroy::new(ring.clone());
        assert_eq!(g.level_of, g2.level_of, "levels must be recomputable");
        assert!(g.level_of.iter().all(|l| (1..=g.levels).contains(l)));
        // Every level inhabited.
        for l in 0..g.levels as usize {
            assert!(!g.level_members[l].is_empty(), "level {} empty", l + 1);
        }
    }

    #[test]
    fn routes_resolve_to_successor() {
        let ring = random_ring(512, 2);
        let g = Viceroy::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            assert_eq!(r.hops[0], from);
            assert_eq!(ring.at(r.resolver()), ring.successor(key));
            assert!(r.len() <= g.route_len_bound(), "route {} hops", r.len());
        }
    }

    #[test]
    fn routes_follow_edges() {
        let ring = random_ring(256, 4);
        let g = Viceroy::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..60 {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            let r = g.route(from, key);
            for pair in r.hops.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    g.neighbor_indices(a).contains(&b) || g.neighbor_indices(b).contains(&a),
                    "hop {a} -> {b} is not a viceroy link"
                );
            }
        }
    }

    #[test]
    fn degree_is_constant_worst_case() {
        let ring = random_ring(4096, 6);
        let g = Viceroy::new(ring.clone());
        for i in (0..ring.len()).step_by(37) {
            let d = g.neighbors(ring.at(i)).len();
            assert!(d <= 7, "viceroy degree {d} exceeds the constant bound");
            assert!(d >= 2);
        }
    }

    #[test]
    fn routes_are_logarithmic() {
        let ring = random_ring(4096, 7);
        let g = Viceroy::new(ring.clone());
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 300;
        let mut total = 0usize;
        for _ in 0..trials {
            let from = rng.gen_range(0..ring.len());
            let key = Id(rng.gen());
            total += g.route(from, key).len();
        }
        let mean = total as f64 / trials as f64;
        // Ascent + descent + walk: a few × log2 n.
        assert!(mean < 5.0 * 12.0, "mean viceroy route {mean:.1} too long");
        assert!(mean > 4.0, "mean viceroy route {mean:.1} implausibly short");
    }

    #[test]
    fn small_rings_route_correctly() {
        for n in [2usize, 3, 5, 9] {
            let ring = random_ring(n, 9 + n as u64);
            let g = Viceroy::new(ring.clone());
            let mut rng = StdRng::seed_from_u64(n as u64);
            for _ in 0..30 {
                let from = rng.gen_range(0..n);
                let key = Id(rng.gen());
                assert_eq!(ring.at(g.route(from, key).resolver()), ring.successor(key), "n={n}");
            }
        }
    }
}
