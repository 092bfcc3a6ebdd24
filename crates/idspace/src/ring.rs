//! Successor structures over a population of IDs.
//!
//! The paper's search primitive (property P1) resolves a key `x ∈ [0,1)` to
//! `suc(x)`: the first ID encountered moving clockwise from `x`. These
//! structures answer `suc` queries exactly; the overlay graphs then emulate
//! how a distributed system *routes* to that successor.

use crate::id::{Id, RingDistance};
use crate::interval::RingInterval;
use std::sync::Arc;

/// An immutable, sorted snapshot of the ID population.
///
/// Duplicate IDs are collapsed: the ring is a *set* of points (two
/// participants never share an ID value; the random-oracle minting of §IV
/// makes collisions negligible, and the builders in this workspace reject
/// them outright).
///
/// **Lookups.** Every point query — [`successor_index`], [`covering_index`],
/// [`index_of`], [`contains`], [`predecessor`] — is one probe into a
/// *top-bits directory*: with `b = ⌊log2 n⌋ + 2`, bucket `t` holds the
/// first ring index whose ID has top-`b` bits `≥ t`, so the IDs sharing
/// `x`'s top bits sit between two adjacent entries. A lower or upper bound
/// over a bucket of at most one ID is one compare, made without a branch;
/// a longer bucket is binary-searched. Answers are exact for every ring.
/// Under the paper's standing assumption that IDs are u.a.r. (enforced by
/// §IV's PoW, Lemma 11) a bucket holds `n / 2^b ∈ [1/4, 1/2)` IDs in
/// expectation, and a u.a.r. point finds two or more in 3–9 % of lookups,
/// so a lookup is one probe and one compare; on a clustered ring — every
/// ID in one bucket — it degrades to the plain `O(log n)` binary search,
/// never worse. The directory holds one `u32` per bucket, `2^b ∈ (2n, 4n]`
/// of them: 8–16 bytes per ID beside the 8 of the ID itself, built in
/// `O(n)`.
///
/// Interval reporting is `O(k)` past the lookup. The IDs and the directory
/// are shared (`Arc`), so cloning a ring is a reference-count bump.
///
/// [`successor_index`]: SortedRing::successor_index
/// [`covering_index`]: SortedRing::covering_index
/// [`index_of`]: SortedRing::index_of
/// [`contains`]: SortedRing::contains
/// [`predecessor`]: SortedRing::predecessor
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortedRing {
    ids: Arc<[Id]>,
    /// `dir[t]` is the first index whose ID has top-`b` bits `≥ t`, for
    /// `t ∈ 0..=2^b` (so `dir[2^b] = n`).
    dir: Arc<[u32]>,
    /// `63 − b`: an ID's bucket is `(raw >> 1) >> shift`, which is its top
    /// `b` bits for every `b ∈ 0..=63` without a 64-bit shift.
    shift: u32,
}

/// Directory bits past `⌊log2 n⌋`: two put `n / 2^b ∈ [1/4, 1/2)` u.a.r.
/// IDs in a bucket, so almost every lookup finds an empty or one-ID
/// bucket.
const DIR_EXTRA_BITS: u32 = 2;

impl SortedRing {
    /// Build from an arbitrary collection of IDs; sorts and deduplicates.
    pub fn new(mut ids: Vec<Id>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        SortedRing::indexed(ids)
    }

    /// Build from IDs already sorted and unique.
    ///
    /// # Panics
    /// In debug builds, panics if the input is not strictly increasing.
    pub fn from_sorted_unique(ids: Vec<Id>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly increasing");
        SortedRing::indexed(ids)
    }

    /// Share sorted, unique `ids` and build their top-bits directory.
    fn indexed(ids: Vec<Id>) -> Self {
        let n = ids.len();
        assert!(n < u32::MAX as usize, "ring of {n} IDs exceeds the u32 directory");
        let bits = n.max(1).ilog2() + DIR_EXTRA_BITS;
        let shift = 63 - bits;
        let buckets = 1 << bits;
        let mut dir = Vec::with_capacity(buckets + 1);
        // Each ID opens every bucket up to its own that no earlier ID did.
        for (i, id) in ids.iter().enumerate() {
            dir.resize(((id.0 >> 1) >> shift) as usize + 1, i as u32);
        }
        dir.resize(buckets + 1, n as u32);
        SortedRing { ids: ids.into(), dir: dir.into(), shift }
    }

    /// The first index whose ID is not `below(id)` (`n` if none). `below`
    /// (`id < x` or `id <= x`) holds on a prefix of the ring that ends
    /// inside `x`'s bucket, so the answer lies between the bucket's two
    /// directory entries.
    #[inline]
    fn bound(&self, x: Id, below: impl Fn(Id) -> bool) -> usize {
        let t = ((x.0 >> 1) >> self.shift) as usize;
        let (lo, hi) = (self.dir[t] as usize, self.dir[t + 1] as usize);
        if hi - lo > 1 {
            return lo + self.ids[lo..hi].partition_point(|&id| below(id));
        }
        // An empty or one-ID bucket: step past `ids[lo]` iff it is below.
        // An empty bucket's `ids[lo]` is a later bucket's first ID, never
        // below, so no branch asks which of the two it is: no predictor
        // could guess it, and a miss costs more than the compare.
        match self.ids.get(lo) {
            Some(&id) => lo + below(id) as usize,
            None => lo,
        }
    }

    /// The first index whose ID is `≥ x` (`n` if none).
    #[inline]
    fn lower_bound(&self, x: Id) -> usize {
        self.bound(x, |id| id < x)
    }

    /// Number of IDs on the ring.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The IDs in increasing order.
    #[inline]
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains(&self, id: Id) -> bool {
        self.index_of(id).is_some()
    }

    /// The index of `id` in sorted order, if present.
    #[inline]
    pub fn index_of(&self, id: Id) -> Option<usize> {
        let i = self.lower_bound(id);
        (i < self.ids.len() && self.ids[i] == id).then_some(i)
    }

    /// The ID at sorted index `i`.
    #[inline]
    pub fn at(&self, i: usize) -> Id {
        self.ids[i]
    }

    /// `suc(x)`: the first ID at or clockwise of `x` (inclusive — an ID
    /// sitting exactly on `x` is its own successor, matching the paper's
    /// "first ID encountered by moving clockwise from x").
    ///
    /// # Panics
    /// Panics if the ring is empty.
    #[inline]
    pub fn successor(&self, x: Id) -> Id {
        self.ids[self.successor_index(x)]
    }

    /// Index of `suc(x)` in the sorted order.
    #[inline]
    pub fn successor_index(&self, x: Id) -> usize {
        assert!(!self.ids.is_empty(), "successor query on empty ring");
        let i = self.lower_bound(x);
        if i == self.ids.len() {
            0 // wrap past the top of the ring
        } else {
            i
        }
    }

    /// Index of the ID whose *covering segment* `[id, next)` contains `x` —
    /// i.e. the predecessor of `x`, inclusive at `x` itself. This is the
    /// node that "covers" a continuous point in the continuous-discrete
    /// constructions (\[19\], \[39\]).
    ///
    /// # Panics
    /// Panics if the ring is empty.
    #[inline]
    pub fn covering_index(&self, x: Id) -> usize {
        assert!(!self.ids.is_empty(), "covering query on empty ring");
        // The first index whose ID is `> x`, less one.
        match self.bound(x, |id| id <= x) {
            0 => self.ids.len() - 1, // wraps below the lowest ID
            i => i - 1,
        }
    }

    /// The ID covering `x`: `pred(x)` inclusive at `x`.
    #[inline]
    pub fn covering(&self, x: Id) -> Id {
        self.ids[self.covering_index(x)]
    }

    /// The first ID strictly counter-clockwise of `x` (exclusive).
    ///
    /// # Panics
    /// Panics if the ring is empty.
    pub fn predecessor(&self, x: Id) -> Id {
        assert!(!self.ids.is_empty(), "predecessor query on empty ring");
        let i = self.lower_bound(x);
        if i == 0 {
            self.ids[self.ids.len() - 1]
        } else {
            self.ids[i - 1]
        }
    }

    /// The segment owned by the ID at index `i`: the arc `[id_i, id_{i+1})`
    /// — i.e. the set of keys whose successor is... the *next* ID. Note:
    /// under the successor rule, the keys owned by ID `u` are the arc
    /// `(pred(u), u]`; this method instead reports the gap that *starts* at
    /// `id_i`, which is what the continuous-discrete constructions use as a
    /// node's covering segment.
    pub fn segment_after(&self, i: usize) -> RingInterval {
        let a = self.ids[i];
        let b = self.ids[(i + 1) % self.ids.len()];
        if self.ids.len() == 1 {
            RingInterval::full(a)
        } else {
            RingInterval::between(a, b)
        }
    }

    /// The keys for which the ID at index `i` is responsible under the
    /// successor rule: the arc `(pred, id_i]`, reported as the half-open
    /// interval `[pred + ulp, id_i + ulp)`.
    pub fn responsibility_of(&self, i: usize) -> RingInterval {
        let me = self.ids[i];
        if self.ids.len() == 1 {
            return RingInterval::full(me);
        }
        let pred = self.ids[(i + self.ids.len() - 1) % self.ids.len()];
        RingInterval::between(pred.add(RingDistance(1)), me.add(RingDistance(1)))
    }

    /// The indices of all IDs whose value lies in the interval (in
    /// clockwise order from the interval start).
    pub fn indices_in(&self, interval: &RingInterval) -> Vec<usize> {
        if self.ids.is_empty() || interval.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let start_idx = self.successor_index(interval.start());
        for k in 0..self.ids.len() {
            let i = (start_idx + k) % self.ids.len();
            if interval.contains(self.ids[i]) {
                out.push(i);
            } else {
                break;
            }
        }
        out
    }

    /// The clockwise gap from each ID to the next, paired with the ID.
    /// The maximal gap bounds the load imbalance (property P2).
    pub fn gaps(&self) -> impl Iterator<Item = (Id, RingDistance)> + '_ {
        let n = self.ids.len();
        (0..n).map(move |i| {
            let a = self.ids[i];
            let b = self.ids[(i + 1) % n];
            (a, a.distance_cw(b))
        })
    }

    /// The maximum fraction of the key space owned by any single ID
    /// (property P2's `(1+δ'')/N` bound is checked against this).
    pub fn max_load_fraction(&self) -> f64 {
        self.gaps().map(|(_, g)| g.as_f64()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(points: &[f64]) -> SortedRing {
        SortedRing::new(points.iter().map(|&p| Id::from_f64(p)).collect())
    }

    #[test]
    fn successor_basics() {
        let r = ring(&[0.1, 0.4, 0.7]);
        assert_eq!(r.successor(Id::from_f64(0.2)), Id::from_f64(0.4));
        assert_eq!(r.successor(Id::from_f64(0.4)), Id::from_f64(0.4), "inclusive");
        assert_eq!(r.successor(Id::from_f64(0.8)), Id::from_f64(0.1), "wraps");
        assert_eq!(r.successor(Id::ZERO), Id::from_f64(0.1));
    }

    #[test]
    fn predecessor_basics() {
        let r = ring(&[0.1, 0.4, 0.7]);
        assert_eq!(r.predecessor(Id::from_f64(0.2)), Id::from_f64(0.1));
        assert_eq!(r.predecessor(Id::from_f64(0.4)), Id::from_f64(0.1), "exclusive");
        assert_eq!(r.predecessor(Id::from_f64(0.05)), Id::from_f64(0.7), "wraps");
    }

    #[test]
    fn covering_basics() {
        let r = ring(&[0.1, 0.4, 0.7]);
        assert_eq!(r.covering(Id::from_f64(0.2)), Id::from_f64(0.1));
        assert_eq!(r.covering(Id::from_f64(0.4)), Id::from_f64(0.4), "inclusive");
        assert_eq!(r.covering(Id::from_f64(0.05)), Id::from_f64(0.7), "wraps");
        assert_eq!(r.covering(Id::from_f64(0.99)), Id::from_f64(0.7));
        // Consistency: covering segment of the covering node contains x.
        for probe in [0.0, 0.1, 0.3, 0.4, 0.69, 0.7, 0.9] {
            let x = Id::from_f64(probe);
            let i = r.covering_index(x);
            assert!(r.segment_after(i).contains(x), "probe {probe}");
        }
    }

    #[test]
    fn dedup_on_build() {
        let r = ring(&[0.5, 0.5, 0.2]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ids_in_interval() {
        let r = ring(&[0.1, 0.4, 0.7, 0.9]);
        let got = r.indices_in(&RingInterval::between(Id::from_f64(0.35), Id::from_f64(0.75)));
        assert_eq!(got, vec![1, 2]);
        // Wrapping interval.
        let got = r.indices_in(&RingInterval::between(Id::from_f64(0.85), Id::from_f64(0.2)));
        assert_eq!(got, vec![3, 0]);
    }

    #[test]
    fn responsibility_partitions_ring() {
        let r = ring(&[0.1, 0.4, 0.7]);
        // Each key's successor owns it.
        for probe in [0.0, 0.1, 0.15, 0.39999, 0.4, 0.55, 0.7, 0.95] {
            let key = Id::from_f64(probe);
            let owner = r.successor(key);
            let idx = r.index_of(owner).unwrap();
            assert!(
                r.responsibility_of(idx).contains(key),
                "key {probe} should be owned by {owner:?}"
            );
        }
    }

    #[test]
    fn gaps_sum_to_full_ring() {
        let r = ring(&[0.05, 0.3, 0.62, 0.8]);
        let total: u128 = r.gaps().map(|(_, g)| g.0 as u128).sum();
        assert_eq!(total, 1u128 << 64);
    }

    #[test]
    fn max_load_fraction_matches_largest_gap() {
        let r = ring(&[0.0, 0.5, 0.6]);
        assert!((r.max_load_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn single_id_owns_everything() {
        let r = ring(&[0.42]);
        assert_eq!(r.successor(Id::from_f64(0.99)), Id::from_f64(0.42));
        assert!(r.responsibility_of(0).contains(Id::from_f64(0.1)));
        assert!(r.responsibility_of(0).contains(Id::from_f64(0.9)));
    }
}
