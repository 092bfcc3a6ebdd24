//! Property-based tests for the ring ID space.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use tg_idspace::{Id, RingDistance, RingInterval, SortedRing};

/// Every point lookup of the ring built from `ids` agrees with a linear
/// scan of the sorted IDs, probed at every ID, every ID ± 1, `0` and
/// `u64::MAX`.
fn lookups_match_scan(ids: &BTreeSet<u64>) -> Result<(), TestCaseError> {
    let ring = SortedRing::new(ids.iter().map(|&v| Id(v)).collect());
    let sorted: Vec<u64> = ids.iter().copied().collect();
    let n = sorted.len();
    let mut probes = vec![0, u64::MAX];
    for &v in &sorted {
        probes.extend([v.wrapping_sub(1), v, v.wrapping_add(1)]);
    }
    for x in probes {
        let at_or_above = sorted.iter().position(|&v| v >= x);
        let at_or_below = sorted.iter().rposition(|&v| v <= x);
        let below = sorted.iter().rposition(|&v| v < x);
        let exact = sorted.iter().position(|&v| v == x);
        prop_assert_eq!(ring.successor_index(Id(x)), at_or_above.unwrap_or(0), "suc {x:#x}");
        prop_assert_eq!(ring.covering_index(Id(x)), at_or_below.unwrap_or(n - 1), "cover {x:#x}");
        prop_assert_eq!(ring.index_of(Id(x)), exact, "index_of {x:#x}");
        prop_assert_eq!(ring.contains(Id(x)), exact.is_some(), "contains {x:#x}");
        prop_assert_eq!(ring.predecessor(Id(x)), Id(sorted[below.unwrap_or(n - 1)]), "pred {x:#x}");
    }
    Ok(())
}

proptest! {
    /// Clockwise and counter-clockwise distances sum to a full turn for
    /// distinct points.
    #[test]
    fn cw_ccw_distances_complement(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let (a, b) = (Id(a), Id(b));
        let cw = a.distance_cw(b).0 as u128;
        let ccw = b.distance_cw(a).0 as u128;
        prop_assert_eq!(cw + ccw, 1u128 << 64);
    }

    /// add/sub by the same distance is the identity.
    #[test]
    fn add_sub_inverse(a in any::<u64>(), d in any::<u64>()) {
        let id = Id(a);
        let dist = RingDistance(d);
        prop_assert_eq!(id.add(dist).sub(dist), id);
        prop_assert_eq!(id.sub(dist).add(dist), id);
    }

    /// distance is translation-invariant.
    #[test]
    fn distance_translation_invariant(a in any::<u64>(), b in any::<u64>(), t in any::<u64>()) {
        let (a, b, t) = (Id(a), Id(b), RingDistance(t));
        prop_assert_eq!(a.distance_cw(b), a.add(t).distance_cw(b.add(t)));
    }

    /// half_left and half_right are the two preimages of doubling.
    #[test]
    fn halving_are_doubling_preimages(a in any::<u64>()) {
        let x = Id(a);
        // Doubling loses the top bit; halving loses the bottom bit. The
        // composition double∘half recovers x up to its lowest bit.
        prop_assert_eq!(x.half_left().double().0, x.0 & !1);
        prop_assert_eq!(x.half_right().double().0, x.0 & !1);
    }

    /// The successor of any point is on the ring, and no ID lies strictly
    /// between the point and its successor.
    #[test]
    fn successor_is_nearest_clockwise(
        ids in prop::collection::btree_set(any::<u64>(), 1..200),
        probe in any::<u64>(),
    ) {
        let ring = SortedRing::new(ids.iter().map(|&v| Id(v)).collect());
        let probe = Id(probe);
        let suc = ring.successor(probe);
        prop_assert!(ring.contains(suc));
        let d = probe.distance_cw(suc);
        for &v in &ids {
            let dv = probe.distance_cw(Id(v));
            prop_assert!(dv >= d, "ID {v} is closer clockwise than the successor");
        }
    }

    /// Responsibility intervals partition the ring: every probe key is
    /// owned by exactly one ID, and that ID is its successor.
    #[test]
    fn responsibilities_partition(
        ids in prop::collection::btree_set(any::<u64>(), 2..100),
        probe in any::<u64>(),
    ) {
        let ring = SortedRing::new(ids.iter().map(|&v| Id(v)).collect());
        let probe = Id(probe);
        let owners: Vec<usize> = (0..ring.len())
            .filter(|&i| ring.responsibility_of(i).contains(probe))
            .collect();
        prop_assert_eq!(owners.len(), 1, "exactly one owner per key");
        prop_assert_eq!(ring.at(owners[0]), ring.successor(probe));
    }

    /// Interval intersection is symmetric.
    #[test]
    fn interval_intersection_symmetric(
        a in any::<u64>(), la in 1u64.., b in any::<u64>(), lb in 1u64..,
    ) {
        let i1 = RingInterval::new(Id(a), RingDistance(la));
        let i2 = RingInterval::new(Id(b), RingDistance(lb));
        prop_assert_eq!(i1.intersects(&i2), i2.intersects(&i1));
    }

    /// Membership in an interval is equivalent to membership in either
    /// half after splitting at the midpoint.
    #[test]
    fn interval_split_preserves_membership(
        start in any::<u64>(), len in 2u64.., x in any::<u64>(),
    ) {
        let iv = RingInterval::new(Id(start), RingDistance(len));
        let mid = Id(start).add(RingDistance(len / 2));
        let left = RingInterval::between(Id(start), mid);
        let right = RingInterval::between(mid, iv.end());
        let x = Id(x);
        prop_assert_eq!(iv.contains(x), left.contains(x) || right.contains(x));
    }

    /// Gaps of a ring always sum to exactly one full turn.
    #[test]
    fn gaps_sum_to_full_turn(ids in prop::collection::btree_set(any::<u64>(), 2..300)) {
        let ring = SortedRing::new(ids.into_iter().map(Id).collect());
        let total: u128 = ring.gaps().map(|(_, g)| g.0 as u128).sum();
        prop_assert_eq!(total, 1u128 << 64);
    }

    /// The directory-backed lookups equal a linear scan on u.a.r. rings.
    #[test]
    fn lookups_match_scan_on_uniform_rings(
        ids in prop::collection::btree_set(any::<u64>(), 1..300),
    ) {
        lookups_match_scan(&ids)?;
    }

    /// ... on rings clustered inside one directory bucket (`b = ⌊log2 n⌋ + 2`
    /// top bits shared by every ID), where the lookup is a plain binary
    /// search over the whole ring.
    #[test]
    fn lookups_match_scan_inside_one_bucket(
        raw in prop::collection::vec(any::<u64>(), 2..300),
        bucket in any::<u64>(),
    ) {
        // Deduplication can only shrink `n`, hence `b`, and an aligned
        // bucket of the requested width stays inside one of any wider one.
        let bits = raw.len().ilog2() + 2;
        let low = u64::MAX >> bits;
        let ids: BTreeSet<u64> = raw.iter().map(|&v| (bucket & !low) | (v & low)).collect();
        lookups_match_scan(&ids)?;
    }

    /// ... on rings where one bucket holds exactly the one ID a lookup
    /// compares without a search, or two (the fewest it binary-searches),
    /// among u.a.r. IDs in the other buckets.
    #[test]
    fn lookups_match_scan_at_the_search_limit(
        in_bucket in 1usize..=2,
        raw in prop::collection::vec(any::<u64>(), 2..300),
        bucket in any::<u64>(),
    ) {
        let n = raw.len();
        let low = u64::MAX >> (n.ilog2() + 2);
        let (inside, outside) = raw.split_at(in_bucket);
        // Flipping the top bit moves an outside ID out of the bucket.
        let ids: BTreeSet<u64> = inside
            .iter()
            .map(|&v| (bucket & !low) | (v & low))
            .chain(outside.iter().map(|&v| if (v ^ bucket) & !low == 0 { v ^ 1 << 63 } else { v }))
            .collect();
        // A collision would shrink `n`, and with it the bucket width.
        prop_assume!(ids.len() == n);
        lookups_match_scan(&ids)?;
    }

    /// ... on rings holding both ends of the ID space, `0` and `u64::MAX`.
    #[test]
    fn lookups_match_scan_with_both_ends(
        ids in prop::collection::btree_set(any::<u64>(), 0..100),
    ) {
        let mut ids = ids;
        ids.extend([0, u64::MAX]);
        lookups_match_scan(&ids)?;
    }

    /// ... on one-ID rings.
    #[test]
    fn lookups_match_scan_on_single_id_rings(id in any::<u64>()) {
        lookups_match_scan(&BTreeSet::from([id]))?;
    }
}
