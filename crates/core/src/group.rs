//! A group's classification, as functions of the two counts the group
//! graph reads off a group's columns: its live size (live members plus
//! captured slots) and its live bad count (captured slots included).
//! [`crate::graph::GroupGraphView`] computes both and applies these
//! tests; they are written nowhere else.

use crate::params::Params;

/// **The operational test**: strictly more live good members than
/// live bad ones. This is what makes majority filtering and in-group
/// agreement correct; an empty group trivially fails.
pub fn has_good_majority(size: usize, bad: usize) -> bool {
    size > 0 && 2 * bad < size
}

/// **The paper's §I-C good-group invariant** for a group of `size` live
/// members, `bad` of them bad, among `n` IDs: size within
/// `[d1·ln ln n, d2·ln ln n]` and at most `(1+δ)β|G|` bad members.
/// Stricter than a good majority; the gap is the allowance the analysis
/// spends on intra-epoch churn.
pub fn meets_paper_invariant(size: usize, bad: usize, params: &Params, n: usize) -> bool {
    if size < params.min_good_size(n) || size > params.draws(n) + 1 {
        return false;
    }
    (bad as f64) <= params.max_bad_members(size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GroupColumns, GroupGraph, GroupGraphView};
    use crate::population::Population;
    use tg_idspace::Id;
    use tg_overlay::GraphKind;

    /// A pool where indices `bad_set` are Byzantine.
    fn pool(n: usize, bad_set: &[usize]) -> Population {
        let ids: Vec<Id> = (0..n).map(|i| Id::from_f64((i as f64 + 0.5) / n as f64)).collect();
        let good: Vec<Id> =
            ids.iter().enumerate().filter(|(i, _)| !bad_set.contains(i)).map(|(_, &x)| x).collect();
        let bad: Vec<Id> =
            ids.iter().enumerate().filter(|(i, _)| bad_set.contains(i)).map(|(_, &x)| x).collect();
        Population::new(good, bad)
    }

    /// A graph over `pool` whose group 0 has the raw draws `members` and
    /// `captured` captured slots; every other group is empty.
    fn group0(pool: &Population, mut members: Vec<u32>, captured: u32) -> GroupGraph {
        let mut side = GroupColumns::with_capacity(pool.len(), members.len());
        side.push(&mut members, captured, false);
        for _ in 1..pool.len() {
            side.push(&mut Vec::new(), 0, false);
        }
        let topology = GraphKind::Chord.build(pool.ring().clone());
        GroupGraph::from_sides(pool.clone(), pool.clone(), topology, vec![side])
    }

    /// Group 0's (live size, live bad count).
    fn counts(g: &GroupGraph) -> (usize, usize) {
        (g.group_size(0), g.group_bad_count(0))
    }

    #[test]
    fn dedup_members() {
        let g = group0(&pool(4, &[]), vec![3, 1, 3, 2, 1], 0);
        assert_eq!(g.group_members(0), &[1, 2, 3]);
    }

    #[test]
    fn majority_counting() {
        let p = pool(10, &[0, 1]);
        // 2 bad (0, 1) + 3 good (2, 3, 4): good majority.
        let g = group0(&p, vec![0, 1, 2, 3, 4], 0);
        assert_eq!(counts(&g), (5, 2));
        assert!(g.has_good_majority(0));
        // Adding a captured slot makes it 3 bad vs 3 good: no majority.
        let g2 = group0(&p, vec![0, 1, 2, 3, 4], 1);
        assert_eq!(counts(&g2), (6, 3));
        assert!(!g2.has_good_majority(0));
    }

    #[test]
    fn departures_shift_majority() {
        let mut g = group0(&pool(10, &[0, 1]), vec![0, 1, 2, 3, 4], 0);
        assert!(g.has_good_majority(0));
        // Two good members depart: 2 bad vs 1 good.
        g.pool.mark_departed(2);
        g.pool.mark_departed(3);
        assert_eq!(counts(&g), (3, 2));
        assert!(!g.has_good_majority(0));
    }

    #[test]
    fn empty_group_has_no_majority() {
        let g = group0(&pool(4, &[]), vec![], 0);
        assert_eq!(counts(&g), (0, 0));
        assert!(!g.has_good_majority(0));
    }

    #[test]
    fn paper_invariant_is_stricter_than_majority() {
        let params = Params::paper_defaults();
        let n = 1 << 14; // draws ≈ 10, min size ≈ 4
        let p = pool(20, &[0, 1, 2]);
        // 3 bad of 9: has a good majority but violates (1+δ)β·9 ≈ 0.56.
        let (size, bad) = counts(&group0(&p, (0..9).collect(), 0));
        assert!(has_good_majority(size, bad));
        assert!(!meets_paper_invariant(size, bad, &params, n));
        // 9 good members: meets both.
        let (size, bad) = counts(&group0(&p, (3..12).collect(), 0));
        assert!(has_good_majority(size, bad));
        assert!(meets_paper_invariant(size, bad, &params, n));
    }

    #[test]
    fn undersized_group_violates_invariant() {
        let params = Params::paper_defaults();
        let n = 1 << 14;
        let (size, bad) = counts(&group0(&pool(20, &[]), vec![1], 0));
        assert!(has_good_majority(size, bad), "a single good member is a majority");
        assert!(!meets_paper_invariant(size, bad, &params, n), "but the size is out of range");
    }
}
