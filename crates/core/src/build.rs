//! Building group graphs by hashing (§III-A, applied statically).
//!
//! The member rule: the `i`-th member of `G_w` is `suc(h(w, i))` for
//! `i = 1..d2·ln ln n`. Under the random-oracle assumption the points
//! `h(w, i)` are u.a.r., so each draw lands on a bad ID with probability
//! `≈ β` (Lemma 6) and group goodness follows from concentration.
//!
//! This module builds *initial* graphs (`G⁰₁, G⁰₂`), where leaders and
//! member pool are the same generation and neighbor sets are correct by
//! construction — exactly the paper's Appendix X assumption that the
//! system starts from a correctly initialized state (e.g. via the
//! heavyweight one-shot procedure of \[21\]). Epoch-by-epoch construction
//! through searches in old graphs lives in [`crate::dynamic`].

use crate::graph::{GroupColumns, GroupGraph};
use crate::params::Params;
use crate::population::Population;
use tg_crypto::Oracle;
use tg_overlay::GraphKind;

/// Build an initial (trusted-bootstrap) group graph: leaders = pool,
/// membership via `suc(oracle(w, i))`, neighbor sets correct.
pub fn build_initial_graph(
    pop: Population,
    kind: GraphKind,
    oracle: Oracle,
    params: &Params,
) -> GroupGraph {
    build_genesis(pop, kind, &[oracle], params)
}

/// The trusted-bootstrap graphs over `pop`, one side per oracle — the
/// genesis rule behind [`build_initial_graph`] (one side) and the epoch
/// system's `G⁰₁, G⁰₂` ([`crate::dynamic::DynamicSystem::new`]).
pub(crate) fn build_genesis(
    pop: Population,
    kind: GraphKind,
    oracles: &[Oracle],
    params: &Params,
) -> GroupGraph {
    let n = pop.len();
    let draws = params.draws(n);
    let ring = pop.ring();
    let sides = oracles
        .iter()
        .map(|oracle| {
            let mut side = GroupColumns::with_capacity(n, n * (draws + 1));
            let mut members = Vec::with_capacity(draws + 1);
            for w in 0..n {
                let wid = ring.at(w);
                // The leader belongs to its own group ("each ID w has its
                // own group G_w"; §I-C) — here leaders and pool share a ring.
                members.clear();
                members.push(w as u32);
                for i in 0..draws {
                    let p = oracle.hash_id_index(wid, i as u32);
                    members.push(ring.successor_index(p) as u32);
                }
                side.push(&mut members, 0, false);
            }
            side
        })
        .collect();
    let topology = kind.build(ring.clone());
    GroupGraph::from_sides(pop.clone(), pop, topology, sides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GroupGraphView;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;

    fn build(n_good: usize, n_bad: usize, seed: u64) -> (GroupGraph, Params) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        let params = Params::paper_defaults();
        let fam = OracleFamily::new(seed);
        (build_initial_graph(pop, GraphKind::Chord, fam.h1, &params), params)
    }

    /// Every group's member column.
    fn columns(gg: &GroupGraph) -> Vec<&[u32]> {
        (0..gg.len()).map(|i| gg.group_members(i)).collect()
    }

    #[test]
    fn one_group_per_id() {
        let (gg, _) = build(500, 25, 1);
        assert_eq!(gg.len(), 525);
        for (i, members) in columns(&gg).into_iter().enumerate() {
            assert!(members.contains(&(i as u32)), "leader belongs to its group");
        }
    }

    #[test]
    fn group_sizes_near_draws() {
        let (gg, params) = build(2000, 100, 2);
        let draws = params.draws(gg.len());
        let mean = gg.mean_group_size();
        // Dedup and the leader slot put size in [draws/2, draws+1] here.
        assert!(
            mean > draws as f64 * 0.8 && mean <= draws as f64 + 1.0,
            "mean size {mean:.1} vs draws {draws}"
        );
    }

    #[test]
    fn membership_is_deterministic() {
        let (g1, _) = build(300, 15, 3);
        let (g2, _) = build(300, 15, 3);
        assert_eq!(columns(&g1), columns(&g2));
    }

    #[test]
    fn different_oracles_give_different_groups() {
        let mut rng = StdRng::seed_from_u64(4);
        let pop = Population::uniform(300, 15, &mut rng);
        let params = Params::paper_defaults();
        let fam = OracleFamily::new(4);
        let a = build_initial_graph(pop.clone(), GraphKind::Chord, fam.h1, &params);
        let b = build_initial_graph(pop, GraphKind::Chord, fam.h2, &params);
        assert_ne!(columns(&a), columns(&b), "h1 and h2 must induce different memberships");
    }

    #[test]
    fn bad_fraction_in_groups_tracks_beta() {
        let (gg, _) = build(4000, 200, 5); // β ≈ 0.048
        let bad: usize = (0..gg.len()).map(|i| gg.group_bad_count(i)).sum();
        let total: usize = (0..gg.len()).map(|i| gg.group_size(i)).sum();
        let frac = bad as f64 / total as f64;
        assert!((0.02..0.09).contains(&frac), "member bad fraction {frac:.3} vs β≈0.048");
    }

    #[test]
    fn most_groups_have_good_majority_at_small_beta() {
        let (gg, _) = build(4000, 200, 6);
        assert!(
            gg.frac_good_majority() > 0.99,
            "β=0.048 with ~11 members: ≥99% good majorities, got {:.4}",
            gg.frac_good_majority()
        );
        assert!(gg.frac_red() < 0.01);
    }
}
