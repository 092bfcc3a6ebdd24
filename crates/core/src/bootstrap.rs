//! Bootstrapping groups (Appendix IX).
//!
//! A joining ID needs a good group to perform searches on its behalf
//! (§III-A). Prior work hands joiners `O(log n)` members of one
//! `Θ(log n)`-size group; with tiny groups no single group is large
//! enough to be trustworthy on its own w.h.p. — the paper's fix is to
//! contact `O(log n / log log n)` groups chosen u.a.r. and pool their
//! members: the union holds `O(log n)` IDs and, since each member slot is
//! (close to) an independent `β`-biased draw, the *union* has a good
//! majority w.h.p. even though a `1/poly log n` fraction of the
//! constituent groups may individually be bad.
//!
//! The paper notes the cost footprint: with `O(1)`-degree input graphs
//! this lifts a joiner's transient state to `O(log n)`; with `O(log n)`-
//! degree graphs it disappears in the noise.

use crate::graph::GroupGraphView;
use rand::rngs::StdRng;
use rand::Rng;

/// A pooled bootstrap group assembled from several tiny groups.
#[derive(Clone, Debug)]
pub struct BootstrapGroup {
    /// Leader-ring indices of the groups contacted.
    pub contacted: Vec<usize>,
    /// Pool ring indices of the union of their live members.
    pub members: Vec<u32>,
    /// Live bad members in the union.
    pub bad_members: usize,
}

impl BootstrapGroup {
    /// Whether the pooled membership has a strict good majority — the
    /// property that makes it safe to route joins through it.
    pub fn has_good_majority(&self) -> bool {
        !self.members.is_empty() && 2 * self.bad_members < self.members.len()
    }

    /// Transient state the joiner must hold: one link per pooled member.
    pub fn state_cost(&self) -> usize {
        self.members.len()
    }
}

/// The paper's recommended number of groups to contact:
/// `⌈ln n / ln ln n⌉`.
pub fn recommended_contacts(n: usize) -> usize {
    let ln_n = (n.max(16) as f64).ln();
    (ln_n / ln_n.ln()).ceil() as usize
}

/// Assemble a bootstrap group by pooling `k` groups chosen u.a.r.
pub fn assemble_bootstrap<G: GroupGraphView>(gg: &G, k: usize, rng: &mut StdRng) -> BootstrapGroup {
    assert!(k >= 1, "must contact at least one group");
    let mut contacted = Vec::with_capacity(k);
    let mut members: Vec<u32> = Vec::new();
    for _ in 0..k {
        let gi = rng.gen_range(0..gg.len());
        contacted.push(gi);
        members.extend(gg.live_members(gi).map(|m| m as u32));
    }
    members.sort_unstable();
    members.dedup();
    let bad_members = members.iter().filter(|&&m| gg.pool().is_bad(m as usize)).count();
    BootstrapGroup { contacted, members, bad_members }
}

/// Empirical failure probability of the pooling strategy: fraction of
/// `trials` assembled bootstraps lacking a good majority.
pub fn measure_bootstrap_failure<G: GroupGraphView>(
    gg: &G,
    k: usize,
    trials: usize,
    rng: &mut StdRng,
) -> f64 {
    let failures =
        (0..trials).filter(|_| !assemble_bootstrap(gg, k, rng).has_good_majority()).count();
    failures as f64 / trials.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::graph::GroupGraph;
    use crate::params::Params;
    use crate::population::Population;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn graph(n_good: usize, n_bad: usize, seed: u64) -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        build_initial_graph(
            pop,
            GraphKind::Chord,
            OracleFamily::new(seed).h1,
            &Params::paper_defaults(),
        )
    }

    #[test]
    fn recommended_contacts_scale() {
        // ln n / ln ln n: slow growth.
        assert_eq!(recommended_contacts(1 << 10), 4);
        let big = recommended_contacts(1 << 20);
        assert!((5..=8).contains(&big), "2^20 → {big}");
    }

    #[test]
    fn pooled_bootstrap_has_good_majority_whp() {
        let gg = graph(1900, 100, 1); // β = 5%
        let k = recommended_contacts(gg.len());
        let mut rng = StdRng::seed_from_u64(2);
        let fail = measure_bootstrap_failure(&gg, k, 500, &mut rng);
        assert_eq!(fail, 0.0, "pooling {k} groups at β=5% must essentially never fail");
    }

    #[test]
    fn pooling_beats_single_group_at_high_beta() {
        // Crank β to 0.25 so single tiny groups fail noticeably; pooling
        // must still reduce the failure rate substantially.
        let gg = graph(1500, 500, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let single = measure_bootstrap_failure(&gg, 1, 800, &mut rng);
        let pooled = measure_bootstrap_failure(&gg, 6, 800, &mut rng);
        assert!(single > 0.01, "single tiny groups fail sometimes at β=25%: {single:.4}");
        assert!(
            pooled < single / 2.0,
            "pooling must help: single {single:.4} vs pooled {pooled:.4}"
        );
    }

    #[test]
    fn failure_decreases_monotonically_in_k() {
        let gg = graph(1200, 300, 5); // β = 20%
        let mut rng = StdRng::seed_from_u64(6);
        let rates: Vec<f64> = [1usize, 3, 8]
            .iter()
            .map(|&k| measure_bootstrap_failure(&gg, k, 600, &mut rng))
            .collect();
        assert!(rates[0] >= rates[1] && rates[1] >= rates[2], "rates {rates:?}");
    }

    #[test]
    fn state_cost_is_logarithmic() {
        let gg = graph(1900, 100, 7);
        let k = recommended_contacts(gg.len());
        let mut rng = StdRng::seed_from_u64(8);
        let boot = assemble_bootstrap(&gg, k, &mut rng);
        let ln_n = (gg.len() as f64).ln();
        assert!(
            (boot.state_cost() as f64) < 8.0 * ln_n,
            "state {} vs O(ln n) = {:.0}",
            boot.state_cost(),
            ln_n
        );
        assert!(boot.state_cost() >= k, "at least one member per contacted group");
    }

    #[test]
    fn departed_members_are_not_pooled() {
        let mut gg = graph(400, 20, 9);
        let mut rng = StdRng::seed_from_u64(10);
        gg.pool.depart_good_fraction(0.5, &mut rng);
        let boot = assemble_bootstrap(&gg, 4, &mut rng);
        for &m in &boot.members {
            assert!(gg.pool.is_live(m as usize));
        }
    }
}
