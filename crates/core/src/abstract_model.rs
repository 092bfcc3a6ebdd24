//! The idealized S1–S3 model of §II-A, for validating Lemmas 1–4
//! directly.
//!
//! In the abstract model each group is red **independently** with
//! probability `pf` (S2); everything else about membership is abstracted
//! away. Lemma 2/3 then say the failure probability `X` of a random
//! search is `O(pf · log^c n)` w.h.p. — the congestion bound `C` of the
//! input graph (P4) converts a red *fraction* into a failed-search
//! *fraction* with only a `log^c n` blow-up. No experiment calls this
//! module yet; ROADMAP item 9 names the use it is kept for (the null
//! hypothesis against which correlated red groups are measured).

use rand::rngs::StdRng;
use rand::Rng;
use tg_idspace::Id;
use tg_overlay::InputGraph;

/// A group graph in the abstract S1–S3 sense: a topology plus an i.i.d.
/// red marking.
pub struct AbstractGroupGraph {
    topology: Box<dyn InputGraph>,
    red: Vec<bool>,
    pf: f64,
}

impl AbstractGroupGraph {
    /// Mark each group red independently with probability `pf`.
    pub fn new(topology: Box<dyn InputGraph>, pf: f64, rng: &mut StdRng) -> Self {
        assert!((0.0..=1.0).contains(&pf), "pf out of range");
        let n = topology.ring().len();
        let red = (0..n).map(|_| rng.gen::<f64>() < pf).collect();
        AbstractGroupGraph { topology, red, pf }
    }

    /// The configured red probability.
    pub fn pf(&self) -> f64 {
        self.pf
    }

    /// The realized red fraction.
    pub fn frac_red(&self) -> f64 {
        self.red.iter().filter(|&&r| r).count() as f64 / self.red.len().max(1) as f64
    }

    /// Whether a search from `from` (ring index) for `key` fails — i.e.
    /// its search path meets a red group.
    pub fn search_fails(&self, from: usize, key: Id) -> bool {
        self.topology.route(from, key).hops.iter().any(|&h| self.red[h])
    }

    /// Estimate `X`: the probability that a search from a random group
    /// for a random key fails (the Lemma 2/3 quantity).
    pub fn measure_failure_prob(&self, samples: usize, rng: &mut StdRng) -> f64 {
        let n = self.topology.ring().len();
        let mut fails = 0usize;
        for _ in 0..samples {
            let from = rng.gen_range(0..n);
            let key = Id(rng.gen());
            if self.search_fails(from, key) {
                fails += 1;
            }
        }
        fails as f64 / samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tg_idspace::SortedRing;
    use tg_overlay::GraphKind;

    fn random_ring(n: usize, seed: u64) -> SortedRing {
        let mut rng = StdRng::seed_from_u64(seed);
        SortedRing::new((0..n).map(|_| Id(rng.gen())).collect())
    }

    #[test]
    fn zero_pf_never_fails() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = AbstractGroupGraph::new(GraphKind::Chord.build(random_ring(256, 1)), 0.0, &mut rng);
        assert_eq!(g.measure_failure_prob(200, &mut rng), 0.0);
    }

    #[test]
    fn full_pf_always_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = AbstractGroupGraph::new(GraphKind::Chord.build(random_ring(256, 2)), 1.0, &mut rng);
        assert_eq!(g.measure_failure_prob(200, &mut rng), 1.0);
    }

    /// Lemma 2/3 shape: X ≈ pf × (mean path length) for small pf — well
    /// below the naive union bound over all groups and within the
    /// O(pf·log^c n) envelope.
    #[test]
    fn failure_prob_tracks_pf_times_pathlen() {
        let n = 2048;
        let mut rng = StdRng::seed_from_u64(3);
        for &pf in &[0.005, 0.02] {
            let g =
                AbstractGroupGraph::new(GraphKind::Chord.build(random_ring(n, 3)), pf, &mut rng);
            let x = g.measure_failure_prob(4000, &mut rng);
            // Mean Chord path ≈ (1/2)log2 n + 1 ≈ 6.5 groups.
            let predict = pf * 7.0;
            assert!(
                x > 0.3 * predict && x < 3.0 * predict,
                "pf={pf}: X={x:.4} vs predicted ~{predict:.4}"
            );
            // And the Lemma-4 envelope with c = 1 (Chord).
            let envelope = 4.0 * pf * (n as f64).ln();
            assert!(x <= envelope, "pf={pf}: X={x:.4} beyond envelope {envelope:.4}");
        }
    }

    /// E[X] scales linearly in pf (doubling pf roughly doubles it) — the
    /// linearity at the heart of Lemma 2. A single red-marking draw has
    /// high variance at this n (which groups go red matters), so average
    /// over independent markings to estimate the expectation.
    #[test]
    fn failure_prob_is_linear_in_pf() {
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(4);
        let mean_x = |pf: f64, rng: &mut StdRng| {
            let trials = 12;
            (0..trials)
                .map(|_| {
                    AbstractGroupGraph::new(GraphKind::Chord.build(random_ring(n, 5)), pf, rng)
                        .measure_failure_prob(1500, rng)
                })
                .sum::<f64>()
                / trials as f64
        };
        let x1 = mean_x(0.01, &mut rng);
        let x2 = mean_x(0.02, &mut rng);
        let ratio = x2 / x1.max(1e-9);
        assert!((1.5..2.6).contains(&ratio), "E[X](2pf)/E[X](pf) = {ratio:.2}, expected ≈2");
    }
}
