//! Measuring ε-robustness (§I-A, Theorem 3).
//!
//! The definition: at least `(1−ε)n` groups have a non-faulty majority
//! and can securely route to each other. We report:
//!
//! * the good-group fractions (both the operational good-majority count
//!   and the paper's stricter §I-C invariant),
//! * the red fraction (bad ∪ confused — the S2 quantity `pf`),
//! * the empirical search success rate from random groups to random keys
//!   (Theorem 3's second bullet / Lemma 4),
//! * per-search cost (hops, messages — Corollary 1),
//! * the maximum *responsibility* `ρ(G_v)` over groups: the probability a
//!   random search path traverses `G_v` (Lemma 1 bounds this by
//!   `O(log^c n / n)`).

use crate::dynamic::kernel::scheduled_map;
use crate::graph::GroupGraphView;
use crate::params::Params;
use crate::routing::{walk_route, with_route, SearchOutcome};
use rand::rngs::StdRng;
use rand::Rng;
use tg_idspace::Id;
use tg_sim::Metrics;

/// Robustness measurements for one group graph.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessReport {
    /// Number of groups.
    pub n: usize,
    /// Fraction of red groups (`pf` realization).
    pub frac_red: f64,
    /// Fraction with good majority (operational Theorem 3 bullet 1).
    pub frac_good_majority: f64,
    /// Fraction meeting the §I-C invariant.
    pub frac_paper_invariant: f64,
    /// Fraction of sampled searches that succeeded (Theorem 3 bullet 2).
    pub search_success: f64,
    /// Mean traversed groups per successful search.
    pub mean_hops: f64,
    /// Mean messages per search (all-to-all accounting).
    pub mean_msgs: f64,
    /// Max over groups of the empirical traversal probability (Lemma 1).
    pub max_responsibility: f64,
    /// Mean live group size.
    pub mean_group_size: f64,
}

/// Sample `searches` random (initiator, key) pairs and measure. The
/// whole `(from, key)` sample is pre-drawn (searches themselves draw
/// nothing, so this is the RNG sequence a draw-as-you-go loop consumes),
/// the searches are mapped in chunks — fanned out over worker threads
/// on a graph of at least
/// [`FAN_OUT_MIN_IDS`](crate::dynamic::kernel::FAN_OUT_MIN_IDS) groups —
/// and the chunks' sums are folded back. Every quantity is a sum, so
/// the report is bit-identical for any thread count.
pub fn measure_robustness<G: GroupGraphView + Sync>(
    gg: &G,
    params: &Params,
    searches: usize,
    rng: &mut StdRng,
) -> RobustnessReport {
    let sample = draw_sample(gg, searches, rng);
    let chunks: Vec<&[(usize, Id)]> = sample.chunks(SEARCH_CHUNK).collect();
    let per_chunk = scheduled_map(gg.len(), chunks, 1, |chunk| {
        let mut sums = ChunkSums::default();
        for &(from, key) in chunk {
            with_route(gg, from, key, |hops| {
                let out = walk_route(gg, hops, &mut sums.metrics);
                if let SearchOutcome::Success { hops, .. } = out {
                    sums.success += 1;
                    sums.success_hops += hops;
                }
                // The truncated prefix, each group once, is the
                // responsibility count.
                let traversed = &mut hops[..out.hops()];
                traversed.sort_unstable();
                sums.traversed.extend(traversed.chunk_by(|a, b| a == b).map(|run| run[0]));
            });
        }
        sums
    });

    let mut metrics = Metrics::new();
    let mut traversals = vec![0u32; gg.len()];
    let (mut success, mut success_hops) = (0usize, 0usize);
    for sums in &per_chunk {
        metrics.merge(&sums.metrics);
        for &i in &sums.traversed {
            traversals[i] += 1;
        }
        success += sums.success;
        success_hops += sums.success_hops;
    }

    RobustnessReport {
        n: gg.len(),
        frac_red: gg.frac_red(),
        frac_good_majority: gg.frac_good_majority(),
        frac_paper_invariant: gg.frac_paper_invariant(params),
        search_success: success as f64 / searches.max(1) as f64,
        mean_hops: if success > 0 { success_hops as f64 / success as f64 } else { 0.0 },
        mean_msgs: metrics.routing_msgs as f64 / searches.max(1) as f64,
        max_responsibility: traversals.iter().copied().max().unwrap_or(0) as f64
            / searches.max(1) as f64,
        mean_group_size: gg.mean_group_size(),
    }
}

/// Searches per chunk of [`measure_robustness`]'s map.
const SEARCH_CHUNK: usize = 64;

/// One chunk of [`measure_robustness`]'s searches, summed.
#[derive(Default)]
struct ChunkSums {
    metrics: Metrics,
    success: usize,
    success_hops: usize,
    /// The groups each search traversed, each once per search.
    traversed: Vec<usize>,
}

/// Fraction of sampled searches for which at least one of the two sides
/// succeeds (the dual-graph availability the construction exploits).
/// Same pre-draw → map → fold scheme, and the same schedule, as
/// [`measure_robustness`].
pub fn measure_dual_success<G: GroupGraphView + Sync>(
    sides: [&G; 2],
    searches: usize,
    rng: &mut StdRng,
) -> f64 {
    let sample = draw_sample(sides[0], searches, rng);
    let oks = scheduled_map(sides[0].len(), sample, SEARCH_CHUNK, |(from, key)| {
        crate::routing::dual_search(sides, from, key, &mut Metrics::new())
    });
    oks.iter().filter(|&&ok| ok).count() as f64 / searches.max(1) as f64
}

/// `searches` u.a.r. (initiator group, key) pairs.
fn draw_sample<G: GroupGraphView>(gg: &G, searches: usize, rng: &mut StdRng) -> Vec<(usize, Id)> {
    (0..searches).map(|_| (rng.gen_range(0..gg.len()), Id(rng.gen()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::dynamic::kernel::{in_a_worker, FAN_OUT_MIN_IDS};
    use crate::graph::GroupGraph;
    use crate::population::Population;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn graph(n_good: usize, n_bad: usize, seed: u64) -> (GroupGraph, Params) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        let fam = OracleFamily::new(seed);
        let params = Params::paper_defaults();
        (build_initial_graph(pop, GraphKind::Chord, fam.h1, &params), params)
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn clean_system_is_fully_robust() {
        let (gg, params) = graph(512, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let rep = measure_robustness(&gg, &params, 300, &mut rng);
        assert_eq!(rep.frac_red, 0.0);
        assert_eq!(rep.search_success, 1.0);
        assert!(rep.mean_hops > 1.0);
        assert!(rep.mean_msgs > 0.0);
    }

    #[test]
    fn responsibility_is_bounded_by_congestion() {
        let (gg, params) = graph(1024, 50, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let rep = measure_robustness(&gg, &params, 2000, &mut rng);
        // Lemma 1: ρ(G_v) = O(log^c n / n); for Chord c = 1 and the
        // constant is small. ln(1074) ≈ 7 → bound ≈ 8·7/1074 ≈ 0.05.
        let bound = 8.0 * (gg.len() as f64).ln() / gg.len() as f64;
        assert!(
            rep.max_responsibility < bound,
            "max responsibility {:.4} vs bound {:.4}",
            rep.max_responsibility,
            bound
        );
    }

    #[test]
    fn small_beta_keeps_high_success() {
        let (gg, params) = graph(2000, 100, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let rep = measure_robustness(&gg, &params, 500, &mut rng);
        assert!(rep.frac_red < 0.02, "frac red {:.4}", rep.frac_red);
        assert!(rep.search_success > 0.85, "success {:.3}", rep.search_success);
    }

    #[test]
    fn success_degrades_with_beta() {
        let (low, params) = graph(2000, 60, 7); // β ≈ 0.03
        let (high, _) = graph(2000, 500, 7); // β = 0.2
        let mut rng = StdRng::seed_from_u64(8);
        let r_low = measure_robustness(&low, &params, 400, &mut rng);
        let r_high = measure_robustness(&high, &params, 400, &mut rng);
        assert!(
            r_high.search_success < r_low.search_success,
            "more adversary, less success: {:.3} vs {:.3}",
            r_high.search_success,
            r_low.search_success
        );
        assert!(r_high.frac_red > r_low.frac_red);
    }

    /// A measurement on the test thread fans out at
    /// [`FAN_OUT_MIN_IDS`] groups; the same one inside a sweep worker
    /// runs serially (with one CPU both are serial). Both pre-draw the
    /// identical RNG sequence and fold in sample order, so every report
    /// field must match bit for bit.
    #[test]
    fn chunked_measurement_is_bit_identical() {
        let (gg, params) = graph(FAN_OUT_MIN_IDS, 80, 12);
        let single = || format!("{:?}", measure_robustness(&gg, &params, 300, &mut rng(13)));
        assert_eq!(single(), in_a_worker(single));

        let pop = Population::uniform(FAN_OUT_MIN_IDS, 80, &mut rng(14));
        let fam = OracleFamily::new(12);
        let other = build_initial_graph(pop, GraphKind::Chord, fam.h2, &params);
        let dual = || measure_dual_success([&gg, &other], 300, &mut rng(15)).to_bits();
        assert_eq!(dual(), in_a_worker(dual));
    }

    #[test]
    fn dual_success_at_least_single() {
        let (a, params) = graph(1000, 80, 9);
        let mut rng0 = StdRng::seed_from_u64(10);
        let pop_rng = &mut rng0;
        let pop = Population::uniform(1000, 80, pop_rng);
        let fam = OracleFamily::new(9);
        let b = build_initial_graph(pop, GraphKind::Chord, fam.h2, &params);
        let mut rng = StdRng::seed_from_u64(11);
        let single = measure_robustness(&a, &params, 400, &mut rng).search_success;
        let mut rng = StdRng::seed_from_u64(11);
        let dual = measure_dual_success([&a, &b], 400, &mut rng);
        assert!(dual >= single - 0.03, "dual {dual:.3} vs single {single:.3}");
    }
}
