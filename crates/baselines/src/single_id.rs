//! The no-groups strawman (§I-A).
//!
//! With "groups" of a single ID there are trivially `(1−β)n` reliable
//! processors — but routing between them is hopeless: a search traverses
//! `D = O(log n)` IDs and fails if *any* of them is Byzantine, so the
//! success rate is `≈ (1−β)^D`, which degrades with `n` (longer routes)
//! instead of improving. This module measures that, giving experiment E3
//! its third column and making the paper's "is this trivial?" argument
//! quantitative.

use rand::rngs::StdRng;
use rand::Rng;
use tg_core::Population;
use tg_idspace::Id;
use tg_overlay::InputGraph;

/// Measured single-ID routing outcome.
#[derive(Clone, Copy, Debug)]
pub struct SingleIdReport {
    /// Fraction of searches that traversed only good IDs.
    pub success_rate: f64,
    /// Mean traversed IDs per search.
    pub mean_route_len: f64,
    /// The analytic prediction `(1−β)^mean_route_len`.
    pub predicted: f64,
}

/// Sample `searches` random routes over `graph` (whose ring must be the
/// population's ring) and count those avoiding every bad ID.
pub fn measure_single_id_routing(
    pop: &Population,
    graph: &dyn InputGraph,
    searches: usize,
    rng: &mut StdRng,
) -> SingleIdReport {
    let ring = pop.ring();
    assert_eq!(ring.len(), graph.ring().len(), "graph must be built over the population ring");
    let beta = pop.bad_count() as f64 / pop.len() as f64;
    let mut ok = 0usize;
    let mut hops = 0usize;
    for _ in 0..searches {
        let from = rng.gen_range(0..ring.len());
        let key = Id(rng.gen());
        let route = graph.route(from, key);
        hops += route.len();
        if route.hops.iter().all(|&h| !pop.is_bad(h)) {
            ok += 1;
        }
    }
    let mean_route_len = hops as f64 / searches.max(1) as f64;
    SingleIdReport {
        success_rate: ok as f64 / searches.max(1) as f64,
        mean_route_len,
        predicted: (1.0 - beta).powf(mean_route_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tg_overlay::GraphKind;

    #[test]
    fn clean_population_always_succeeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::uniform(512, 0, &mut rng);
        let g = GraphKind::Chord.build(pop.ring().clone());
        let rep = measure_single_id_routing(&pop, g.as_ref(), 300, &mut rng);
        assert_eq!(rep.success_rate, 1.0);
    }

    #[test]
    fn failure_matches_prediction() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = Population::uniform(2000, 100, &mut rng); // β ≈ 0.048
        let g = GraphKind::Chord.build(pop.ring().clone());
        let rep = measure_single_id_routing(&pop, g.as_ref(), 3000, &mut rng);
        assert!(
            (rep.success_rate - rep.predicted).abs() < 0.07,
            "measured {:.3} vs predicted {:.3}",
            rep.success_rate,
            rep.predicted
        );
        // And it is genuinely bad: ≥ ~25% of searches fail at β ≈ 5%.
        assert!(rep.success_rate < 0.8);
    }

    #[test]
    fn longer_routes_fail_more() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = Population::uniform(500, 25, &mut rng);
        let large = Population::uniform(8000, 400, &mut rng);
        let gs = GraphKind::Chord.build(small.ring().clone());
        let gl = GraphKind::Chord.build(large.ring().clone());
        let rs = measure_single_id_routing(&small, gs.as_ref(), 1500, &mut rng);
        let rl = measure_single_id_routing(&large, gl.as_ref(), 1500, &mut rng);
        assert!(
            rl.success_rate < rs.success_rate,
            "bigger n ⇒ longer routes ⇒ worse: {:.3} vs {:.3}",
            rl.success_rate,
            rs.success_rate
        );
    }
}
