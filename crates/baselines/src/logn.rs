//! The `Θ(log n)`-group baseline.
//!
//! Prior constructions (\[7\]–\[10\], \[18\], \[21\], \[23\], \[39\], \[45\], \[51\] …)
//! all need `|G| = Θ(log n)` so that *every* group has a good majority
//! w.h.p. (`ε = 1/poly(n)` robustness). The same `tg-core` machinery
//! expresses this: only the size rule changes. The point of Corollary 1
//! is the cost gap — `Θ(log²n)` vs `Θ((log log n)²)` messages per
//! group operation and per routing hop — which experiment E3 measures
//! with exactly these two constructions side by side.

use tg_core::{build_initial_graph, GroupGraph, Params, Population};
use tg_crypto::Oracle;
use tg_overlay::GraphKind;

/// Build the classic baseline: groups of `c·ln n` members.
pub fn build_logn_baseline(
    pop: Population,
    kind: GraphKind,
    oracle: Oracle,
    c: f64,
) -> (GroupGraph, Params) {
    let params = Params::paper_defaults().with_classic_groups(c);
    (build_initial_graph(pop, kind, oracle, &params), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tg_core::GroupGraphView;
    use tg_crypto::OracleFamily;

    fn pop(n_good: usize, n_bad: usize, seed: u64) -> Population {
        let mut rng = StdRng::seed_from_u64(seed);
        Population::uniform(n_good, n_bad, &mut rng)
    }

    #[test]
    fn baseline_groups_are_logarithmic() {
        let p = pop(4000, 200, 1);
        let (gg, _) = build_logn_baseline(p, GraphKind::Chord, OracleFamily::new(1).h1, 1.5);
        let n = gg.len() as f64;
        let mean = gg.mean_group_size();
        assert!(
            mean > 0.9 * n.ln() && mean < 1.8 * n.ln(),
            "mean baseline size {mean:.1} vs 1.5·ln n ≈ {:.1}",
            1.5 * n.ln()
        );
    }

    #[test]
    fn baseline_is_much_larger_than_tiny() {
        let p = pop(4000, 200, 2);
        let fam = OracleFamily::new(2);
        let (baseline, _) = build_logn_baseline(p.clone(), GraphKind::Chord, fam.h1, 1.5);
        let tiny = build_initial_graph(p, GraphKind::Chord, fam.h1, &Params::paper_defaults());
        let ratio = baseline.mean_group_size() / tiny.mean_group_size();
        assert!(ratio > 1.3, "baseline/tiny size ratio {ratio:.2}");
    }

    #[test]
    fn baseline_has_no_bad_majorities_at_all() {
        // The whole point of Θ(log n): at β = 0.05 every group has a good
        // majority — ε = 1/poly(n), not 1/poly(log n).
        let p = pop(4000, 200, 3);
        let (gg, _) = build_logn_baseline(p, GraphKind::Chord, OracleFamily::new(3).h1, 2.0);
        assert_eq!(gg.frac_good_majority(), 1.0);
        assert_eq!(gg.frac_red(), 0.0);
    }
}
