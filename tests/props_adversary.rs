//! Property tests for the [`AdversaryStrategy`] contract every placement
//! engine consumer (E10's matrix, E11's frontier, the strategic PoW
//! pipeline) relies on:
//!
//! * **budget** — a strategy returns exactly the `⌊βn⌋` identities it
//!   was granted (the one sanctioned overrun, solution hoarding against
//!   frozen strings, lives outside these four placement strategies),
//! * **ID space** — placements collide neither with the good census nor
//!   with each other (the population builder rejects duplicates),
//! * **determinism** — a fixed seed and view replays the placement
//!   bit-for-bit (the whole E11 reproducibility contract stands on it),
//! * **dominance** — the adaptive flipper's end-on gap claims never owe
//!   less of the key space than uniform placement buys (if observation
//!   plus choice were ever *worse* than blind noise, the "adaptive rows
//!   are the hardest rows" framing would be vacuous).
//!
//! The timing strategy [`ChurnTimed`] signs a deliberately looser
//! budget contract — **at most** `⌊βn⌋` per epoch (quiet epochs spend
//! only its camouflage retainer) and exactly `⌊βn⌋` in a strike epoch —
//! which its own properties below pin in both regimes, against a real
//! post-churn observation for the strike side.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use tiny_groups::core::dynamic::adversary::{
    AdaptiveMajorityFlipper, AdversaryStrategy, AdversaryView, ChurnTimed, GapFilling,
    IntervalTargeting, Uniform,
};
use tiny_groups::core::dynamic::{BuildMode, DynamicSystem, EpochIds, StrategicProvider};
use tiny_groups::core::Params;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;

/// A u.a.r. good census of `n` IDs.
fn census(n: usize, seed: u64) -> Vec<Id> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Id(rng.gen())).collect()
}

/// Every placement strategy of the engine, freshly instantiated.
/// `ChurnTimed` is covered by its own properties below: its budget
/// contract (≤, not ==) differs from the four exact-budget strategies.
fn all_strategies(victim: u64, width: f64) -> Vec<Box<dyn AdversaryStrategy>> {
    vec![
        Box::new(Uniform),
        Box::new(GapFilling),
        Box::new(IntervalTargeting { victim: Id(victim), width }),
        Box::new(AdaptiveMajorityFlipper::default()),
    ]
}

/// A shared small system whose pools just lost ≈30% of their good
/// members — the heavy-departure observation that arms the churn-timed
/// strike. Built once; the proptests only *read* its graphs.
fn heavy_churn_system() -> &'static DynamicSystem {
    static SYS: OnceLock<DynamicSystem> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut provider = StrategicProvider::new(300, 15, Uniform);
        let mut sys = DynamicSystem::new(
            Params::paper_defaults(),
            GraphKind::Chord,
            BuildMode::DualGraph,
            &mut provider,
            911,
        );
        let g = sys.graphs_mut();
        let good = g.pool.good_indices();
        let departing = (good.len() as f64 * 0.3).round() as usize;
        for &i in good.iter().take(departing) {
            g.pool.mark_departed(i);
        }
        g.recolor();
        sys
    })
}

/// Key-space share owned by `bad` against the `good` census.
fn share_of(good: &[Id], bad: &[Id]) -> f64 {
    EpochIds { good: good.to_vec(), bad: bad.to_vec() }.bad_ring_share()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Budget + ID space, across all four strategies: exactly `budget`
    /// IDs, none colliding with the census or each other.
    #[test]
    fn placement_respects_budget_and_id_space(
        seed in any::<u64>(),
        n_sel in 60usize..300,
        budget in 1usize..40,
        victim in any::<u64>(),
        width in 0.001f64..0.05,
    ) {
        let good = census(n_sel, seed);
        let view = AdversaryView::genesis(0);
        for mut s in all_strategies(victim, width) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
            let bad = s.place(&view, &good, budget, &mut rng);
            prop_assert_eq!(bad.len(), budget, "{}: budget violated", s.name());
            let mut all: Vec<Id> = good.iter().chain(bad.iter()).copied().collect();
            all.sort_unstable();
            prop_assert!(
                all.windows(2).all(|w| w[0] != w[1]),
                "{}: placement collides inside the ID space", s.name()
            );
        }
    }

    /// Fixed seed + view ⇒ bit-identical placement, for every strategy.
    #[test]
    fn placement_is_deterministic_for_fixed_seed_and_view(
        seed in any::<u64>(),
        n_sel in 60usize..300,
        budget in 1usize..40,
        victim in any::<u64>(),
        width in 0.001f64..0.05,
    ) {
        let good = census(n_sel, seed);
        let view = AdversaryView::genesis(3);
        let run = |mut s: Box<dyn AdversaryStrategy>| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
            s.place(&view, &good, budget, &mut rng)
        };
        let a: Vec<Vec<Id>> = all_strategies(victim, width).into_iter().map(run).collect();
        let b: Vec<Vec<Id>> = all_strategies(victim, width).into_iter().map(run).collect();
        prop_assert_eq!(a, b);
    }

    /// Churn-timed budget + ID space, both regimes: a quiet (genesis)
    /// epoch spends at most the budget — the retainer, strictly less
    /// for any budget ≥ 3 — and a strike epoch (observed heavy
    /// departure) spends exactly the budget. No placement collides with
    /// the census or itself in either regime.
    #[test]
    fn churn_timed_respects_budget_and_id_space(
        seed in any::<u64>(),
        n_sel in 60usize..300,
        budget in 3usize..40,
    ) {
        let good = census(n_sel, seed);
        let heavy = heavy_churn_system();
        let strike_view = AdversaryView { epoch: 2, graphs: heavy.graphs(), epoch_string: None };
        for (view, label) in [(AdversaryView::genesis(0), "quiet"), (strike_view, "strike")] {
            let mut s = ChurnTimed::default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC4);
            let bad = s.place(&view, &good, budget, &mut rng);
            prop_assert!(bad.len() <= budget, "{label}: budget exceeded");
            if label == "quiet" {
                prop_assert!(bad.len() < budget, "{label}: retainer must hold back");
            } else {
                prop_assert_eq!(bad.len(), budget, "{label}: strike must spend it all");
            }
            let mut all: Vec<Id> = good.iter().chain(bad.iter()).copied().collect();
            all.sort_unstable();
            prop_assert!(
                all.windows(2).all(|w| w[0] != w[1]),
                "{label}: placement collides inside the ID space"
            );
        }
    }

    /// Churn-timed determinism: fixed seed and view ⇒ bit-identical
    /// placement, in both regimes.
    #[test]
    fn churn_timed_is_deterministic(
        seed in any::<u64>(),
        n_sel in 60usize..300,
        budget in 1usize..40,
    ) {
        let good = census(n_sel, seed);
        let heavy = heavy_churn_system();
        for view in [
            AdversaryView::genesis(0),
            AdversaryView { epoch: 2, graphs: heavy.graphs(), epoch_string: None },
        ] {
            let run = || {
                let mut s = ChurnTimed::default();
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(9));
                s.place(&view, &good, budget, &mut rng)
            };
            prop_assert_eq!(run(), run());
        }
    }

    /// The adaptive flipper's key-space share never falls below what the
    /// same budget buys under uniform placement: its end-on claims own
    /// (almost) the whole widest gaps, while uniform IDs own random
    /// fragments of the gaps they happen to split.
    #[test]
    fn flipper_share_never_below_uniform(
        seed in any::<u64>(),
        n_sel in 80usize..300,
        budget_frac in 0.02f64..0.20,
    ) {
        let good = census(n_sel, seed);
        let budget = ((n_sel as f64 * budget_frac) as usize).max(1);
        let view = AdversaryView::genesis(0);
        let mut rng_u = StdRng::seed_from_u64(seed ^ 0x0F1);
        let mut rng_f = StdRng::seed_from_u64(seed ^ 0x0F2);
        let uniform = share_of(&good, &Uniform.place(&view, &good, budget, &mut rng_u));
        let flip = share_of(
            &good,
            &AdaptiveMajorityFlipper::default().place(&view, &good, budget, &mut rng_f),
        );
        prop_assert!(
            flip + 1e-9 >= uniform,
            "flipper share {flip:.5} below uniform {uniform:.5} (n={n_sel}, budget={budget})"
        );
    }
}
