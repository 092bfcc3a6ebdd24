//! Pluggable adversary strategies: *where* the `βn` bad IDs go.
//!
//! §II–III prove their guarantees against an adversary whose IDs are
//! u.a.r. on the ring, and §IV's proof-of-work is precisely the
//! mechanism that *forces* a rational adversary into that model. This
//! module makes the space on the other side of that boundary
//! explorable: an [`AdversaryStrategy`] observes the previous epoch's
//! operational group graphs ([`AdversaryView`]) and the current good-ID
//! census, and chooses the placement of its identity budget. Strategies
//! compose with both identity pipelines:
//!
//! * **no PoW** — [`StrategicProvider`] hands the strategy's chosen
//!   values straight to the dynamic layer (the world the paper defends
//!   against),
//! * **PoW** — `tg-pow`'s `StrategicPowProvider` pushes the same
//!   strategy through the minting pipeline, where the `f∘g` composition
//!   discards the chosen placement (Lemma 11) and the single-hash
//!   ablation honors it.
//!
//! What placement can and cannot buy in this construction: membership
//! draws select `suc(h(w,i))` for random-oracle points, so a bad ID's
//! recruitment probability equals its *responsibility arc* — placement
//! controls the adversary's total recruitment share (and which keys it
//! owns on the ring), but it cannot aim at one specific group, because
//! the draw points of a future group are oracle outputs it does not
//! control. The strategies below span that spectrum: uniform (the
//! paper's model), share maximization ([`GapFilling`],
//! [`AdaptiveMajorityFlipper`]), key-space censorship
//! ([`IntervalTargeting`]), and *timing* — [`ChurnTimed`] holds its
//! placement power in reserve and spends the full budget only in the
//! epochs immediately after heavy good-ID departure, when group margins
//! are thinnest (the adaptive-adversary lens of Dufoulon–Pandurangan:
//! an adversary that times its moves to the protocol's weakest rounds).

use crate::dynamic::provider::{EpochIds, IdentityProvider};
use crate::graph::{GraphsView, GroupGraphView};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use tg_idspace::{Id, RingDistance};

/// What the adversary gets to observe before placing this epoch's IDs:
/// the previous epoch's operational group graphs (empty at genesis) and,
/// when a PoW pipeline is in effect, the epoch string its solutions must
/// be bound to.
pub struct AdversaryView<'a> {
    /// The epoch whose IDs are being placed.
    pub epoch: u64,
    /// The previous epoch's operational graphs (what a state-observing
    /// adversary has watched serve traffic). Empty at initialization.
    pub graphs: GraphsView<'a>,
    /// The current epoch string when identities are minted through PoW
    /// (`None` on the no-PoW pipeline — there is nothing to grind).
    pub epoch_string: Option<u64>,
}

impl AdversaryView<'_> {
    /// The view at system initialization: no history to observe.
    pub fn genesis(epoch: u64) -> AdversaryView<'static> {
        AdversaryView { epoch, graphs: GraphsView::empty(), epoch_string: None }
    }
}

/// A placement policy for the adversary's per-epoch identity budget.
///
/// `place` is called once per epoch, in order, with the good-ID census
/// of that epoch (the rushing assumption: the adversary sees the honest
/// minting before committing its own) and a budget of `≈ βn`
/// identities. It returns the chosen ID values. Implementations should
/// stay within `budget` — the one sanctioned exception is a hoarding
/// strategy releasing pre-computed solutions when the fresh-string
/// defense is disabled, which is exactly the overrun §IV-B exists to
/// prevent.
pub trait AdversaryStrategy {
    /// Stable label for tables and reports.
    fn name(&self) -> &'static str;

    /// Choose this epoch's bad-ID values.
    fn place(
        &mut self,
        view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id>;
}

/// Ensure the chosen values collide neither with the good census nor
/// with each other (the population builder rejects duplicates); any
/// collision is re-drawn uniformly, which can only weaken a strategy.
pub fn dedup_against(ids: Vec<Id>, good: &[Id], rng: &mut StdRng) -> Vec<Id> {
    let mut taken: HashSet<Id> = good.iter().copied().collect();
    ids.into_iter()
        .map(|mut id| {
            while !taken.insert(id) {
                id = Id(rng.gen());
            }
            id
        })
        .collect()
}

/// The paper's standing assumption (and what `f∘g` minting enforces):
/// bad IDs u.a.r. on the ring.
#[derive(Clone, Copy, Debug, Default)]
pub struct Uniform;

impl AdversaryStrategy for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn place(
        &mut self,
        _view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id> {
        dedup_against((0..budget).map(|_| Id(rng.gen())).collect(), good, rng)
    }
}

/// The clockwise gaps between consecutive good IDs, widest first, as
/// `(gap_start, width)` pairs.
fn gaps_widest_first(good_sorted: &[Id]) -> Vec<(Id, RingDistance)> {
    let n = good_sorted.len();
    let mut gaps: Vec<(Id, RingDistance)> = (0..n)
        .map(|i| {
            let a = good_sorted[i];
            let b = good_sorted[(i + 1) % n];
            (a, a.distance_cw(b))
        })
        .collect();
    gaps.sort_unstable_by_key(|&(start, width)| (std::cmp::Reverse(width), start));
    gaps
}

/// Claim the **midpoints of the widest gaps** between good IDs.
///
/// Good IDs placed u.a.r. leave largest gaps of width `≈ ln n / n`; an
/// adversary that may *choose* values claims them and amplifies its
/// recruitment share from `β` to `≈ β·ln n / 2` — enough to flip group
/// majorities that uniform placement never threatens. This is the
/// placement attack that motivates §IV.
#[derive(Clone, Copy, Debug, Default)]
pub struct GapFilling;

impl AdversaryStrategy for GapFilling {
    fn name(&self) -> &'static str {
        "gap-filling"
    }

    fn place(
        &mut self,
        _view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id> {
        let mut sorted = good.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() {
            return Uniform.place(_view, good, budget, rng);
        }
        let gaps = gaps_widest_first(&sorted);
        let ids = (0..budget)
            .map(|j| {
                // Past one ID per gap, stack deeper midpoints (¾, ⅞, …).
                let (start, width) = gaps[j % gaps.len()];
                let mut offset = width.0 / 2;
                for _ in 0..(j / gaps.len()) {
                    offset += (width.0 - offset) / 2;
                }
                start.add(RingDistance(offset))
            })
            .collect();
        dedup_against(ids, good, rng)
    }
}

/// Concentrate the budget in the arc **ending at a victim key** — the
/// censorship attack: every key in `[victim − width, victim)` resolves
/// to an adversarial successor, so the tail of any search path for the
/// victim's neighborhood lands on adversary-owned ring positions and
/// the adversary picks *which* slice of the key space it owns instead
/// of a random `β`-fraction.
///
/// Group graphs blunt this at the group layer (the victim's resolver
/// group still draws its members from oracle points spread over the
/// whole ring), which experiment E10 measures directly — the strategy
/// owns the victim interval while its captured-group fraction stays
/// near uniform.
#[derive(Clone, Copy, Debug)]
pub struct IntervalTargeting {
    /// The key whose search path is under attack.
    pub victim: Id,
    /// Width of the claimed arc, as a ring fraction.
    pub width: f64,
}

impl AdversaryStrategy for IntervalTargeting {
    fn name(&self) -> &'static str {
        "interval-targeting"
    }

    fn place(
        &mut self,
        _view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id> {
        let start = self.victim.sub(RingDistance::from_f64(self.width));
        let ids = (0..budget)
            .map(|_| start.add(RingDistance::from_f64(rng.gen::<f64>() * self.width)))
            .collect();
        dedup_against(ids, good, rng)
    }
}

/// Observe the previous epoch's **near-tied groups** and place to flip
/// them.
///
/// Membership draws are oracle outputs, so no placement aims at one
/// specific group; what an adaptive adversary *can* do after watching an
/// epoch is decide whether flips are within reach at all, and if so
/// maximize the rate at which near-ties convert. When the observed
/// margin histogram shows blue groups within `margin` members of losing
/// their good majority, the strategy claims the widest good-ID gaps
/// *end-on* (an ID one ulp before the next good ID owns the whole gap,
/// twice the share of a midpoint claim), maximizing the probability that
/// next epoch's draws push marginal groups over. When every group sits
/// comfortably above the threshold it reverts to uniform camouflage
/// rather than spend its budget on unwinnable concentration.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveMajorityFlipper {
    /// A blue group within this many members of losing its good
    /// majority counts as near-tied.
    pub margin: usize,
}

impl Default for AdaptiveMajorityFlipper {
    fn default() -> Self {
        AdaptiveMajorityFlipper { margin: 2 }
    }
}

impl AdaptiveMajorityFlipper {
    /// Number of near-tied blue groups across all observed sides: live
    /// good-minus-bad member margin at most `2·margin` (flipping needs
    /// `margin` recruits to swing both counts).
    pub fn near_tied(&self, view: &AdversaryView<'_>) -> usize {
        view.graphs
            .iter()
            .map(|g| {
                (0..g.len())
                    .filter(|&i| {
                        if g.is_red(i) {
                            return false;
                        }
                        let size = g.group_size(i);
                        let bad = g.group_bad_count(i);
                        size - bad <= bad.saturating_add(self.margin.saturating_mul(2))
                    })
                    .count()
            })
            .sum()
    }
}

impl AdversaryStrategy for AdaptiveMajorityFlipper {
    fn name(&self) -> &'static str {
        "adaptive-majority-flipper"
    }

    fn place(
        &mut self,
        view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id> {
        // No observation yet (genesis) ⇒ assume ties are reachable.
        if !view.graphs.is_empty() && self.near_tied(view) == 0 {
            return Uniform.place(view, good, budget, rng);
        }
        end_on_strike(view, good, budget, rng)
    }
}

/// The full end-on strike: claim the widest gaps of the good census a
/// few ulps short of each gap's end, so every claimed ID's
/// responsibility arc is the entire gap (the strongest placement the
/// successor rule admits per gap — twice a midpoint claim's share);
/// extra budget stacks further back in the same gaps. Falls back to
/// uniform placement on an empty census. Shared by the strategies that
/// concentrate when they decide to strike ([`AdaptiveMajorityFlipper`],
/// [`ChurnTimed`]).
fn end_on_strike(
    view: &AdversaryView<'_>,
    good: &[Id],
    budget: usize,
    rng: &mut StdRng,
) -> Vec<Id> {
    let mut sorted = good.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.is_empty() {
        return Uniform.place(view, good, budget, rng);
    }
    let gaps = gaps_widest_first(&sorted);
    let ids = (0..budget)
        .map(|j| {
            let (start, width) = gaps[j % gaps.len()];
            let depth = 1 + (j / gaps.len()) as u64;
            start.add(RingDistance(width.0.saturating_sub(depth)))
        })
        .collect();
    dedup_against(ids, good, rng)
}

/// Time the budget to the protocol's weakest epochs: strike with
/// end-on gap claims **immediately after heavy good-ID departure**,
/// camouflage otherwise.
///
/// §III's epoch argument survives churn because the invariant margin
/// (`ε' = 1 − 2(1+δ)β`) absorbs up to `ε'/2` good departures per epoch;
/// an adaptive adversary that watches the operational graphs knows when
/// that slack has just been spent. This strategy observes the fraction
/// of good member-pool IDs that departed during the epoch it just
/// watched ([`ChurnTimed::observed_departure`]). While departure stays
/// below [`ChurnTimed::trigger`] it spends only a
/// [`ChurnTimed::retainer`] fraction of its budget, placed uniformly —
/// indistinguishable from the background noise the paper already
/// defends against. The epoch a heavy departure wave lands, it commits
/// the entire budget end-on into the widest good-ID gaps, maximizing
/// recruitment share exactly when surviving groups are thinnest.
///
/// Under the `f∘g` minting defense the timing still goes through (the
/// adversary may always choose *when* to present solutions) but the
/// placement does not — which is precisely the contrast the E12
/// churn-axis frontier measures.
#[derive(Clone, Copy, Debug)]
pub struct ChurnTimed {
    /// Observed good-departure fraction at or above which the watched
    /// epoch counts as a heavy-churn epoch and the full budget is spent.
    pub trigger: f64,
    /// Fraction of the budget spent (uniformly, as camouflage) in quiet
    /// epochs. The rest is withheld — timing, not hoarding: withheld
    /// identities are forfeited, never banked.
    pub retainer: f64,
}

impl Default for ChurnTimed {
    fn default() -> Self {
        // Strike on departure waves clearly above the mild-churn regime
        // the sweeps use as background (0.05–0.1), camouflaging with a
        // fifth of the budget meanwhile.
        ChurnTimed { trigger: 0.12, retainer: 0.2 }
    }
}

impl ChurnTimed {
    /// The good-ID departure fraction visible in the observed graphs:
    /// departed good members of the serving pool over all good members
    /// (side 0 — every side shares the one physical population). `0`
    /// at genesis, when there is nothing to observe.
    pub fn observed_departure(view: &AdversaryView<'_>) -> f64 {
        if view.graphs.is_empty() {
            return 0.0;
        }
        let g = view.graphs.side(0);
        let pool = g.pool();
        let (mut good, mut gone) = (0usize, 0usize);
        for i in 0..pool.len() {
            if pool.is_bad(i) {
                continue;
            }
            good += 1;
            if pool.is_departed(i) {
                gone += 1;
            }
        }
        gone as f64 / good.max(1) as f64
    }
}

impl AdversaryStrategy for ChurnTimed {
    fn name(&self) -> &'static str {
        "churn-timed"
    }

    fn place(
        &mut self,
        view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id> {
        if Self::observed_departure(view) < self.trigger {
            // Quiet epoch (or genesis): camouflage with the retainer.
            let held = ((budget as f64 * self.retainer).round() as usize).min(budget);
            return Uniform.place(view, good, held, rng);
        }
        end_on_strike(view, good, budget, rng)
    }
}

/// A no-PoW identity pipeline driven by a strategy: good IDs follow the
/// honest protocol (u.a.r.), bad IDs land wherever the strategy says.
/// This is the world §IV is defending against, made pluggable.
pub struct StrategicProvider {
    /// Good IDs per epoch.
    pub n_good: usize,
    /// The adversary's identity budget per epoch (`≈ βn`).
    pub budget: usize,
    /// The placement policy.
    pub strategy: Box<dyn AdversaryStrategy>,
}

impl std::fmt::Debug for StrategicProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategicProvider")
            .field("n_good", &self.n_good)
            .field("budget", &self.budget)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl StrategicProvider {
    /// A provider placing `budget` adversarial IDs per epoch with the
    /// given strategy.
    pub fn new(n_good: usize, budget: usize, strategy: impl AdversaryStrategy + 'static) -> Self {
        StrategicProvider { n_good, budget, strategy: Box::new(strategy) }
    }

    /// Like [`StrategicProvider::new`], for a strategy chosen at runtime.
    pub fn boxed(n_good: usize, budget: usize, strategy: Box<dyn AdversaryStrategy>) -> Self {
        StrategicProvider { n_good, budget, strategy }
    }
}

impl IdentityProvider for StrategicProvider {
    fn ids_for_epoch(
        &mut self,
        _epoch: u64,
        view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> EpochIds {
        let good: Vec<Id> = (0..self.n_good).map(|_| Id(rng.gen())).collect();
        let bad = self.strategy.place(view, &good, self.budget, rng);
        EpochIds { good, bad }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{BuildMode, DynamicSystem};
    use rand::SeedableRng;
    use tg_overlay::GraphKind;

    fn census(n: usize, seed: u64) -> (Vec<Id>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let good = (0..n).map(|_| Id(rng.gen())).collect();
        (good, rng)
    }

    fn share_of(good: &[Id], bad: &[Id]) -> f64 {
        EpochIds { good: good.to_vec(), bad: bad.to_vec() }.bad_ring_share()
    }

    #[test]
    fn all_strategies_respect_budget_and_uniqueness() {
        let (good, mut rng) = census(500, 1);
        let view = AdversaryView::genesis(0);
        let strategies: Vec<Box<dyn AdversaryStrategy>> = vec![
            Box::new(Uniform),
            Box::new(GapFilling),
            Box::new(IntervalTargeting { victim: Id::from_f64(0.4), width: 0.01 }),
            Box::new(AdaptiveMajorityFlipper::default()),
        ];
        for mut s in strategies {
            let bad = s.place(&view, &good, 30, &mut rng);
            assert_eq!(bad.len(), 30, "{}", s.name());
            let mut all: Vec<Id> = good.iter().chain(bad.iter()).copied().collect();
            all.sort_unstable();
            assert!(all.windows(2).all(|w| w[0] != w[1]), "{}: collision", s.name());
        }
    }

    #[test]
    fn placement_share_ordering() {
        // uniform ≈ β < gap-filling (midpoints ≈ half the widest gaps)
        // < flipper (end-on claims ≈ the whole widest gaps).
        let (good, mut rng) = census(2000, 2);
        let view = AdversaryView::genesis(0);
        let budget = 100;
        let beta = budget as f64 / 2100.0;
        let uniform = share_of(&good, &Uniform.place(&view, &good, budget, &mut rng));
        let gap = share_of(&good, &GapFilling.place(&view, &good, budget, &mut rng));
        let flip = share_of(
            &good,
            &AdaptiveMajorityFlipper::default().place(&view, &good, budget, &mut rng),
        );
        assert!((0.5 * beta..2.0 * beta).contains(&uniform), "uniform share {uniform:.4}");
        assert!(gap > 2.0 * beta, "gap share {gap:.4} vs β {beta:.4}");
        assert!(flip > 1.5 * gap, "flipper {flip:.4} must beat midpoints {gap:.4}");
    }

    #[test]
    fn interval_targeting_owns_its_arc() {
        let (good, mut rng) = census(1000, 3);
        let view = AdversaryView::genesis(0);
        let victim = Id::from_f64(0.4);
        let mut s = IntervalTargeting { victim, width: 0.01 };
        let bad = s.place(&view, &good, 50, &mut rng);
        for id in &bad {
            let f = id.as_f64();
            assert!((0.39..0.4).contains(&f), "bad ID {f} outside the victim arc");
        }
    }

    #[test]
    fn flipper_with_no_reachable_ties_goes_uniform() {
        // Build a tiny clean system: every group has zero bad members and
        // a margin far above 2·margin, so the flipper sees no reachable
        // tie and reverts to uniform placement.
        let mut provider = StrategicProvider::new(400, 0, Uniform);
        let sys = DynamicSystem::new(
            crate::params::Params::paper_defaults(),
            GraphKind::Chord,
            BuildMode::DualGraph,
            &mut provider,
            5,
        );
        let view = AdversaryView { epoch: 1, graphs: sys.graphs(), epoch_string: None };
        let mut s = AdaptiveMajorityFlipper { margin: 0 };
        assert_eq!(s.near_tied(&view), 0, "clean groups are not near-tied at margin 0");
        let (good, mut rng) = census(400, 7);
        let bad = s.place(&view, &good, 20, &mut rng);
        let share = share_of(&good, &bad);
        let beta = 20.0 / 420.0;
        assert!(share < 2.0 * beta, "uniform fallback share {share:.4}");
    }

    /// A view over graphs whose pools just lost `frac` of their good
    /// members — the post-churn observation `ChurnTimed` keys on.
    fn churned_system(frac: f64, seed: u64) -> DynamicSystem {
        let mut provider = StrategicProvider::new(400, 20, Uniform);
        let mut sys = DynamicSystem::new(
            crate::params::Params::paper_defaults(),
            GraphKind::Chord,
            BuildMode::DualGraph,
            &mut provider,
            seed,
        );
        let g = sys.graphs_mut();
        let good = g.pool.good_indices();
        let departing = (good.len() as f64 * frac).round() as usize;
        // Deterministic pick is fine here: which IDs leave does not
        // matter to the observation, only how many.
        for &i in good.iter().take(departing) {
            g.pool.mark_departed(i);
        }
        g.recolor();
        sys
    }

    #[test]
    fn churn_timed_observes_departure_fraction() {
        let sys = churned_system(0.3, 21);
        let view = AdversaryView { epoch: 2, graphs: sys.graphs(), epoch_string: None };
        let seen = ChurnTimed::observed_departure(&view);
        assert!((0.28..0.32).contains(&seen), "observed departure {seen:.3}");
        assert_eq!(ChurnTimed::observed_departure(&AdversaryView::genesis(0)), 0.0);
    }

    #[test]
    fn churn_timed_holds_back_in_quiet_epochs() {
        let quiet = churned_system(0.05, 23);
        let view = AdversaryView { epoch: 2, graphs: quiet.graphs(), epoch_string: None };
        let (good, mut rng) = census(400, 25);
        let mut s = ChurnTimed::default();
        let bad = s.place(&view, &good, 40, &mut rng);
        assert_eq!(bad.len(), 8, "retainer = 20% of the budget");
        let share = share_of(&good, &bad);
        assert!(share < 2.0 * 8.0 / 440.0, "camouflage share {share:.4} must look uniform");
    }

    #[test]
    fn churn_timed_strikes_with_full_budget_after_heavy_departure() {
        let heavy = churned_system(0.3, 27);
        let view = AdversaryView { epoch: 2, graphs: heavy.graphs(), epoch_string: None };
        let (good, mut rng) = census(2000, 29);
        let budget = 100;
        let mut s = ChurnTimed::default();
        let bad = s.place(&view, &good, budget, &mut rng);
        assert_eq!(bad.len(), budget, "strike epochs spend the whole budget");
        let strike = share_of(&good, &bad);
        let mut rng_u = StdRng::seed_from_u64(31);
        let uniform = share_of(&good, &Uniform.place(&view, &good, budget, &mut rng_u));
        assert!(
            strike > 2.0 * uniform,
            "end-on strike share {strike:.4} must beat uniform {uniform:.4}"
        );
    }

    #[test]
    fn strategic_provider_is_deterministic() {
        let run = || {
            let mut p = StrategicProvider::new(300, 15, GapFilling);
            let mut rng = StdRng::seed_from_u64(11);
            p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.good, b.good);
        assert_eq!(a.bad, b.bad);
    }
}
