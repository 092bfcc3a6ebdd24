//! Adversary strategies pushed through the minting pipeline (§IV).
//!
//! `tg-core`'s strategy engine models an adversary that *chooses* its
//! ID values; this module is the other half of the argument — the same
//! [`AdversaryStrategy`] objects composed with the PoW pipeline, where
//! what the adversary gets depends on the scheme:
//!
//! * **`f∘g` (the paper)** — minted IDs are `f(g(σ ⊕ r))`: u.a.r. no
//!   matter how `σ` is cherry-picked (Lemma 11). The strategy's desired
//!   placement is discarded; only its solution *count* survives.
//! * **single-hash (the warned-against variant)** — the ID *is* `σ`,
//!   so the adversary grinds σ-candidates inside its desired placement
//!   and realizes the strategy exactly (rate-limited by the puzzle).
//!
//! [`PrecomputeHoarder`] attacks along the other §IV axis: it grinds
//! real [`Solution`]s every epoch and presents its entire hoard, which
//! [`crate::puzzle::verify`] filters against the *current* epoch string
//! — with fresh strings (§IV-B) the stale hoard dies and the adversary
//! is held to its per-epoch budget; with a frozen string the hoard
//! compounds without bound.

use crate::miner::{sample_binomial, MintingSim};
use crate::puzzle::{attempt, verify_batch, PuzzleParams, Solution};
use rand::rngs::StdRng;
use rand::Rng;
use tg_core::dynamic::adversary::{dedup_against, AdversaryStrategy, AdversaryView, Uniform};
use tg_core::dynamic::{EpochIds, IdentityProvider};
use tg_crypto::OracleFamily;
use tg_idspace::Id;

/// Which minting scheme the identity pipeline runs (§IV-A). Defined in
/// `tg_core::scenario` (it is the scheme half of the declarative
/// [`Defense`](tg_core::scenario::Defense) axis) and re-exported here,
/// where the pipeline that interprets it lives.
pub use tg_core::scenario::MintScheme;

/// Genesis epoch string (shared with [`crate::system::FullSystem`]: a
/// standalone strategic run and a composed full-protocol run must agree
/// on what "the string that shipped with the software" is, or the
/// fresh-vs-frozen contrast would differ between the two pipelines).
pub(crate) const GENESIS_STRING: u64 = 0xD00D_F00D_0000_0001;

/// The epoch string in force for `epoch` under the fresh-string policy.
fn epoch_string(fresh: bool, epoch: u64) -> u64 {
    if fresh {
        GENESIS_STRING ^ (epoch.wrapping_add(1)).wrapping_mul(0x9e3779b97f4a7c15)
    } else {
        GENESIS_STRING
    }
}

/// An [`IdentityProvider`] that mints through the puzzle pipeline with a
/// pluggable adversary strategy — the §IV counterpart of
/// [`tg_core::dynamic::StrategicProvider`].
///
/// Good participants mint idealized u.a.r. IDs; the adversary's
/// solution count is binomial over its pooled compute (the statistical
/// shortcut validated in [`crate::miner`]), and its ID *values* follow
/// the scheme: realized placement under [`MintScheme::SingleHash`],
/// u.a.r. under [`MintScheme::TwoHash`]. Hoarding strategies may return
/// more IDs than the per-epoch count when the fresh-string defense is
/// off — exactly the overrun the defense exists to stop.
pub struct StrategicPowProvider {
    /// Puzzle difficulty and rates.
    pub puzzle: PuzzleParams,
    /// Good participants per epoch.
    pub n_good: usize,
    /// Adversary compute in units (`≈ βn`).
    pub adversary_units: f64,
    /// Which minting scheme is in force.
    pub scheme: MintScheme,
    /// Whether the epoch string refreshes every epoch (§IV-B). Turning
    /// this off re-enables pre-computation hoards.
    pub fresh_strings: bool,
    /// The adversary's placement policy.
    pub strategy: Box<dyn AdversaryStrategy>,
}

impl std::fmt::Debug for StrategicPowProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategicPowProvider")
            .field("scheme", &self.scheme.name())
            .field("fresh_strings", &self.fresh_strings)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl StrategicPowProvider {
    /// A provider minting in `window`: its puzzle, good participants and
    /// adversary compute. Good participants mint idealized whatever
    /// `window.idealized_good` says.
    pub fn new(
        window: &MintingSim,
        scheme: MintScheme,
        strategy: impl AdversaryStrategy + 'static,
    ) -> Self {
        StrategicPowProvider::boxed(window, scheme, Box::new(strategy))
    }

    /// Like [`StrategicPowProvider::new`], for a strategy chosen at
    /// runtime.
    pub fn boxed(
        window: &MintingSim,
        scheme: MintScheme,
        strategy: Box<dyn AdversaryStrategy>,
    ) -> Self {
        StrategicPowProvider {
            puzzle: window.params,
            n_good: window.n_good,
            adversary_units: window.adversary_units,
            scheme,
            fresh_strings: true,
            strategy,
        }
    }
}

impl IdentityProvider for StrategicPowProvider {
    fn ids_for_epoch(
        &mut self,
        epoch: u64,
        view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> EpochIds {
        // A composed system that runs a real string protocol (e.g.
        // `FullSystem`, whose mint step sets the view's string in force)
        // supplies the agreed string through the view; standalone dynamic
        // runs get a synthesized per-epoch string under the same
        // fresh/frozen policy.
        let r = view.epoch_string.unwrap_or_else(|| epoch_string(self.fresh_strings, epoch));
        let good: Vec<Id> = (0..self.n_good).map(|_| Id(rng.gen())).collect();

        // The adversary's pooled compute yields a binomial solution count
        // per window (Lemma 11's budget) ...
        let attempts_per_unit = self.puzzle.attempts_per_step * self.puzzle.t_epoch / 2;
        let adv_attempts = (self.adversary_units * attempts_per_unit as f64).round() as u64;
        let budget = sample_binomial(adv_attempts, self.puzzle.success_prob(), rng) as usize;

        // ... and asks its strategy where it *wants* those identities.
        let pow_view =
            AdversaryView { epoch: view.epoch, graphs: view.graphs, epoch_string: Some(r) };
        let desired = self.strategy.place(&pow_view, &good, budget, rng);

        let bad = match self.scheme {
            // ID = σ: the adversary grinds candidates inside its desired
            // placement and lands exactly there.
            MintScheme::SingleHash => desired,
            // ID = f(g(σ ⊕ r)): placement is discarded, the count (which
            // a hoarder may have inflated when strings are stale) stays.
            MintScheme::TwoHash => {
                dedup_against((0..desired.len()).map(|_| Id(rng.gen())).collect(), &good, rng)
            }
        };
        EpochIds { good, bad }
    }
}

/// Hoard puzzle solutions across epochs and release the entire hoard
/// (§IV-B's pre-computation attack), wired through the real
/// [`attempt`]/[`verify_batch`] pipeline.
///
/// Every epoch the hoarder grinds `attempts_per_epoch` candidates
/// against the string it sees *then* and banks the [`Solution`]s. At
/// placement time it presents everything it holds; only solutions that
/// verify against the **current** string become identities. With fresh
/// strings that is just the current window's yield (`≈ βn`); with a
/// frozen string the whole hoard is valid and the adversary shows up
/// with `hoard_epochs × βn` IDs. Released IDs are `f(g(·))` outputs —
/// u.a.r. — so this strategy attacks the *count* axis, not placement.
///
/// On the no-PoW pipeline there are no puzzles to hoard; the strategy
/// degrades to uniform placement within budget.
pub struct PrecomputeHoarder {
    /// Oracle family the puzzle pipeline hashes with (must match the
    /// verifying system's).
    pub fam: OracleFamily,
    /// Puzzle parameters (an easy calibration keeps exact grinding
    /// cheap; counts are what matter).
    pub puzzle: PuzzleParams,
    /// Grinding budget per epoch, in puzzle attempts.
    pub attempts_per_epoch: u64,
    hoard: Vec<Solution>,
}

impl std::fmt::Debug for PrecomputeHoarder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecomputeHoarder")
            .field("attempts_per_epoch", &self.attempts_per_epoch)
            .field("hoard", &self.hoard.len())
            .finish()
    }
}

impl PrecomputeHoarder {
    /// A hoarder grinding `attempts_per_epoch` candidates per epoch.
    pub fn new(fam: OracleFamily, puzzle: PuzzleParams, attempts_per_epoch: u64) -> Self {
        PrecomputeHoarder { fam, puzzle, attempts_per_epoch, hoard: Vec::new() }
    }

    /// Solutions currently banked (valid or stale).
    pub fn hoard_len(&self) -> usize {
        self.hoard.len()
    }
}

impl AdversaryStrategy for PrecomputeHoarder {
    fn name(&self) -> &'static str {
        "precompute-hoarder"
    }

    fn place(
        &mut self,
        view: &AdversaryView<'_>,
        good: &[Id],
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<Id> {
        let Some(r) = view.epoch_string else {
            // No PoW, nothing to hoard.
            return Uniform.place(view, good, budget, rng);
        };
        // Grind this epoch's window against the string in force now.
        for _ in 0..self.attempts_per_epoch {
            let sigma = (rng.gen(), rng.gen());
            if let Some(sol) = attempt(&self.fam, &self.puzzle, sigma, r) {
                self.hoard.push(sol);
            }
        }
        // Present the whole hoard; one batched verification pass culls
        // the stale part (the epoch's claims verify together, not one
        // call at a time).
        let verdicts = verify_batch(&self.fam, &self.puzzle, &self.hoard, r);
        let ids = self
            .hoard
            .iter()
            .zip(&verdicts)
            .filter(|&(_, &ok)| ok)
            .map(|(sol, _)| sol.id)
            .collect();
        dedup_against(ids, good, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tg_core::dynamic::adversary::GapFilling;

    /// The calibrated window the scenario builders mint in.
    fn window(n_good: usize, adversary_units: f64) -> MintingSim {
        let params = PuzzleParams::calibrated(16, 2048);
        MintingSim { params, n_good, adversary_units, idealized_good: true }
    }

    fn easy_puzzle() -> PuzzleParams {
        PuzzleParams { tau: Id::from_f64(0.02), attempts_per_step: 1, t_epoch: 2 }
    }

    #[test]
    fn two_hash_discards_placement_single_hash_honors_it() {
        let run = |scheme: MintScheme| {
            let mut p = StrategicPowProvider::new(&window(1000, 50.0), scheme, GapFilling);
            let mut rng = StdRng::seed_from_u64(1);
            p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng)
        };
        let fog = run(MintScheme::TwoHash);
        let single = run(MintScheme::SingleHash);
        let beta = 0.05;
        assert!(
            fog.bad_ring_share() < 2.0 * beta,
            "f∘g share {:.4} must stay near β",
            fog.bad_ring_share()
        );
        assert!(
            single.bad_ring_share() > 2.0 * beta,
            "single-hash share {:.4} must be amplified",
            single.bad_ring_share()
        );
        // Both are budget-limited by the puzzle (≈ βn = 50).
        assert!((25..=80).contains(&fog.bad.len()), "{} minted", fog.bad.len());
        assert!((25..=80).contains(&single.bad.len()), "{} minted", single.bad.len());
    }

    #[test]
    fn hoard_dies_with_fresh_strings_compounds_without() {
        let run = |fresh: bool| -> Vec<usize> {
            let fam = OracleFamily::new(7);
            let mut hoarder = PrecomputeHoarder::new(fam, easy_puzzle(), 2000);
            let mut rng = StdRng::seed_from_u64(2);
            let mut good_rng = StdRng::seed_from_u64(3);
            let good: Vec<Id> = (0..100).map(|_| Id(good_rng.gen())).collect();
            (0..5)
                .map(|e| {
                    let view = AdversaryView {
                        epoch: e,
                        graphs: tg_core::GraphsView::empty(),
                        epoch_string: Some(epoch_string(fresh, e)),
                    };
                    hoarder.place(&view, &good, 0, &mut rng).len()
                })
                .collect()
        };
        let fresh = run(true);
        let frozen = run(false);
        // ≈ 40 solutions per window. Fresh strings: flat. Frozen: linear.
        for &c in &fresh {
            assert!((15..90).contains(&c), "fresh-string release {c} should stay ≈ one window");
        }
        assert!(
            *frozen.last().unwrap() > 3 * frozen[0],
            "frozen-string hoard must compound: {frozen:?}"
        );
        assert!(
            *frozen.last().unwrap() > 2 * *fresh.last().unwrap(),
            "frozen {} vs fresh {}",
            frozen.last().unwrap(),
            fresh.last().unwrap()
        );
    }

    #[test]
    fn hoarder_without_pow_is_uniform_within_budget() {
        let fam = OracleFamily::new(9);
        let mut hoarder = PrecomputeHoarder::new(fam, easy_puzzle(), 2000);
        let mut rng = StdRng::seed_from_u64(4);
        let good: Vec<Id> = (0..200).map(|_| Id(rng.gen())).collect();
        let bad = hoarder.place(&AdversaryView::genesis(0), &good, 10, &mut rng);
        assert_eq!(bad.len(), 10, "no-PoW pipeline holds the hoarder to its budget");
        assert_eq!(hoarder.hoard_len(), 0, "nothing to grind without an epoch string");
    }

    #[test]
    fn provider_is_deterministic() {
        let run = || {
            let mut p =
                StrategicPowProvider::new(&window(300, 15.0), MintScheme::TwoHash, GapFilling);
            let mut rng = StdRng::seed_from_u64(5);
            p.ids_for_epoch(2, &AdversaryView::genesis(2), &mut rng)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.good, b.good);
        assert_eq!(a.bad, b.bad);
    }
}
