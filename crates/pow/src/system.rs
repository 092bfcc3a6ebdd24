//! The complete tiny-groups system: §II + §III + §IV composed.
//!
//! One [`EpochDriver::step`] of [`FullSystem`] performs the paper's
//! whole per-epoch pipeline:
//!
//! 1. **strings** — the Appendix VIII protocol runs over the current
//!    operational group graph; the agreed minimum becomes the next epoch
//!    string `r_i` (every good ID can verify any ID signed by a string
//!    in its solution set),
//! 2. **minting** — participants grind puzzles against `r_i`
//!    (`g(σ ⊕ r_i) ≤ τ`, ID = `f(g(σ ⊕ r_i))`); the adversary's pooled
//!    compute yields its `≈ βn` u.a.r. IDs (Lemma 11),
//! 3. **dynamics** — the §III epoch advance: churn, dual-search
//!    construction of the next two group graphs through the current
//!    ones, robustness measurement, swap.
//!
//! This is the type a downstream system would embed, and the driver
//! `tg_pow::scenario::build` returns for a `strings=protocol` spec; the
//! examples and integration tests drive it end to end.
//!
//! The minting step runs at two fidelities. By default it is the
//! statistical [`MintingSim`] (Lemma 11's counts, uniform values). With
//! [`FullSystem::with_adversary`] it becomes the strategic pipeline: a
//! [`StrategicPowProvider`] whose placement strategy observes the
//! previous epoch's operational graphs and the **protocol-agreed epoch
//! string** before committing its IDs — so the adaptive adversaries of
//! `tg-core::dynamic::adversary` (and the §IV-B solution hoarder) face
//! the real epoch-string mechanics rather than a synthesized stand-in.

use crate::adversary::{StrategicPowProvider, GENESIS_STRING};
use crate::miner::MintingSim;
use crate::puzzle::PuzzleParams;
use crate::strings::{run_string_protocol, StringAdversary, StringOutcome, StringParams};
use tg_core::dynamic::{
    AdversaryView, BuildMode, DynamicSystem, EpochIds, EpochObservation, IdentityProvider,
};
use tg_core::runtime::{build_epoch, EpochNet};
use tg_core::scenario::EpochDriver;
use tg_core::{GraphsView, Params};
use tg_overlay::GraphKind;
use tg_sim::stream_rng;

/// The composed system.
pub struct FullSystem {
    /// The §III dynamic layer (owns the operational group graphs).
    pub dynamics: DynamicSystem,
    /// The statistical minting window: puzzle parameters, good
    /// participants, adversary compute (`≈ βn`) and whether good
    /// minting is idealized (paper assumption) or misses realistically.
    pub minting: MintingSim,
    /// String-protocol parameters.
    pub string_params: StringParams,
    /// String-release adversary applied each epoch.
    pub string_adversary: StringAdversary,
    /// When set, identities are minted through this strategic pipeline
    /// instead of the statistical [`MintingSim`]: the adversary's
    /// placement policy observes the previous epoch's operational graphs
    /// *and* the protocol-agreed epoch string before committing its IDs
    /// — the §IV-B mechanics (hoarding, stale-solution culling,
    /// re-minting) facing an adaptive adversary.
    pub adversary: Option<StrategicPowProvider>,
    /// Whether minting binds to the freshly agreed string each epoch
    /// (§IV-B). With `false` the genesis string stays in force forever —
    /// the broken deployment that lets pre-computation hoards compound.
    pub fresh_strings: bool,
    /// The actor-runtime network the protocol phases run over; `None`
    /// (`runtime=sync`) advances each epoch as one in-process step.
    /// `tg_pow::scenario::build` sets it from the spec's runtime.
    pub(crate) net: Option<EpochNet>,
    epoch_string: u64,
    last_strings: Option<StringOutcome>,
    obs: EpochObservation,
    master_seed: u64,
}

impl FullSystem {
    /// Boot the system: initial graphs from a first minting window
    /// against a genesis string.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: Params,
        kind: GraphKind,
        puzzle: PuzzleParams,
        string_params: StringParams,
        n_good: usize,
        adversary_units: f64,
        idealized_good: bool,
        master_seed: u64,
    ) -> Self {
        let minting = MintingSim { params: puzzle, n_good, adversary_units, idealized_good };
        let mut rng = stream_rng(master_seed, "full-init-mint", 0);
        // The trusted bootstrap needs identities to build on: a genesis
        // window that minted none is run again.
        let mut genesis = loop {
            let minted = minting.run_window(&mut rng);
            if !(minted.good_ids.is_empty() && minted.bad_ids.is_empty()) {
                break EpochIds { good: minted.good_ids, bad: minted.bad_ids };
            }
        };
        let dynamics =
            DynamicSystem::new(params, kind, BuildMode::DualGraph, &mut genesis, master_seed);
        FullSystem {
            dynamics,
            minting,
            string_params,
            string_adversary: StringAdversary::None,
            adversary: None,
            fresh_strings: true,
            net: None,
            epoch_string: GENESIS_STRING,
            last_strings: None,
            obs: EpochObservation::default(),
            master_seed,
        }
    }

    /// Install a strategic adversary: from the next step on, identities
    /// are minted through `provider` (placement strategy + minting
    /// scheme) with the real protocol-agreed epoch string in its
    /// [`AdversaryView`]. The initial graphs built by [`FullSystem::new`]
    /// predate the adversary's first observation, matching the paper's
    /// trusted-bootstrap assumption (Appendix X).
    pub fn with_adversary(mut self, provider: StrategicPowProvider) -> Self {
        self.adversary = Some(provider);
        self
    }

    /// Disable the §IV-B fresh-string defense: minting stays bound to the
    /// genesis string forever (the string protocol still runs and agrees;
    /// the deployment just never rotates its minting string).
    pub fn with_frozen_strings(mut self) -> Self {
        self.fresh_strings = false;
        self
    }

    /// The current epoch string.
    pub fn epoch_string(&self) -> u64 {
        self.epoch_string
    }

    /// The last epoch's string-protocol measurements in full (Lemma 12);
    /// the epoch's record keeps only their agreement and coverage.
    /// `None` before the first step.
    pub fn last_strings(&self) -> Option<&StringOutcome> {
        self.last_strings.as_ref()
    }
}

/// One step is one full epoch — strings → minting → dynamics — with the
/// protocol phases routed over the system's network when it has one:
///
/// 1. **strings** — after agreement, the string is broadcast; nodes the
///    broadcast misses cannot verify peers, so `verification_coverage`
///    is scaled by the reach fraction,
/// 2. **minting** — every minted good ID announces itself over the
///    transport; announcements the network loses never enter the
///    epoch's ring (the adversary bypasses the network — the worst-case
///    insider), and `minted_good`/`bad_share` measure the *delivered*
///    population,
/// 3. **dynamics** — unchanged, with the routing-probe phase beside the
///    build ([`build_epoch`]); then [`EpochNet::finish_epoch`] scales
///    measured search success by the fraction of completed probe chains
///    and records the epoch's late messages.
///
/// The record is the dynamic layer's, with the census (`bad_ids` is the
/// minted bad count), the §IV fields and the network's share filled in.
/// No network (or a perfect transport) gives the same record to the
/// byte.
impl EpochDriver for FullSystem {
    fn step(&mut self) -> &EpochObservation {
        let epoch = self.dynamics.epoch();

        // 1. Agree on the next epoch string over the operational graph.
        let mut srng = stream_rng(self.master_seed, "full-strings", epoch);
        let strings = {
            let side0 = self.dynamics.graphs().side(0);
            run_string_protocol(&side0, &self.string_params, self.string_adversary, &mut srng)
        };
        let pairs = (strings.giant_size as u64).pow(2);
        let mut verification_coverage =
            if pairs == 0 { 0.0 } else { 1.0 - strings.missing_pairs as f64 / pairs as f64 };
        // Fold the agreed minimum into the epoch string (a fresh string
        // per epoch is what defeats pre-computation, §IV-B).
        let next_string = strings
            .global_min_key
            .map(|k| k ^ self.epoch_string.rotate_left(17) ^ epoch)
            .unwrap_or_else(|| self.epoch_string.wrapping_mul(0x9e3779b97f4a7c15) ^ epoch);

        // The string minting binds to: the freshly agreed one under the
        // §IV-B defense, the genesis constant when the defense is off.
        let mint_string = if self.fresh_strings { next_string } else { GENESIS_STRING };

        // Disseminate the agreed string over the network; unreached
        // nodes cannot verify peers. The `< 1.0` guard keeps the
        // perfect-transport path bit-exact.
        if let Some(net) = self.net.as_mut() {
            let reach = net.string_phase(epoch, mint_string);
            if reach < 1.0 {
                verification_coverage *= reach;
            }
        }

        // 2. Mint against that string. The census counts what the
        //    announcement phase *delivered*.
        let census = |ids: &EpochIds| (ids.good.len(), ids.bad.len(), ids.bad_ring_share());
        let net = &mut self.net;
        let (minted, (good, bad, bad_share), good_misses) = match self.adversary.as_mut() {
            // Strategic pipeline: minting happens inside the dynamic
            // layer's mint, where the provider's view carries the
            // churned operational graphs and the string in force —
            // hoarders grind against the real string, and stale
            // solutions die (or compound, under frozen strings) at
            // verification.
            Some(adv) => {
                let mut counts = (0, 0, 0.0);
                let minted = self.dynamics.mint_epoch(|view, rng| {
                    let view = AdversaryView { epoch_string: Some(mint_string), ..*view };
                    let mut ids = adv.ids_for_epoch(view.epoch, &view, rng);
                    if let Some(net) = net {
                        net.announce_phase(view.epoch, &mut ids);
                    }
                    counts = census(&ids);
                    ids
                });
                (minted, counts, 0)
            }
            // Statistical pipeline (Lemma 11's counts, uniform values),
            // minted before the dynamic layer's mint and handed over.
            None => {
                let mut mrng = stream_rng(self.master_seed ^ mint_string, "full-mint", epoch);
                let window = self.minting.run_window(&mut mrng);
                let mut ids = EpochIds { good: window.good_ids, bad: window.bad_ids };
                if let Some(net) = net {
                    net.announce_phase(epoch, &mut ids);
                }
                let counts = census(&ids);
                (self.dynamics.mint_epoch(|_, _| ids), counts, window.good_misses)
            }
        };

        // 3. Advance the dynamic layer, with the network's routing
        //    probes beside its build.
        let mut obs = build_epoch(&mut self.dynamics, minted, self.net.as_mut());
        obs.minted_good = Some(good);
        obs.bad_ids = bad;
        obs.good_misses = Some(good_misses);
        obs.bad_share = bad_share;
        obs.epoch_string = Some(next_string);
        obs.strings_agreement = Some(strings.agreement);
        obs.verification_coverage = Some(verification_coverage);

        self.epoch_string = next_string;
        self.last_strings = Some(strings);
        self.obs = obs;
        &self.obs
    }

    fn observation(&self) -> &EpochObservation {
        &self.obs
    }

    fn graphs(&self) -> GraphsView<'_> {
        self.dynamics.graphs()
    }

    fn epoch(&self) -> u64 {
        self.dynamics.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::MintScheme;
    use tg_core::GroupGraphView;

    fn system(seed: u64) -> FullSystem {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.15;
        params.attack_requests_per_id = 1;
        let mut sys = FullSystem::new(
            params,
            GraphKind::Chord,
            PuzzleParams::calibrated(16, 2048),
            StringParams::default(),
            700,
            35.0, // β = 5%
            true,
            seed,
        );
        sys.dynamics.set_searches_per_epoch(200);
        sys
    }

    #[test]
    fn full_pipeline_stays_robust_over_epochs() {
        let mut sys = system(41);
        let mut last_string = sys.epoch_string();
        for _ in 0..4 {
            let r = sys.step();
            assert_eq!(r.strings_agreement, Some(true), "epoch {}: string disagreement", r.epoch);
            assert_eq!(r.verification_coverage, Some(1.0));
            let string = r.epoch_string.unwrap();
            assert_ne!(string, last_string, "epoch strings must refresh");
            last_string = string;
            let bad_ratio = r.bad_ids as f64 / 35.0;
            assert!((0.5..1.6).contains(&bad_ratio), "bad_ids {}", r.bad_ids);
            assert!(
                r.search_success_dual > 0.9,
                "epoch {}: dual success {:.3}",
                r.epoch,
                r.search_success_dual
            );
        }
    }

    #[test]
    fn full_pipeline_with_string_adversary() {
        let mut sys = system(43);
        sys.string_adversary =
            crate::strings::StringAdversary::ForcedRecords { strings: 4, release_frac: 0.49 };
        for _ in 0..3 {
            let r = sys.step();
            assert_eq!(
                r.strings_agreement,
                Some(true),
                "epoch {}: forced records broke agreement",
                r.epoch
            );
            assert!(r.search_success_dual > 0.9);
        }
    }

    #[test]
    fn realistic_minting_shrinks_population_but_survives() {
        let mut sys = system(47);
        sys.minting.idealized_good = false;
        let r = sys.step();
        // ≈ 1/e of good participants miss the window; the system keeps
        // running on the (1 − 1/e) that minted.
        assert!(r.good_misses.unwrap() > 0);
        let frac = r.minted_good.unwrap() as f64 / 700.0;
        assert!((0.55..0.75).contains(&frac), "minted fraction {frac:.3}");
        assert!(r.search_success_dual > 0.85);
    }

    #[test]
    fn all_red_system_still_advances_on_the_fallback_string() {
        // A 10:1 adversary majority colors every group red: the flood
        // has no giant component and agrees on nothing, so the epoch
        // string must come from the fallback mix — and the epoch must
        // still run.
        let mut sys = FullSystem::new(
            Params::paper_defaults(),
            GraphKind::Chord,
            PuzzleParams::calibrated(16, 2048),
            StringParams::default(),
            60,
            600.0,
            true,
            67,
        );
        sys.dynamics.set_searches_per_epoch(20);
        assert_eq!(sys.dynamics.graphs().side(0).frac_red(), 1.0);
        let mut last_string = sys.epoch_string();
        for _ in 0..2 {
            let before = sys.dynamics.epoch();
            let r = sys.step().clone();
            assert_eq!(sys.dynamics.epoch(), before + 1);
            let strings = sys.last_strings().unwrap();
            assert_eq!(strings.giant_size, 0);
            assert_eq!(strings.global_min_key, None);
            assert_eq!(r.strings_agreement, Some(true), "vacuously");
            assert_eq!(r.verification_coverage, Some(0.0), "no good pair can verify");
            let string = r.epoch_string.unwrap();
            assert_ne!(string, last_string, "the fallback mix still refreshes");
            last_string = string;
        }
    }

    #[test]
    fn deterministic() {
        let mut a = system(53);
        let mut b = system(53);
        let ra = a.step();
        let rb = b.step();
        assert_eq!(ra.epoch_string, rb.epoch_string);
        assert_eq!(ra.bad_ids, rb.bad_ids);
        assert_eq!(ra.frac_red, rb.frac_red);
    }

    #[test]
    fn statistical_minting_keeps_bad_share_near_beta() {
        let mut sys = system(59);
        let r = sys.step();
        // β = 35/735 ≈ 0.0476; uniform minting keeps the key-space share
        // in the same ballpark.
        assert!((0.02..0.10).contains(&r.bad_share), "bad_share {:.4}", r.bad_share);
    }

    fn strategic_system(seed: u64, scheme: MintScheme) -> FullSystem {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.15;
        params.attack_requests_per_id = 1;
        let mut sys = FullSystem::new(
            params,
            GraphKind::Chord,
            PuzzleParams::calibrated(16, 2048),
            StringParams::default(),
            700,
            35.0, // β ≈ 5%
            true,
            seed,
        )
        .with_adversary(StrategicPowProvider::boxed(
            700,
            35.0,
            scheme,
            Box::new(tg_core::dynamic::GapFilling),
        ));
        sys.dynamics.set_searches_per_epoch(200);
        sys
    }

    /// The full protocol against a placement strategy: the single-hash
    /// ablation lets gap-filling through, the paper's `f∘g` holds the
    /// share at the uniform noise floor — measured on the real
    /// epoch-string pipeline, not the abstract dynamic layer.
    #[test]
    fn strategic_single_hash_realizes_placement_fog_discards_it() {
        let last_share = |scheme| {
            let mut sys = strategic_system(61, scheme);
            (0..2).map(|_| sys.step().bad_share).last().unwrap()
        };
        let beta = 35.0 / 735.0;
        let single = last_share(MintScheme::SingleHash);
        let fog = last_share(MintScheme::TwoHash);
        assert!(single > 2.0 * beta, "single-hash share {single:.4} must be amplified");
        assert!(fog < 2.0 * beta, "f∘g share {fog:.4} must stay near β {beta:.4}");
    }

    /// §IV-B over the real protocol strings: a hoarder grinding against
    /// the string in force is held to one window's yield when the agreed
    /// string rotates, and compounds epoch over epoch when the
    /// deployment freezes its minting string.
    #[test]
    fn hoarder_vs_real_epoch_strings() {
        let minted_bad = |frozen: bool| -> Vec<usize> {
            let mut params = Params::paper_defaults();
            params.churn_rate = 0.15;
            params.attack_requests_per_id = 1;
            let fam = tg_crypto::OracleFamily::new(71);
            let puzzle = PuzzleParams {
                tau: tg_idspace::Id::from_f64(0.02),
                attempts_per_step: 1,
                t_epoch: 2,
            };
            let hoarder = crate::adversary::PrecomputeHoarder::new(fam, puzzle, 2000);
            let mut sys = FullSystem::new(
                params,
                GraphKind::Chord,
                PuzzleParams::calibrated(16, 2048),
                StringParams::default(),
                700,
                35.0,
                true,
                67,
            )
            .with_adversary(StrategicPowProvider::boxed(
                700,
                35.0,
                MintScheme::TwoHash,
                Box::new(hoarder),
            ));
            if frozen {
                sys = sys.with_frozen_strings();
            }
            sys.dynamics.set_searches_per_epoch(200);
            (0..4).map(|_| sys.step().bad_ids).collect()
        };
        let fresh = minted_bad(false);
        let frozen = minted_bad(true);
        for &c in &fresh {
            assert!(c < 100, "fresh strings must cull the hoard each epoch: {fresh:?}");
        }
        assert!(
            *frozen.last().unwrap() > 3 * frozen[0] / 2
                && *frozen.last().unwrap() > 2 * *fresh.last().unwrap(),
            "frozen-string hoard must compound: frozen {frozen:?} vs fresh {fresh:?}"
        );
    }

    /// The churn-timed adversary composed through the full §IV protocol
    /// (string agreement + strategic minting): under light churn it
    /// camouflages — a retainer-sized minting count and a near-uniform
    /// key-space share — and the epoch a heavy departure wave lands it
    /// spends the whole budget end-on (realized here by the single-hash
    /// ablation; `f∘g` would discard the placement but not the timing).
    #[test]
    fn churn_timed_strikes_only_after_heavy_departure_over_full_protocol() {
        let run = |churn: f64| -> (usize, f64) {
            let mut params = Params::paper_defaults();
            params.churn_rate = churn;
            params.attack_requests_per_id = 0;
            let mut sys = FullSystem::new(
                params,
                GraphKind::Chord,
                PuzzleParams::calibrated(16, 2048),
                StringParams::default(),
                700,
                35.0, // β ≈ 5%
                true,
                83,
            )
            .with_adversary(StrategicPowProvider::boxed(
                700,
                35.0,
                MintScheme::SingleHash,
                Box::new(tg_core::dynamic::ChurnTimed::default()),
            ));
            sys.dynamics.set_searches_per_epoch(100);
            sys.step();
            let r = sys.step();
            (r.bad_ids, r.bad_share)
        };
        let (quiet_bad, quiet_share) = run(0.05);
        let (heavy_bad, heavy_share) = run(0.25);
        // Quiet: ≈ 20% of the ≈35-solution window; heavy: all of it.
        assert!(quiet_bad < 18, "quiet epochs must hold back: minted {quiet_bad}");
        assert!(heavy_bad > 22, "strike epochs must spend the budget: minted {heavy_bad}");
        let beta = 35.0 / 735.0;
        assert!(
            heavy_share > 2.0 * beta,
            "single-hash strike share {heavy_share:.4} must be amplified over β {beta:.4}"
        );
        assert!(
            quiet_share < heavy_share / 2.0,
            "camouflage share {quiet_share:.4} vs strike {heavy_share:.4}"
        );
    }

    /// The strategy inside a strategic `FullSystem` sees the string
    /// minting binds to, every epoch: the freshly agreed one, or the
    /// genesis string under frozen strings. (Left to itself, the
    /// provider would synthesize a fresh string in both cases.)
    #[test]
    fn strategy_sees_the_string_in_force() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tg_core::dynamic::{AdversaryStrategy, Uniform};
        use tg_idspace::Id;

        struct Spy(Rc<RefCell<Vec<Option<u64>>>>);
        impl AdversaryStrategy for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn place(
                &mut self,
                view: &AdversaryView<'_>,
                good: &[Id],
                budget: usize,
                rng: &mut rand::rngs::StdRng,
            ) -> Vec<Id> {
                self.0.borrow_mut().push(view.epoch_string);
                Uniform.place(view, good, budget, rng)
            }
        }
        for frozen in [false, true] {
            let seen = Rc::default();
            let spy = Spy(Rc::clone(&seen));
            let mut sys = system(79).with_adversary(StrategicPowProvider::new(
                700,
                35.0,
                MintScheme::TwoHash,
                spy,
            ));
            sys.fresh_strings = !frozen;
            let in_force: Vec<Option<u64>> = (0..3)
                .map(|_| {
                    let agreed = sys.step().epoch_string;
                    if frozen {
                        Some(GENESIS_STRING)
                    } else {
                        agreed
                    }
                })
                .collect();
            assert_eq!(*seen.borrow(), in_force, "frozen: {frozen}");
        }
    }

    #[test]
    fn strategic_pipeline_is_deterministic() {
        let run = || {
            let mut sys = strategic_system(73, MintScheme::SingleHash);
            let r = sys.step().clone();
            format!("{r:#?}\n{:#?}", sys.last_strings())
        };
        assert_eq!(run(), run());
    }
}
