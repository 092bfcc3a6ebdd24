//! The **total** scenario builder: every [`ScenarioSpec`] becomes a
//! [`Box<dyn EpochDriver>`] here, PoW defenses included.
//!
//! `tg_core::scenario` owns the spec, the driver trait, and the no-PoW
//! driver, but crate dependencies point upward, so the core-level
//! `ScenarioSpec::build` cannot construct the minting pipeline and
//! returns [`ScenarioError::NeedsPowLayer`] for specs that require it.
//! This module closes the gap with [`build`], which accepts every spec:
//!
//! * [`Defense::NoPow`] — delegated to the core builder (with the one
//!   exception of the [`StrategySpec::PrecomputeHoarder`] strategy,
//!   whose puzzle-grinding object lives in this crate even when it runs
//!   on the no-PoW pipeline, where it degrades to uniform placement),
//! * [`Defense::Pow`] + [`StringMode::Protocol`] — the full §IV
//!   [`FullSystem`]: the Appendix VIII string protocol runs over the
//!   operational graphs each epoch, minting binds to the agreed string
//!   (or stays frozen to genesis when the §IV-B defense is off), and a
//!   strategic spec threads its placement policy through
//!   [`StrategicPowProvider`],
//! * [`Defense::Pow`] + [`StringMode::Synthesized`] — the provider-level
//!   shortcut (the E10 sweep convention): the same minting pipeline
//!   driven inside a plain dynamic system with a synthesized per-epoch
//!   string under the same fresh-vs-frozen policy, and honest specs
//!   minting through the statistical [`MintingSim`].
//!
//! All three arms produce drivers over the **same**
//! [`EpochObservation`](tg_core::scenario::EpochObservation); consumers
//! never branch on which system is behind the trait.

use crate::adversary::{MintScheme, PrecomputeHoarder, StrategicPowProvider};
use crate::miner::MintingSim;
use crate::provider::PowProvider;
use crate::puzzle::PuzzleParams;
use crate::strings::StringParams;
use crate::system::FullSystem;
use tg_core::dynamic::adversary::AdversaryStrategy;
use tg_core::dynamic::{BuildMode, IdentityProvider, StrategicProvider};
use tg_core::runtime::EpochNet;
use tg_core::scenario::{
    Defense, DynamicDriver, EpochDriver, ScenarioError, ScenarioSpec, StrategySpec, StringMode,
};
use tg_crypto::OracleFamily;
use tg_idspace::Id;

/// The easy hoarder calibration every sweep uses: exact grinding at
/// `τ = 0.02` stays cheap, and counts — not difficulty — are what the
/// §IV-B contrast measures.
pub fn hoarder_puzzle() -> PuzzleParams {
    PuzzleParams { tau: Id::from_f64(0.02), attempts_per_step: 1, t_epoch: 2 }
}

/// Build the runtime strategy object for any [`StrategySpec`] except
/// [`StrategySpec::Honest`] (which selects a provider, not a strategy).
pub fn build_strategy(spec: &StrategySpec) -> Option<Box<dyn AdversaryStrategy>> {
    match *spec {
        StrategySpec::PrecomputeHoarder { fam_seed, attempts } => Some(Box::new(
            PrecomputeHoarder::new(OracleFamily::new(fam_seed), hoarder_puzzle(), attempts),
        )),
        _ => spec.build_strategy(),
    }
}

/// Build the driver for **any** scenario — the entry point every
/// experiment, frontier cell, bench, and example constructs systems
/// through.
pub fn build(spec: &ScenarioSpec) -> Result<Box<dyn EpochDriver>, ScenarioError> {
    spec.check_transport()?;
    match spec.defense {
        Defense::NoPow => match spec.strategy {
            // The hoarder object lives in this crate; on the no-PoW
            // pipeline it degrades to uniform placement within budget.
            StrategySpec::PrecomputeHoarder { .. } => {
                let strategy = build_strategy(&spec.strategy).expect("hoarder is a strategy");
                let inner = Box::new(StrategicProvider::boxed(spec.n_good, spec.n_bad, strategy));
                Ok(Box::new(DynamicDriver::with_provider(spec, inner)))
            }
            _ => spec.build(),
        },
        Defense::Pow { scheme, fresh_strings } => match spec.strings {
            StringMode::Protocol => build_protocol(spec, scheme, fresh_strings),
            StringMode::Synthesized => build_synthesized(spec, scheme, fresh_strings),
        },
    }
}

/// The full §IV protocol: [`FullSystem`] with the spec's strategy (if
/// any) minting through the real epoch-string agreement.
fn build_protocol(
    spec: &ScenarioSpec,
    scheme: MintScheme,
    fresh_strings: bool,
) -> Result<Box<dyn EpochDriver>, ScenarioError> {
    if spec.mode != BuildMode::DualGraph {
        return Err(ScenarioError::Unsupported(
            "the string protocol runs over the dual-graph construction only",
        ));
    }
    let mut sys = FullSystem::new(
        spec.params,
        spec.kind,
        PuzzleParams::calibrated(16, 2048),
        StringParams::default(),
        spec.n_good,
        spec.n_bad as f64,
        spec.idealized_good,
        spec.seed,
    );
    // `None` means honest: the statistical minting pipeline inside
    // `FullSystem` (no strategic provider to install).
    if let Some(strategy) = build_strategy(&spec.strategy) {
        sys = sys.with_adversary(StrategicPowProvider::boxed(
            spec.n_good,
            spec.n_bad as f64,
            scheme,
            strategy,
        ));
    }
    if !fresh_strings {
        sys = sys.with_frozen_strings();
    }
    sys.string_adversary = spec.string_adversary;
    sys.dynamics.set_searches_per_epoch(spec.searches);
    // Under the actor runtime the protocol phases (string dissemination,
    // membership announcement, routing probes) go over the spec's
    // network; the genesis build stays trusted bootstrap.
    sys.net = EpochNet::for_runtime(spec);
    Ok(Box::new(sys))
}

/// The provider-level shortcut: the minting pipeline (strategic or
/// statistical) inside a plain dynamic system, strings synthesized.
fn build_synthesized(
    spec: &ScenarioSpec,
    scheme: MintScheme,
    fresh_strings: bool,
) -> Result<Box<dyn EpochDriver>, ScenarioError> {
    let inner: Box<dyn IdentityProvider> = match build_strategy(&spec.strategy) {
        Some(strategy) => {
            let mut p =
                StrategicPowProvider::boxed(spec.n_good, spec.n_bad as f64, scheme, strategy);
            p.fresh_strings = fresh_strings;
            Box::new(p)
        }
        None => Box::new(PowProvider {
            sim: MintingSim {
                params: PuzzleParams::calibrated(16, 2048),
                n_good: spec.n_good,
                adversary_units: spec.n_bad as f64,
                idealized_good: spec.idealized_good,
            },
        }),
    };
    Ok(Box::new(DynamicDriver::with_provider(spec, inner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strings::StringAdversary;
    use tg_core::dynamic::IdentityProvider;
    use tg_core::runtime::RuntimeChoice;
    use tg_core::scenario::StringAdversarySpec;
    use tg_core::Params;
    use tg_overlay::GraphKind;

    fn base() -> ScenarioSpec {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.15;
        params.attack_requests_per_id = 1;
        ScenarioSpec::new(700, 41).params(params).budget(35).searches(200)
    }

    /// The conformance contract at the PoW layer: a spec-built driver
    /// reproduces a hand-constructed [`FullSystem`] run record-for-record,
    /// honest and strategic alike.
    #[test]
    fn full_driver_matches_direct_full_system() {
        for (strategy, scheme) in [
            (StrategySpec::Honest, MintScheme::TwoHash),
            (StrategySpec::GapFilling, MintScheme::SingleHash),
        ] {
            let spec = base()
                .strategy(strategy)
                .defense(Defense::Pow { scheme, fresh_strings: true })
                .topology(GraphKind::Chord);
            let mut driver = build(&spec).unwrap();

            let mut sys = FullSystem::new(
                spec.params,
                spec.kind,
                PuzzleParams::calibrated(16, 2048),
                StringParams::default(),
                spec.n_good,
                spec.n_bad as f64,
                true,
                spec.seed,
            );
            if strategy != StrategySpec::Honest {
                sys = sys.with_adversary(StrategicPowProvider::boxed(
                    spec.n_good,
                    spec.n_bad as f64,
                    scheme,
                    strategy.build_strategy().unwrap(),
                ));
            }
            sys.dynamics.set_searches_per_epoch(spec.searches);

            for _ in 0..2 {
                assert_eq!(format!("{:?}", driver.step()), format!("{:?}", sys.step()));
            }
        }
    }

    /// The synthesized-strings arm reproduces the provider-level
    /// composition (pow provider inside a plain dynamic system, its
    /// census counted inline) record-for-record.
    #[test]
    fn synthesized_driver_matches_direct_provider_composition() {
        let spec = base()
            .strategy(StrategySpec::GapFilling)
            .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true })
            .strings(StringMode::Synthesized)
            .topology(GraphKind::D2B);
        let mut driver = build(&spec).unwrap();

        let mut provider = StrategicPowProvider::boxed(
            spec.n_good,
            spec.n_bad as f64,
            MintScheme::SingleHash,
            Box::new(tg_core::dynamic::GapFilling),
        );
        let mut sys = tg_core::dynamic::DynamicSystem::new(
            spec.params,
            spec.kind,
            spec.mode,
            &mut provider,
            spec.seed,
        );
        sys.set_searches_per_epoch(spec.searches);

        for _ in 0..2 {
            let mut minted = None;
            let next = sys.mint_epoch(|view, rng| {
                let ids = provider.ids_for_epoch(view.epoch, view, rng);
                minted = Some((ids.bad.len(), ids.bad_ring_share()));
                ids
            });
            let mut r = sys.build_epoch(next);
            (r.bad_ids, r.bad_share) = minted.unwrap();
            let o = driver.step();
            assert_eq!(format!("{o:?}"), format!("{r:?}"));
            assert!(o.epoch_string.is_none(), "synthesized strings never reach the observation");
        }
    }

    /// Every defense × string-mode × strategy family combination builds
    /// and steps (the split the API erases).
    #[test]
    fn every_arm_builds_and_steps() {
        let hoarder = StrategySpec::PrecomputeHoarder { fam_seed: 9, attempts: 200 };
        let specs = [
            base().strategy(hoarder),
            base()
                .strategy(hoarder)
                .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false })
                .strings(StringMode::Synthesized),
            base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
            base()
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true })
                .strings(StringMode::Synthesized),
        ];
        for spec in specs {
            let mut driver = build(&spec).unwrap();
            let o = driver.step();
            assert_eq!(o.epoch, 2, "spec {}", spec.label());
            assert!(o.total_groups > 0);
        }
    }

    #[test]
    fn string_adversaries_at_the_compute_extremes_run() {
        // `units = 0` is an adversary with no compute (e7 passes
        // `units: n_bad`): every string it releases is worse than any
        // good one. At `units = 1e308` its attempt count overflows to ∞
        // and its outputs clamp to the smallest positive float. Negative
        // or infinite units are refused instead.
        let fog = Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true };
        let spec = |units| {
            ScenarioSpec::new(40, 42).searches(10).defense(fog).string_adversary(
                StringAdversarySpec::DelayedRelease { strings: 3, release_frac: 0.49, units },
            )
        };
        for units in [0.0, 1e308] {
            let mut driver = build(&spec(units)).unwrap();
            driver.step();
            assert_eq!(driver.step().epoch, 3, "{units}");
        }
        for units in [-1.0, f64::INFINITY] {
            assert!(matches!(build(&spec(units)), Err(ScenarioError::Unsupported(_))), "{units}");
        }
    }

    /// The tentpole equivalence at the PoW layer: the actor runtime over
    /// a perfect transport reproduces the synchronous driver's
    /// observations byte-identically, on every builder arm.
    #[test]
    fn actor_runtime_over_perfect_transport_matches_sync() {
        let specs = [
            base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
            base()
                .strategy(StrategySpec::GapFilling)
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true }),
            base()
                .strategy(StrategySpec::GapFilling)
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false })
                .strings(StringMode::Synthesized),
            base().strategy(StrategySpec::PrecomputeHoarder { fam_seed: 9, attempts: 200 }),
        ];
        for spec in specs {
            let mut sync = build(&spec).unwrap();
            let mut actor = build(&spec.clone().runtime(RuntimeChoice::Actor)).unwrap();
            for _ in 0..2 {
                assert_eq!(
                    format!("{:?}", sync.step()),
                    format!("{:?}", actor.step()),
                    "spec {}",
                    spec.label()
                );
            }
        }
    }

    /// Faults reach the PoW pipeline: drops lose announcements (fewer
    /// delivered good IDs) and fail probe chains (lower success).
    #[test]
    fn lossy_transport_degrades_the_full_protocol() {
        let spec = base()
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
            .runtime(RuntimeChoice::Actor);
        let mut perfect = build(&spec).unwrap();
        let mut lossy = build(&spec.clone().drop_rate(0.4)).unwrap();
        let (mut fewer_good, mut lower_success) = (false, false);
        for _ in 0..2 {
            let (lg, ls) = {
                let o = lossy.step();
                (o.minted_good.unwrap(), o.search_success_dual)
            };
            let p = perfect.step();
            if lg < p.minted_good.unwrap() {
                fewer_good = true;
            }
            if ls < p.search_success_dual {
                lower_success = true;
            }
        }
        assert!(fewer_good, "drops must lose good announcements");
        assert!(lower_success, "drops must fail probe chains");
    }

    /// The faulty path, pinned to the byte (no other tier-1 test is:
    /// the suites compare mem↔socket or assert monotonicity). Three
    /// n = 300 specs under `drop=0.2;lat=8;part=16` — `FullSystem` on
    /// its statistical and its strategic arm, and `DynamicDriver` with a
    /// net — three epochs each; the rows were generated while the
    /// no-PoW actor path was still a driver of its own and must not move.
    /// The last column (`late`) is non-zero, so the per-epoch late
    /// count is pinned too.
    #[test]
    fn lossy_actor_rows_are_pinned() {
        use tg_core::scenario::ObsRow;
        let fog = Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true };
        let pinned = [
            (
                fog,
                StrategySpec::Honest,
                [
                    "o2;2,0.5333333333333333,0.5333333333333333,0,0,404,11,0.05169948395220566,9.259649122807017,191,0,14",
                    "o2;3,0.38333333333333336,0.38333333333333336,0,0,426,15,0.05634029538040993,14.403141361256544,198,0,13",
                    "o2;4,0.4666666666666667,0.4666666666666667,0,0,406,6,0.043741482026509654,13.212121212121213,197,0,13",
                ],
            ),
            (
                fog,
                StrategySpec::GapFilling,
                [
                    "o2;2,0.5,0.5,0,0,416,14,0.0468624652750268,9.501754385964912,194,0,15",
                    "o2;3,0.36666666666666664,0.36666666666666664,0,0,434,19,0.08966824990142652,14.448453608247423,198,0,15",
                    "o2;4,0.4666666666666667,0.4666666666666667,0,0,400,9,0.06630880993433493,12.474747474747474,191,0,16",
                ],
            ),
            (
                Defense::NoPow,
                StrategySpec::GapFilling,
                [
                    "o2;2,0.5,0.5,0,1,408,15,0.0985311648908344,8.901754385964912,NaN,NaN,15",
                    "o2;3,0.36666666666666664,0.36666666666666664,0,1,424,15,0.10115345454329219,13.386243386243386,NaN,NaN,11",
                    "o2;4,0.35,0.3811111111111111,0.043689320388349516,5,412,15,0.10232192287061924,12.619289340101522,NaN,NaN,14",
                ],
            ),
        ];
        for (defense, strategy, rows) in pinned {
            let spec = ScenarioSpec::new(285, 42)
                .budget(15)
                .churn(0.2)
                .searches(60)
                .strategy(strategy)
                .defense(defense)
                .runtime(RuntimeChoice::Actor)
                .drop_rate(0.2)
                .latency(8)
                .partition(16);
            let mut driver = build(&spec).unwrap();
            for want in rows {
                assert_eq!(ObsRow::of(driver.step()).encode_line(), want, "spec {}", spec.label());
            }
        }
    }

    /// The two drivers take their identity census at different points of
    /// the mint step, and drops show it: `DynamicDriver` counts the
    /// population as minted, before the announcement phase loses good
    /// IDs; a strategic `FullSystem` counts the population the network
    /// delivered. (ROADMAP item 5's swap flips the one assertion that
    /// names `DynamicDriver`.)
    #[test]
    fn census_orders_by_driver() {
        use tg_core::dynamic::EpochIds;
        use tg_core::GroupGraphView;
        // The key-space share of the bad IDs among the freshly built
        // graphs' leaders — the population that entered the epoch.
        let entered_share = |d: &dyn EpochDriver| {
            let side = d.graphs().side(0);
            let leaders = side.leaders();
            let ids = |i: Vec<usize>| i.into_iter().map(|i| leaders.ring().at(i)).collect();
            EpochIds { good: ids(leaders.good_indices()), bad: ids(leaders.bad_indices()) }
                .bad_ring_share()
        };
        let lossy = |spec: ScenarioSpec| spec.runtime(RuntimeChoice::Actor).drop_rate(0.5);
        let honest = ScenarioSpec::new(285, 42).budget(15).churn(0.2).searches(60);
        let strategic = honest
            .clone()
            .strategy(StrategySpec::GapFilling)
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true });
        // The honest mint reads no graph, so a sync twin mints the same
        // population as the lossy driver and delivers all of it.
        let mut twin = build(&honest).unwrap();
        let mut dynamic = build(&lossy(honest.clone())).unwrap();
        let mut full = build(&lossy(strategic)).unwrap();
        for _ in 0..2 {
            twin.step();
            let minted = entered_share(twin.as_ref());
            let dynamic_share = dynamic.step().bad_share;
            assert_ne!(minted, entered_share(dynamic.as_ref()), "drops change the ring");
            assert_eq!(dynamic_share, minted, "DynamicDriver counts the minted ring");
            let (minted_good, full_share) = {
                let o = full.step();
                (o.minted_good.unwrap(), o.bad_share)
            };
            assert!(minted_good < honest.n_good, "drops lose good announcements");
            assert_eq!(full_share, entered_share(full.as_ref()), "FullSystem counts the delivery");
        }
    }

    #[test]
    fn protocol_over_single_graph_is_unsupported() {
        let spec = base()
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
            .build_mode(BuildMode::SingleGraph);
        assert!(matches!(build(&spec), Err(ScenarioError::Unsupported(_))));
    }

    /// A population with no good identity — empty (`n=0;bad=0`) or
    /// adversary-only (`n=0;bad=5`) — is a typed error from both
    /// builders on every defense × string-mode arm, not the overlay
    /// constructors' "empty ring" panic or a genesis that waits forever
    /// for an identity; the smallest population still builds and steps.
    #[test]
    fn empty_population_is_rejected_by_both_builders() {
        let pow = |scheme| Defense::Pow { scheme, fresh_strings: true };
        let defenses = [Defense::NoPow, pow(MintScheme::TwoHash), pow(MintScheme::SingleHash)];
        for (defense, bad) in defenses.into_iter().flat_map(|d| [(d, 0), (d, 5)]) {
            for strings in [StringMode::Protocol, StringMode::Synthesized] {
                let empty = ScenarioSpec::new(0, 42).budget(bad).defense(defense).strings(strings);
                let what = empty.label();
                assert!(matches!(build(&empty), Err(ScenarioError::Unsupported(_))), "{what}");
                assert!(matches!(empty.build(), Err(ScenarioError::Unsupported(_))), "{what}");
            }
        }
        let one = ScenarioSpec::new(1, 42);
        assert_eq!(build(&one).expect("n=1 builds").step().epoch, 2);
    }

    /// The total builder enforces the transport/runtime pairing too:
    /// `transport=socket` + `runtime=sync` fails with the typed error
    /// before any system is constructed, on every defense arm.
    #[test]
    fn socket_without_actor_runtime_is_rejected_by_total_builder() {
        use tg_core::scenario::TransportChoice;
        for spec in [
            base(),
            base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
        ] {
            let bad = spec.transport(TransportChoice::Socket);
            assert!(
                matches!(build(&bad), Err(ScenarioError::NeedsActorRuntime(_))),
                "spec {} must be rejected",
                bad.label()
            );
            let ok = bad.runtime(RuntimeChoice::Actor);
            assert!(build(&ok).is_ok(), "spec {} must build", ok.label());
        }
    }

    /// The spec-level string-adversary axis reaches the composed
    /// system: a `stradv=` spec behaves exactly like the hand-set
    /// `FullSystem::string_adversary` field it replaces, and the knob
    /// measurably perturbs the string layer.
    #[test]
    fn spec_string_adversary_matches_hand_built_system() {
        let adv = StringAdversarySpec::ForcedRecords { strings: 4, release_frac: 0.5 };
        let spec = base()
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
            .string_adversary(adv);
        let mut driver = build(&spec).unwrap();

        let mut sys = FullSystem::new(
            spec.params,
            spec.kind,
            PuzzleParams::calibrated(16, 2048),
            StringParams::default(),
            spec.n_good,
            spec.n_bad as f64,
            true,
            spec.seed,
        );
        sys.string_adversary = StringAdversary::ForcedRecords { strings: 4, release_frac: 0.5 };
        sys.dynamics.set_searches_per_epoch(spec.searches);

        let mut diverged_from_clean = false;
        let mut clean = build(
            &base().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
        )
        .unwrap();
        for _ in 0..2 {
            let o = driver.step();
            assert_eq!(format!("{o:?}"), format!("{:?}", sys.step()));
            if o.epoch_string != clean.step().epoch_string {
                diverged_from_clean = true;
            }
        }
        assert!(diverged_from_clean, "forced records must perturb the agreed strings");
    }

    /// Real PoW observations survive the result-store line codec: every
    /// row the store would persist for a strategic `FullSystem` run
    /// decodes back bit-identical (the warm-replay contract at the
    /// layer that actually produces the numbers).
    #[test]
    fn pow_observations_round_trip_through_the_store_codec() {
        use tg_core::scenario::ObsRow;
        let spec = base()
            .strategy(StrategySpec::GapFilling)
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true });
        let mut driver = build(&spec).unwrap();
        for _ in 0..3 {
            let row = ObsRow::of(driver.step());
            let back = ObsRow::decode_line(&row.encode_line()).unwrap();
            assert_eq!(back.epoch, row.epoch);
            for (got, want) in [
                (back.search_success_single, row.search_success_single),
                (back.search_success_dual, row.search_success_dual),
                (back.frac_red_s0, row.frac_red_s0),
                (back.bad_share, row.bad_share),
                (back.mean_memberships, row.mean_memberships),
                (back.minted_good, row.minted_good),
                (back.good_misses, row.good_misses),
            ] {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            assert_eq!(
                (back.captured_groups, back.total_groups, back.bad_ids),
                (row.captured_groups, row.total_groups, row.bad_ids)
            );
        }
    }
}
