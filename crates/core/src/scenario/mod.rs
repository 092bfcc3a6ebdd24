//! The unified **scenario API**: one declarative spec and one driving
//! trait behind every system the repo can simulate.
//!
//! The paper's claims are all statements about *one* epoch process under
//! different defenses — §III's dynamic layer alone, or §IV's minting
//! pipeline in force — so every consumer reaches it through one door:
//!
//! ```text
//!        ScenarioSpec ──build()──▶ Box<dyn EpochDriver> ──step()──▶ &EpochObservation
//!        (declarative,             (erases the no-PoW /              (the one per-epoch
//!         round-trips via           PoW split)                        record; PoW fields
//!         label / JSON)                                               Option)
//! ```
//!
//! * [`ScenarioSpec`] — everything that defines a run: construction
//!   `Params`, topology (`GraphKind`), `BuildMode`, the defense in
//!   force ([`Defense`]: none, single-hash, `f∘g`, each optionally with
//!   the §IV-B fresh-string defense disabled), the adversary's placement
//!   policy and budget ([`StrategySpec`]), and the master seed. The spec
//!   is declarative data: it round-trips through a stable, hand-rolled
//!   string label ([`ScenarioSpec::label`] / [`ScenarioSpec::parse`])
//!   and a flat JSON object ([`ScenarioSpec::to_json`] /
//!   [`ScenarioSpec::from_json`]) with no serde dependency.
//! * [`EpochDriver`] — the one verb every system understands:
//!   [`EpochDriver::step`] advances one epoch and returns a borrowed
//!   [`EpochObservation`]; [`EpochDriver::run`] steps `n` epochs and
//!   returns one [`ObsRow`] per epoch — the form sweeps reduce and the
//!   result store keeps.
//! * [`EpochObservation`] — the one per-epoch record, re-exported from
//!   [`crate::dynamic`]: the §III measurements `DynamicSystem` takes,
//!   the §IV string/minting fields as `Option`s, the adversary census
//!   (`bad_ids`, `bad_share`) and the captured-group counts every sweep
//!   reads. Both epoch systems return it and the drivers store it as
//!   returned.
//!
//! ## Who builds what
//!
//! Crate dependencies point upward (`tg-pow` depends on `tg-core`), so
//! this module's [`ScenarioSpec::build`] constructs every scenario the
//! core layer can express — [`Defense::NoPow`] with any non-PoW strategy
//! — and returns [`ScenarioError::NeedsPowLayer`] for specs that require
//! the minting pipeline. `tg_pow::scenario::build` is the **total**
//! builder: it accepts every spec, delegating the core-only ones here.
//! Consumers that link `tg-pow` (the experiments, benches, examples)
//! should always use the total builder.
//!
//! ## Relation to the frontier cell key
//!
//! The frontier engines address their seed streams through
//! `RowKey::label`, a format frozen before this module existed (the
//! committed golden corpus replays through it byte-for-byte). That label
//! is the legacy *projection* of a spec's categorical axes; new axes and
//! new consumers should key on [`ScenarioSpec::label`], which encodes
//! the complete scenario.
//!
//! ## Layout, and adding an axis
//!
//! Four submodules, all re-exported here: `spec` (the declarative data
//! and its builder methods), `codec` (every string form, driven
//! by the one [`AXES`] table), `observation` ([`ObsRow`] and the
//! row's line codec) and `driver` ([`EpochDriver`],
//! [`DynamicDriver`], the core-layer `build`). A new scenario axis is
//! three steps:
//!
//! 1. a field on [`ScenarioSpec`], defaulted in [`ScenarioSpec::new`];
//! 2. a builder method next to the others in `spec`;
//! 3. one row in [`AXES`] — key, required or optional, encode, decode.
//!
//! `label`/`to_json`/`parse`/`from_json` walk the table, and the tests
//! in `tests/props_scenario.rs` enumerate it (missing / duplicate /
//! unknown key, elision at the default, round trip), so the row is the
//! whole codec change. A driver then reads the field where it matters.

mod codec;
mod driver;
mod observation;
mod spec;

pub use codec::{Axis, AXES};
pub use driver::{DynamicDriver, EpochDriver};
pub use observation::ObsRow;
pub use spec::{
    budget_for, Defense, MintScheme, ScenarioError, ScenarioSpec, StrategySpec,
    StringAdversarySpec, StringMode,
};

pub use crate::dynamic::kernel::KernelChoice;
pub use crate::dynamic::system::EpochObservation;
pub use crate::runtime::RuntimeChoice;
pub use tg_sim::net::{FaultPlan, TransportChoice};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::adversary::StrategicProvider;
    use crate::dynamic::build::BuildMode;
    use crate::dynamic::provider::{Census, IdentityProvider, UniformProvider};
    use crate::dynamic::DynamicSystem;
    use tg_overlay::GraphKind;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(380, 7).churn(0.1).attack_requests(1).searches(200)
    }

    #[test]
    fn label_round_trips() {
        let specs = [
            spec(),
            spec()
                .beta(0.12)
                .group_factor(6.0)
                .topology(GraphKind::D2B)
                .build_mode(BuildMode::SingleGraph)
                .strategy(StrategySpec::ChurnTimed { trigger: 0.12, retainer: 0.2 }),
            spec()
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false })
                .strings(StringMode::Synthesized)
                .strategy(StrategySpec::PrecomputeHoarder { fam_seed: 99, attempts: 2000 }),
            ScenarioSpec { kernel: KernelChoice::Arena, ..spec() },
        ];
        for s in specs {
            let label = s.label();
            assert_eq!(ScenarioSpec::parse(&label).unwrap(), s, "label: {label}");
            let json = s.to_json();
            assert_eq!(ScenarioSpec::from_json(&json).unwrap(), s, "json: {json}");
        }
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        for bad in [
            "",
            "tg0;n=1",
            "tg1;n=1",                              // missing fields
            &format!("{};extra=1", spec().label()), // unknown field
            &format!("{};n=380", spec().label()),   // duplicate field
            &spec().label().replace("kind=chord", "kind=moebius"),
            &spec().label().replace("strategy=honest", "strategy=quantum"),
            &format!("{};kernel=ring", spec().label()), // bad kernel token
            &format!("{};cap=4096", spec().label()),    // retired key
            &format!("{};kernel=arena;kernel=arena", spec().label()), // dup optional
        ] {
            assert!(ScenarioSpec::parse(bad).is_err(), "must reject: {bad}");
        }
        assert!(ScenarioSpec::from_json("{}").is_err());
        assert!(ScenarioSpec::from_json("not json").is_err());
    }

    #[test]
    fn core_build_rejects_pow_specs() {
        let pow = spec().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true });
        assert!(matches!(pow.build(), Err(ScenarioError::NeedsPowLayer(_))));
        let hoarder =
            spec().strategy(StrategySpec::PrecomputeHoarder { fam_seed: 1, attempts: 10 });
        assert!(matches!(hoarder.build(), Err(ScenarioError::NeedsPowLayer(_))));
    }

    /// The conformance contract at the core layer: a spec-built driver
    /// reproduces a hand-constructed `DynamicSystem` run record-for-record
    /// (the direct run's census taken by a [`Census`] wrapper), honest
    /// and strategic alike.
    #[test]
    fn driver_matches_direct_dynamic_system() {
        for strategy in [StrategySpec::Honest, StrategySpec::GapFilling] {
            let s = spec().strategy(strategy);
            let mut driver = s.build().unwrap();

            let inner: Box<dyn IdentityProvider> = match strategy {
                StrategySpec::Honest => {
                    Box::new(UniformProvider { n_good: s.n_good, n_bad: s.n_bad })
                }
                _ => Box::new(StrategicProvider::boxed(
                    s.n_good,
                    s.n_bad,
                    strategy.build_strategy().unwrap(),
                )),
            };
            let mut direct = Census::new(inner);
            let mut sys = DynamicSystem::new(s.params, s.kind, s.mode, &mut direct, s.seed);
            sys.set_searches_per_epoch(s.searches);

            for _ in 0..3 {
                let mut r = sys.advance_epoch(&mut direct);
                r.bad_ids = direct.bad;
                r.bad_share = direct.bad_share;
                let o = driver.step();
                assert_eq!(format!("{o:?}"), format!("{r:?}"));
                assert!(o.epoch_string.is_none() && o.minted_good.is_none());
            }
            assert_eq!(driver.epoch(), sys.epoch());
            assert_eq!(driver.graphs().sides(), sys.graphs().sides());
        }
    }

    /// `run(n)` is `n` steps, one [`ObsRow::of`] row each, in epoch
    /// order — and a second `run` continues the same system.
    #[test]
    fn run_returns_one_row_per_stepped_epoch() {
        let s = spec();
        let mut stepped = s.build().unwrap();
        let expect: Vec<String> =
            (0..5).map(|_| ObsRow::of(stepped.step()).encode_line()).collect();

        let mut driver = s.build().unwrap();
        let mut rows = driver.run(3);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].minted_good.is_nan(), "no PoW layer: minted column is NAN");
        rows.extend(driver.run(2));
        let lines: Vec<String> = rows.iter().map(ObsRow::encode_line).collect();
        assert_eq!(lines, expect);
        assert!(driver.run(0).is_empty());
    }

    /// The retired `kernel=arena` token selects nothing: its spec
    /// observes exactly what the default (`kernel=legacy`) spec does.
    #[test]
    fn arena_kernel_spec_matches_legacy_spec() {
        let base = spec().topology(GraphKind::D2B);
        let mut legacy = base.build().unwrap();
        let mut arena = ScenarioSpec { kernel: KernelChoice::Arena, ..base }.build().unwrap();
        for _ in 0..3 {
            let a = legacy.step().clone();
            let b = arena.step();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn budget_matches_sweep_convention() {
        assert_eq!(budget_for(0.05, 380), 20);
        assert_eq!(budget_for(0.06, 1200), 77);
        assert_eq!(budget_for(0.05, 2000), 105);
    }
}
