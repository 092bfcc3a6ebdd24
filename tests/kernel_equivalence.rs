//! Schedule-equivalence suite: the observations of one spec do not
//! depend on how its epoch is run — serially or fanned out over worker
//! threads (from `FAN_OUT_MIN_IDS` identities up, outside sweep
//! workers), synchronously or as actors over a perfect transport — same
//! spec, same seed, same epoch-by-epoch `EpochObservation`, byte for
//! byte, across every defense arm and placement strategy the scenario
//! API can express.
//!
//! The fan-out test runs each spec at `FAN_OUT_MIN_IDS` good identities
//! twice: on the test thread, where its epochs fan out, and inside a
//! `parallel_map` worker, where they run serially. With one CPU both
//! arms are serial. That the one system computes what the deleted
//! per-group loop computed is pinned by
//! `crates/core/tests/golden_epoch_graphs.rs` and the reference-build
//! unit test in `tg_core::arena`.

use proptest::prelude::*;
use tiny_groups::core::dynamic::kernel::FAN_OUT_MIN_IDS;
use tiny_groups::core::dynamic::BuildMode;
use tiny_groups::core::runtime::RuntimeChoice;
use tiny_groups::core::scenario::{Defense, MintScheme, ScenarioSpec, StrategySpec, StringMode};
use tiny_groups::overlay::GraphKind;
use tiny_groups::pow::scenario::build;
use tiny_groups::sim::parallel_map;

/// Step both runtimes over the same spec and require Debug-identical
/// observations every epoch (the full report: fractions, search rates,
/// build stats, minting counters — everything the systems can observe).
/// The synchronous driver is the oracle; the actor runtime over its
/// (perfect by default) transport must reproduce it byte for byte.
fn assert_runtimes_agree(spec: &ScenarioSpec, epochs: usize) {
    let arms = [("sync", RuntimeChoice::Sync), ("actor", RuntimeChoice::Actor)];
    let mut drivers: Vec<_> = arms
        .iter()
        .map(|&(name, runtime)| {
            let arm = spec.clone().runtime(runtime);
            (name, build(&arm).unwrap_or_else(|e| panic!("{name} spec builds: {e:?}")))
        })
        .collect();
    for e in 0..epochs {
        let (oracle, rest) = drivers.split_first_mut().expect("at least the oracle arm");
        let want = format!("{:?}", oracle.1.step());
        for (name, driver) in rest {
            assert_eq!(
                format!("{:?}", driver.step()),
                want,
                "{name} diverged from {} at epoch {e} of {}",
                oracle.0,
                spec.label()
            );
        }
    }
}

/// Epochs of `FAN_OUT_MIN_IDS` good identities fan out on the test
/// thread and run serially inside a sweep worker; both must observe the
/// same thing. The four specs cover the attack pass (d2b), an adaptive
/// placement with chord's link searches, single-graph mode, and the
/// full §IV system under f∘g minting.
#[test]
fn fanned_out_epochs_match_serial_ones() {
    let base = || ScenarioSpec::new(FAN_OUT_MIN_IDS, 42).churn(0.1).searches(200);
    let specs = [
        base().topology(GraphKind::D2B).attack_requests(1),
        base().attack_requests(0).strategy(StrategySpec::GapFilling),
        base().topology(GraphKind::D2B).attack_requests(1).build_mode(BuildMode::SingleGraph),
        base()
            .attack_requests(0)
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true }),
    ];
    let run = |spec: &ScenarioSpec| -> String {
        let mut driver = build(spec).unwrap_or_else(|e| panic!("{}: {e:?}", spec.label()));
        (0..2).map(|_| format!("{:?}\n", driver.step())).collect()
    };
    let serial = parallel_map(specs.to_vec(), |spec| run(&spec));
    for (spec, serial) in specs.iter().zip(serial) {
        assert_eq!(run(spec), serial, "{}", spec.label());
    }
}

/// Every defense arm × every placement strategy, one fixed small spec
/// each: the exhaustive sweep of the scenario API's categorical axes.
/// (The hoarder under no-PoW degrades to uniform placement — still a
/// buildable, comparable arm.) The name predates the retired kernel
/// axis; the arms are the two runtimes.
#[test]
fn all_defenses_and_strategies_agree_across_kernels() {
    let defenses = [
        Defense::NoPow,
        Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
        Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
        Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
    ];
    let strategies = [
        StrategySpec::Honest,
        StrategySpec::Uniform,
        StrategySpec::GapFilling,
        StrategySpec::IntervalTargeting { victim: 0.4, width: 0.01 },
        StrategySpec::AdaptiveMajorityFlipper { margin: 2 },
        StrategySpec::ChurnTimed { trigger: 0.12, retainer: 0.2 },
        StrategySpec::PrecomputeHoarder { fam_seed: 7, attempts: 300 },
    ];
    for &defense in &defenses {
        for &strategy in &strategies {
            let spec = ScenarioSpec::new(240, 42)
                .beta(0.1)
                .churn(0.15)
                .attack_requests(0)
                .searches(40)
                .defense(defense)
                .strategy(strategy);
            assert_runtimes_agree(&spec, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small-n specs over the full categorical product (defense
    /// × strategy × topology × string mode), random β/churn/seed: the
    /// runtimes stay Debug-identical for two epochs.
    #[test]
    fn random_specs_agree_across_kernels(
        seed in any::<u64>(),
        n_good in 180usize..340,
        beta_pct in 4u32..16,
        churn_pct in 5u32..22,
        defense_sel in 0usize..4,
        strategy_sel in 0usize..7,
        kind_sel in 0usize..2,
        synthesized in any::<bool>(),
    ) {
        let defense = [
            Defense::NoPow,
            Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
        ][defense_sel];
        let strategy = [
            StrategySpec::Honest,
            StrategySpec::Uniform,
            StrategySpec::GapFilling,
            StrategySpec::IntervalTargeting { victim: 0.4, width: 0.01 },
            StrategySpec::AdaptiveMajorityFlipper { margin: 2 },
            StrategySpec::ChurnTimed { trigger: 0.12, retainer: 0.2 },
            StrategySpec::PrecomputeHoarder { fam_seed: seed ^ 0xEC4, attempts: 250 },
        ][strategy_sel];
        let kind = [GraphKind::Chord, GraphKind::D2B][kind_sel];
        let mut spec = ScenarioSpec::new(n_good, seed)
            .beta(beta_pct as f64 / 100.0)
            .churn(churn_pct as f64 / 100.0)
            .attack_requests(0)
            .topology(kind)
            .searches(30)
            .defense(defense)
            .strategy(strategy);
        if synthesized {
            spec = spec.strings(StringMode::Synthesized);
        }
        assert_runtimes_agree(&spec, 2);
    }
}

/// Fault injection is deterministic and schedule-free: every per-link
/// drop/latency/partition decision is a pure hash of the master seed
/// and the message coordinates, never a draw from a shared RNG or a
/// read of wall clock. The same faulty spec therefore produces the
/// identical observation stream whether it runs alone or raced by many
/// sibling copies on other threads.
#[test]
fn faulty_actor_runs_are_identical_at_any_thread_count() {
    let spec = ScenarioSpec::new(240, 42)
        .beta(0.1)
        .churn(0.15)
        .attack_requests(0)
        .searches(40)
        .strategy(StrategySpec::GapFilling)
        .runtime(RuntimeChoice::Actor)
        .drop_rate(0.3)
        .latency(5)
        .partition(16);
    let run = |spec: &ScenarioSpec| -> Vec<String> {
        let mut sys = build(spec).expect("faulty actor spec builds");
        (0..3).map(|_| format!("{:?}", sys.step())).collect()
    };
    let serial = run(&spec);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| run(&spec))).collect();
        for h in handles {
            assert_eq!(h.join().expect("runner thread"), serial, "a raced run diverged");
        }
    });
    // And the faults actually bite: the lossy stream is not the
    // perfect-transport stream (this test would pass vacuously if the
    // knobs were ignored).
    let perfect = run(&spec.clone().drop_rate(0.0).latency(0).partition(0));
    assert_ne!(serial, perfect, "fault knobs must change the observation stream");
}
