//! End-to-end conformance of the scenario API: a spec that round-trips
//! through its serialized label builds a driver that reproduces the
//! original's simulation byte-for-byte, across every defense arm. This
//! is the property that makes the label a safe persistence key (cache
//! entries, warm-started sweeps, cross-process cell addressing): the
//! string *is* the scenario.
//!
//! The other half of the conformance story — the committed seed-42
//! e10/e11/e12 golden CSVs replaying byte-identically through the
//! `EpochDriver` path — lives in `crates/experiments/tests/golden.rs`
//! (the snapshot bytes predate the redesign and were not regenerated).

use tg_core::scenario::{Defense, MintScheme, ScenarioSpec, StrategySpec, StringMode};
use tg_experiments::frontier::{FrontierConfig, LEGACY_CHURN};
use tg_overlay::GraphKind;

/// Step both drivers and compare the full observation, field for field.
fn assert_drivers_agree(spec: &ScenarioSpec, epochs: usize) {
    let mut a = tg_pow::scenario::build(spec).expect("buildable scenario");
    let reparsed = ScenarioSpec::parse(&spec.label()).expect("label round-trips");
    assert_eq!(&reparsed, spec);
    let mut b = tg_pow::scenario::build(&reparsed).expect("reparsed spec is buildable");
    for _ in 0..epochs {
        let oa = a.step();
        let ob = b.step();
        assert_eq!(format!("{oa:?}"), format!("{ob:?}"), "spec {}", spec.label());
    }
}

/// One spec per defense arm (no-PoW strategic, full protocol, frozen
/// strings, synthesized strings, honest) — the split the API erased,
/// re-checked through the serialized form.
#[test]
fn parsed_labels_reproduce_their_simulations() {
    let base = || ScenarioSpec::new(300, 42).beta(0.12).churn(0.15).attack_requests(0).searches(60);
    let specs = [
        base().strategy(StrategySpec::GapFilling),
        base(),
        base()
            .strategy(StrategySpec::AdaptiveMajorityFlipper { margin: 2 })
            .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true }),
        base()
            .strategy(StrategySpec::PrecomputeHoarder { fam_seed: 7, attempts: 400 })
            .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false })
            .strings(StringMode::Synthesized)
            .topology(GraphKind::D2B),
    ];
    for spec in &specs {
        assert_drivers_agree(spec, 2);
    }
}

/// A frontier cell coordinate and its scenario label name the same
/// simulation: rebuilding the cell from the parsed label reproduces
/// `eval_cell`'s trial stream input exactly.
#[test]
fn frontier_cells_round_trip_through_the_label() {
    let cfg = FrontierConfig {
        n_good: 260,
        betas: vec![0.06, 0.25],
        d2s: vec![3.0],
        churns: vec![LEGACY_CHURN],
        kinds: vec![GraphKind::Chord],
        strategies: vec!["gap-filling", "churn-timed"],
        defenses: vec![
            Defense::NoPow,
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
        ],
        epochs: 1,
        trials: 1,
        searches: 40,
        seed: 42,
        exec: Default::default(),
    };
    for key in cfg.rows() {
        let spec = key.scenario(&cfg, cfg.betas[0], 0xDEAD_BEEF);
        assert_drivers_agree(&spec, 1);
    }
}
