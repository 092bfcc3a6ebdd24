//! Cross-crate integration: the application layer (storage, bootstrap,
//! full pipeline) on top of the whole stack — driven entirely through
//! the scenario API, the way a downstream system would embed it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::ba::AdversaryMode;
use tiny_groups::core::dht::GetOutcome;
use tiny_groups::core::{
    assemble_bootstrap, recommended_contacts, GroupGraphView, ScenarioSpec, SecureDht,
};
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;
use tiny_groups::pow::{FullSystem, PuzzleParams, StringAdversary, StringParams};
use tiny_groups::sim::Metrics;

/// The storage service survives epochs of full membership turnover with
/// zero forged reads, even with every Byzantine replica colluding.
#[test]
fn dht_over_dynamic_epochs_never_serves_forged_data() {
    let spec = ScenarioSpec::new(800, 61).budget(42).churn(0.15).attack_requests(0).searches(100);
    let mut sys = spec.build().expect("honest no-PoW scenario");

    let mut rng = StdRng::seed_from_u64(62);
    let items: Vec<(Id, u64)> = (0..150).map(|i| (Id(rng.gen()), 5000 + i)).collect();

    for _ in 0..3 {
        sys.step();
        let gg = sys.graphs().side(0);
        let mut dht = SecureDht::new(&gg, AdversaryMode::Collude { value: 0xF0F0 });
        let mut m = Metrics::new();
        let (stored, available) = dht.measure_availability(&items, &mut rng, &mut m);
        assert!(stored > 0.95, "stored {stored:.3}");
        assert!(available > 0.93, "available {available:.3}");
        // Absolutely no forged value is ever served.
        for &(key, value) in &items {
            if let GetOutcome::Value(v) = dht.get(0, key, &mut m) {
                assert_eq!(v, value, "forged read");
            }
        }
    }
}

/// Joiners can always assemble a trustworthy bootstrap from the live
/// system, epoch after epoch (Appendix IX over §III).
#[test]
fn bootstrap_assembly_over_live_epochs() {
    let spec = ScenarioSpec::new(600, 63)
        .budget(32)
        .churn(0.15)
        .attack_requests(0)
        .topology(GraphKind::D2B)
        .searches(80);
    let mut sys = spec.build().expect("honest no-PoW scenario");
    let mut rng = StdRng::seed_from_u64(64);
    for _ in 0..3 {
        sys.step();
        let gg = sys.graphs().side(0);
        let k = recommended_contacts(gg.len());
        for _ in 0..50 {
            let boot = assemble_bootstrap(&gg, k, &mut rng);
            assert!(boot.has_good_majority(), "bootstrap lost its majority");
        }
    }
}

/// The composed FullSystem holds all its invariants simultaneously for
/// several epochs under a forced-record string adversary.
///
/// Constructed directly rather than through a `ScenarioSpec`: the
/// string-release adversary is a `FullSystem`-only knob the declarative
/// spec does not (yet) model — see the ROADMAP follow-up.
#[test]
fn full_system_invariants_hold_jointly() {
    let mut params = tiny_groups::core::Params::paper_defaults();
    params.churn_rate = 0.15;
    params.attack_requests_per_id = 1;
    let mut sys = FullSystem::new(
        params,
        GraphKind::Chord,
        PuzzleParams::calibrated(16, 2048),
        StringParams::default(),
        600,
        30.0,
        true,
        65,
    );
    sys.string_adversary = StringAdversary::ForcedRecords { strings: 3, release_frac: 0.49 };
    sys.dynamics.set_searches_per_epoch(150);
    let mut seen_strings = std::collections::HashSet::new();
    for _ in 0..3 {
        let r = sys.run_epoch();
        assert_eq!(r.strings_agreement, Some(true));
        assert!(seen_strings.insert(r.epoch_string), "epoch string reused");
        assert!(r.bad_ids as f64 <= 30.0 * 1.7, "bad_ids {}", r.bad_ids);
        assert!(r.search_success_dual > 0.9);
        assert!(r.frac_red[0] < 0.05);
    }
}
