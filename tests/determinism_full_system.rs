//! Pins the determinism of [`FullSystem`]'s epoch step under a strategic
//! adversary: the same master seed must reproduce the **byte-identical
//! debug output of each epoch's record and its full string-protocol
//! outcome** ([`FullSystem::last_strings`]) — across repeated runs in one
//! process, and regardless of thread scheduling (`--test-threads=1` vs
//! the default parallel runner, a loaded vs an idle machine). Every
//! stream the pipeline draws from is a labelled child of the master
//! seed, so nothing here may depend on wall clock, scheduling, or
//! iteration order of any shared structure. The last test checks the
//! composed system's invariants jointly, epoch by epoch.

use tiny_groups::core::scenario::StringAdversarySpec;
use tiny_groups::core::{Defense, EpochDriver, ScenarioSpec, StrategySpec, StringMode};
use tiny_groups::pow::{FullSystem, MintScheme};
use tiny_groups::sim::parallel_map;

/// Three epochs of the full protocol (string agreement → strategic
/// minting → dynamic advance) under a gap-filling adversary on the
/// single-hash ablation — the path where the strategy's placement
/// actually reaches the ring, so any nondeterminism would surface in
/// the numbers, not just the timings.
fn run_reports(master_seed: u64) -> String {
    let spec = ScenarioSpec::new(500, master_seed)
        .budget(30)
        .churn(0.12)
        .attack_requests(1)
        .searches(150)
        .strategy(StrategySpec::GapFilling)
        .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true });
    let mut sys = FullSystem::new(&spec).expect("full-protocol scenario");
    let mut out = String::new();
    for _ in 0..3 {
        let r = sys.step().clone();
        out.push_str(&format!("{r:#?}\n{:#?}\n", sys.last_strings()));
    }
    out
}

/// Two sequential runs with the same seed agree byte-for-byte.
#[test]
fn strategic_full_system_reports_are_byte_identical() {
    let a = run_reports(42);
    let b = run_reports(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same master seed must replay the record stream exactly");
}

/// The same run is byte-identical when executed amid unrelated parallel
/// load — the in-process analogue of `--test-threads=1` vs the default
/// runner: thread scheduling may reorder *when* work happens, never
/// *what* it computes.
#[test]
fn strategic_full_system_is_schedule_independent() {
    let solo = run_reports(42);
    // Interleave the real run with busy work on every available worker.
    let mixed = parallel_map((0..4u64).collect(), |i| {
        if i == 2 {
            run_reports(42)
        } else {
            // Contending load: meaningless but CPU-hungry.
            format!("{}", (0..200_000u64).fold(i, |a, x| a ^ x.wrapping_mul(0x9E37)))
        }
    });
    assert_eq!(mixed[2], solo, "scheduling contention must not leak into the report");
}

/// Different seeds genuinely differ (the two tests above would pass
/// vacuously if the pipeline ignored its seed).
#[test]
fn master_seed_reaches_the_whole_pipeline() {
    assert_ne!(run_reports(42), run_reports(43));
}

/// The composed system holds all its invariants simultaneously for
/// several epochs under a forced-record string adversary
/// (`tg1;…;defense=f∘g;strings=protocol;stradv=records:3:0.49`).
#[test]
fn full_system_invariants_hold_jointly() {
    let spec = ScenarioSpec::new(600, 65)
        .budget(30)
        .churn(0.15)
        .attack_requests(1)
        .searches(150)
        .defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true })
        .strings(StringMode::Protocol)
        .string_adversary(StringAdversarySpec::ForcedRecords { strings: 3, release_frac: 0.49 });
    let mut sys = tiny_groups::pow::scenario::build(&spec).expect("full-protocol scenario");
    let mut seen_strings = std::collections::HashSet::new();
    for _ in 0..3 {
        let r = sys.step();
        assert_eq!(r.strings_agreement, Some(true));
        assert!(seen_strings.insert(r.epoch_string), "epoch string reused");
        assert!(r.bad_ids as f64 <= 30.0 * 1.7, "bad_ids {}", r.bad_ids);
        assert!(r.search_success_dual > 0.9);
        assert!(r.frac_red[0] < 0.05);
    }
}
