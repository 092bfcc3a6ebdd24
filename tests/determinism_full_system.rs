//! Pins the determinism of [`FullSystem::run_epoch`] under a strategic
//! adversary: the same master seed must reproduce the **byte-identical
//! debug output of each epoch's record and its full string-protocol
//! outcome** ([`FullSystem::last_strings`]) — across repeated runs in one
//! process, and regardless of thread scheduling (`--test-threads=1` vs
//! the default parallel runner, a loaded vs an idle machine). Every
//! stream the pipeline draws from is a labelled child of the master
//! seed, so nothing here may depend on wall clock, scheduling, or
//! iteration order of any shared structure.

use tiny_groups::core::dynamic::GapFilling;
use tiny_groups::core::Params;
use tiny_groups::overlay::GraphKind;
use tiny_groups::pow::{FullSystem, MintScheme, PuzzleParams, StrategicPowProvider, StringParams};
use tiny_groups::sim::parallel_map;

/// Three epochs of the full protocol (string agreement → strategic
/// minting → dynamic advance) under a gap-filling adversary on the
/// single-hash ablation — the path where the strategy's placement
/// actually reaches the ring, so any nondeterminism would surface in
/// the numbers, not just the timings.
fn run_reports(master_seed: u64) -> String {
    let mut params = Params::paper_defaults();
    params.churn_rate = 0.12;
    params.attack_requests_per_id = 1;
    let mut sys = FullSystem::new(
        params,
        GraphKind::Chord,
        PuzzleParams::calibrated(16, 2048),
        StringParams::default(),
        500,
        30.0,
        true,
        master_seed,
    )
    .with_adversary(StrategicPowProvider::boxed(
        500,
        30.0,
        MintScheme::SingleHash,
        Box::new(GapFilling),
    ));
    sys.dynamics.set_searches_per_epoch(150);
    let mut out = String::new();
    for _ in 0..3 {
        let r = sys.run_epoch();
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
