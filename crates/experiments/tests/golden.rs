//! Golden-report regression suite, baseline row: the configuration that
//! wrote the snapshots (sequential epochs, no network, unchecked) — and the
//! only one `GOLDEN_REGEN=1` rewrites them from. The harness, the row
//! table and the regeneration recipe are in `golden/harness.rs`.
//!
//! The raw per-epoch record golden (`epoch_report_seed42.txt`, its §III
//! fields) lives with the dynamic-layer implementation it pins, in
//! `crates/core/tests/golden_epoch_report.rs`.

#[path = "golden/harness.rs"]
mod harness;
use harness::{replay, BASELINE};

#[test]
fn e1_robustness_matches_golden() {
    replay(harness::e1, &BASELINE);
}

#[test]
fn e4_epochs_matches_golden() {
    replay(harness::e4, &BASELINE);
}

#[test]
fn e7_strings_matches_golden() {
    replay(harness::e7, &BASELINE);
}

#[test]
fn e10_adversaries_matches_golden() {
    replay(harness::e10, &BASELINE);
}

#[test]
fn e11_frontier_matches_golden() {
    replay(harness::e11, &BASELINE);
}

#[test]
fn e12_refine_matches_golden() {
    replay(harness::e12, &BASELINE);
}

#[test]
fn e14_async_matches_golden() {
    replay(harness::e14, &BASELINE);
}
