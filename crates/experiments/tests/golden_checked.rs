//! Golden replay, checked rows: the committed seed-42 snapshots with
//! `--check-invariants` on both runtimes plus a loopback-TCP row. Two
//! things at once: **zero violations** (checked builds run strict, so a
//! violation panics with its reproduction line) and **byte identity**
//! (the checker is observation-transparent; if a byte moves here but not
//! on the unchecked rows, the *checker* consumed kernel randomness — fix
//! `tg_verify`). E4 and E10 are the
//! experiments whose goldens exercise every per-step invariant across
//! both identity pipelines. The harness and the row table are in
//! `golden/harness.rs`.

#[path = "golden/harness.rs"]
mod harness;
use harness::{replay, CHECKED};
use tg_core::scenario::TransportChoice;

#[test]
fn e4_replays_byte_identically_under_invariant_checks() {
    CHECKED.iter().for_each(|row| replay(harness::e4, row));
}

#[test]
fn e10_replays_byte_identically_under_invariant_checks() {
    CHECKED.iter().for_each(|row| replay(harness::e10, row));
}

/// The invariants also hold, and the checker stays transparent, with
/// drops and a partition on.
#[test]
fn e14_replays_byte_identically_under_invariant_checks() {
    CHECKED
        .iter()
        .filter(|r| r.transport == TransportChoice::Mem)
        .for_each(|row| replay(harness::e14, row));
}
