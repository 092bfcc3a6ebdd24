//! Golden replay, `actor` row: the committed seed-42 snapshots through
//! the actor runtime over a perfect in-memory transport (`--runtime actor`).
//! A drift here is a bug on that axis, never a stale file. The harness
//! and the row table are in `golden/harness.rs`.

#[path = "golden/harness.rs"]
mod harness;
use harness::{replay, ACTOR};

#[test]
fn e1_replays_byte_identically_on_actor() {
    replay(harness::e1, &ACTOR);
}

#[test]
fn e4_replays_byte_identically_on_actor() {
    replay(harness::e4, &ACTOR);
}

#[test]
fn e10_replays_byte_identically_on_actor() {
    replay(harness::e10, &ACTOR);
}

#[test]
fn e11_replays_byte_identically_on_actor() {
    replay(harness::e11, &ACTOR);
}

#[test]
fn e12_replays_byte_identically_on_actor() {
    replay(harness::e12, &ACTOR);
}

#[test]
fn e14_replays_byte_identically_on_actor() {
    replay(harness::e14, &ACTOR);
}
