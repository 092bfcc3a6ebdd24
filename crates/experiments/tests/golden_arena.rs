//! Golden replay, `arena` row: the committed seed-42 snapshots with
//! epochs fanned out over threads (`--kernel arena`).
//! A drift here is a bug on that axis, never a stale file. The harness
//! and the row table are in `golden/harness.rs`.

#[path = "golden/harness.rs"]
mod harness;
use harness::{replay, ARENA};

#[test]
fn e1_replays_byte_identically_on_arena() {
    replay(harness::e1, &ARENA);
}

#[test]
fn e4_replays_byte_identically_on_arena() {
    replay(harness::e4, &ARENA);
}

#[test]
fn e10_replays_byte_identically_on_arena() {
    replay(harness::e10, &ARENA);
}

#[test]
fn e11_replays_byte_identically_on_arena() {
    replay(harness::e11, &ARENA);
}

#[test]
fn e12_replays_byte_identically_on_arena() {
    replay(harness::e12, &ARENA);
}

#[test]
fn e14_replays_byte_identically_on_arena() {
    replay(harness::e14, &ARENA);
}
