//! Golden replay, `socket` row: the committed seed-42 snapshots through
//! the actor runtime over loopback TCP (`--runtime actor --transport socket`).
//! A drift here is a bug on that axis, never a stale file. The harness
//! and the row table are in `golden/harness.rs`.

#[path = "golden/harness.rs"]
mod harness;
use harness::{replay, SOCKET};

#[test]
fn e1_replays_byte_identically_on_socket() {
    replay(harness::e1, &SOCKET);
}

#[test]
fn e4_replays_byte_identically_on_socket() {
    replay(harness::e4, &SOCKET);
}

#[test]
fn e10_replays_byte_identically_on_socket() {
    replay(harness::e10, &SOCKET);
}

#[test]
fn e11_replays_byte_identically_on_socket() {
    replay(harness::e11, &SOCKET);
}

#[test]
fn e12_replays_byte_identically_on_socket() {
    replay(harness::e12, &SOCKET);
}
