//! Regression tests for the ordering contract of [`tg_sim::parallel_map`]
//! — the property every deterministic sweep in the workspace (and E11's
//! frontier rows in particular) stands on: **results come back in input
//! order**, no matter how unevenly the work is distributed or how many
//! worker threads the machine offers.

use std::sync::atomic::{AtomicUsize, Ordering};
use tg_sim::parallel_map;

/// Strongly non-uniform per-item workloads: late items finish long
/// before early ones, so any implementation that collected results in
/// *completion* order would interleave. Results must still match input
/// order exactly.
#[test]
fn order_preserved_under_non_uniform_workloads() {
    // Item 0 busy-works the longest; the tail is nearly free.
    let items: Vec<u64> = (0..64).map(|i| (64 - i) * 2_000).collect();
    let expect: Vec<u64> = items.iter().map(|&k| (0..k).fold(0u64, |a, x| a ^ x)).collect();
    let out = parallel_map(items, |k| (0..k).fold(0u64, |a, x| a ^ x));
    assert_eq!(out, expect);
}

/// Same, with explicit sleeps so completion order is reliably inverted
/// from input order even on a single-core machine's scheduler.
#[test]
fn order_preserved_when_completion_order_inverts() {
    let items: Vec<u64> = vec![30, 20, 10, 5, 1];
    let out = parallel_map(items, |ms| {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        ms
    });
    assert_eq!(out, vec![30, 20, 10, 5, 1]);
}

#[test]
fn empty_input_yields_empty_output() {
    let out: Vec<u8> = parallel_map(Vec::<u8>::new(), |x| x);
    assert!(out.is_empty());
}

#[test]
fn single_item_runs_inline() {
    let caller = std::thread::current().id();
    let out = parallel_map(vec![7usize], |x| (x * 6, std::thread::current().id()));
    assert_eq!(out, vec![(42, caller)]);
}

/// Fewer items than worker threads: every item still computed exactly
/// once, in order (the cursor must not hand one item to two workers or
/// leave a worker spinning past the end).
#[test]
fn fewer_items_than_threads() {
    let calls = AtomicUsize::new(0);
    let out = parallel_map(vec![1usize, 2, 3], |x| {
        calls.fetch_add(1, Ordering::Relaxed);
        x * 10
    });
    assert_eq!(out, vec![10, 20, 30]);
    assert_eq!(calls.load(Ordering::Relaxed), 3, "each item computed exactly once");
}

/// Items that are not `Clone`/`Copy` move through by value, once each.
#[test]
fn moves_items_by_value() {
    struct NotClone(String);
    let items = vec![NotClone("a".into()), NotClone("b".into()), NotClone("c".into())];
    let out = parallel_map(items, |NotClone(s)| s + "!");
    assert_eq!(out, vec!["a!", "b!", "c!"]);
}

/// Nested use (a parallel row whose cells also call `parallel_map`)
/// keeps both levels' ordering — the pattern a sweep cell hits when its
/// epoch fans out — and the inner map does not spawn a second layer of
/// threads: every inner item runs on the outer worker that called it.
#[test]
fn nested_parallel_maps_preserve_order() {
    let out = parallel_map((0..6u64).collect(), |row| {
        let outer = std::thread::current().id();
        parallel_map((0..4u64).collect(), move |col| {
            assert_eq!(std::thread::current().id(), outer, "inner map left its outer worker");
            row * 10 + col
        })
    });
    let expect: Vec<Vec<u64>> =
        (0..6).map(|row| (0..4).map(|col| row * 10 + col).collect()).collect();
    assert_eq!(out, expect);
}
