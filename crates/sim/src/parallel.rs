//! Deterministic parallel parameter sweeps.
//!
//! Experiment harnesses sweep `(n, β, seed, …)` grids whose cells are
//! independent simulations. [`parallel_map`] fans the cells out over OS
//! threads with `std::thread::scope` and returns results **in input
//! order**, so parallel and serial runs produce byte-identical output —
//! the reproducibility contract of the whole workspace.
//!
//! Work is distributed by an atomic cursor (work stealing at item
//! granularity) rather than pre-chunking, so heterogeneous cell costs
//! (e.g. `n = 2^10` next to `n = 2^17`) still balance.
//!
//! Nesting is harmless: a call made from inside a worker (a sweep cell
//! whose epoch fans out, a `verify_batch` on a large hoard) runs
//! serially on that worker instead of spawning a second layer of
//! threads — the outer map already occupies every core, and by the
//! order contract the results are the same either way.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set on every worker thread spawned by [`parallel_map_chunked`].
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Apply `f` to every item, in parallel, returning results in input order.
///
/// `f` must be `Sync` (it is shared across threads) and the items are
/// consumed by value. The number of worker threads defaults to available
/// parallelism, capped by the number of items.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_chunked(items, 1, f)
}

/// Like [`parallel_map`], but work is claimed in **chunks of consecutive
/// items** instead of one item at a time.
///
/// The item→chunk assignment is a pure function of `(items.len(),
/// chunk)` — chunk `c` owns items `[c·chunk, (c+1)·chunk)` — so the
/// work-split is deterministic and identical on every run; only *which
/// thread* executes a chunk varies, and results still come back in input
/// order. Use this when per-item work is small but skewed (e.g. one
/// search per group, where captured groups truncate early): item-level
/// stealing would spend more time on the atomic cursor than on the
/// items, while fixed pre-chunking (`len / threads`) can leave one
/// thread holding all the expensive items. Chunked stealing bounds the
/// imbalance by one chunk's worth of work.
///
/// `chunk == 0` is treated as `1`. A `chunk ≥ items.len()` degenerates
/// to the serial path (one chunk, zero coordination), and so does any
/// call made from inside another map's worker.
pub fn parallel_map_chunked<T, R, F>(items: Vec<T>, chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let chunk = chunk.max(1);
    if n == 0 {
        return Vec::new();
    }
    let n_chunks = n.div_ceil(chunk);
    let threads = if IN_WORKER.get() {
        1
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n_chunks)
    };
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_WORKER.set(true);
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    for i in lo..hi {
                        let item = work[i]
                            .lock()
                            .expect("unpoisoned")
                            .take()
                            .expect("each cell claimed once");
                        let r = f(item);
                        *results[i].lock().expect("unpoisoned") = Some(r);
                    }
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("unpoisoned").expect("all cells computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..1000).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(vec![41], |x: i32| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn heterogeneous_costs_balance() {
        // Mix trivial and busy items; correctness is order preservation.
        let items: Vec<u64> = (0..64).map(|i| if i % 7 == 0 { 20_000 } else { 10 }).collect();
        let expect: Vec<u64> = items.iter().map(|&k| (0..k).sum::<u64>()).collect();
        let out = parallel_map(items, |k: u64| (0..k).sum::<u64>());
        assert_eq!(out, expect);
    }

    #[test]
    fn chunked_matches_sequential_exactly() {
        // Regression for the load-imbalance fix: the chunked variant must
        // return the same results, in the same order, as the sequential
        // map — for every chunk size including degenerate ones.
        let items: Vec<u64> = (0..537).map(|i| i * 3 + 1).collect();
        let expect: Vec<u64> = items.iter().map(|&k| k.wrapping_mul(k) ^ 0xA5).collect();
        for chunk in [0usize, 1, 2, 7, 64, 537, 10_000] {
            let out = parallel_map_chunked(items.clone(), chunk, |k: u64| k.wrapping_mul(k) ^ 0xA5);
            assert_eq!(out, expect, "chunk={chunk}");
        }
    }

    #[test]
    fn chunked_balances_skewed_costs() {
        // Skewed per-item work (every 13th item is ~2000× heavier, like a
        // group whose search runs long): correctness is order-preserving
        // equality with the serial result under chunked stealing.
        let items: Vec<u64> = (0..256).map(|i| if i % 13 == 0 { 40_000 } else { 20 }).collect();
        let expect: Vec<u64> = items.iter().map(|&k| (0..k).sum::<u64>()).collect();
        let out = parallel_map_chunked(items, 8, |k: u64| (0..k).sum::<u64>());
        assert_eq!(out, expect);
    }

    #[test]
    fn chunked_empty_and_single() {
        let out: Vec<i32> = parallel_map_chunked(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
        let out = parallel_map_chunked(vec![41], 4, |x: i32| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn matches_serial_for_stateful_closures() {
        // The closure captures immutable state only; identical results in
        // any schedule.
        let table: Vec<u64> = (0..256).map(|i| i * i).collect();
        let out = parallel_map((0..256usize).collect(), |i| table[i] + 1);
        assert_eq!(out, (0..256u64).map(|i| i * i + 1).collect::<Vec<_>>());
    }
}
