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
//! [`stream_map`] is the same contract for items that a sequential
//! producer emits one at a time: workers map each item as it arrives
//! while the producer keeps going.
//!
//! Nesting is harmless: a call made from inside a worker (a sweep cell
//! whose epoch fans out) runs serially on that worker instead of spawning a second layer of
//! threads — the outer map already occupies every core, and by the
//! order contract the results are the same either way.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

thread_local! {
    /// Set on every worker thread spawned by [`parallel_map_chunked`]
    /// or [`stream_map`].
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker threads a map may spawn: available parallelism, or 1 inside
/// another map's worker.
fn threads_available() -> usize {
    if IN_WORKER.get() {
        1
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }
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
    let threads = threads_available().min(n_chunks);
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

/// Apply `f` to every item `produce` emits, returning results in
/// emission order — while `produce` is still running.
///
/// `produce` runs on the calling thread and hands each item to its
/// `emit` argument as soon as the item is ready. Worker threads (one
/// fewer than the available parallelism) apply `f` to items as they
/// arrive, so a sequential producer overlaps with the mapping instead
/// of waiting for it; once `produce` returns, the caller joins the
/// workers in draining what is left. The output is the serial
/// `produce`-then-map result for any thread count and any arrival
/// timing.
///
/// With one CPU, or inside another map's worker, no thread is spawned
/// and no channel opened: `f` runs inline on each item as it is
/// emitted. A panic in `f` or in `produce` propagates to the caller.
pub fn stream_map<T, R, P, F>(produce: P, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    P: FnOnce(&mut dyn FnMut(T)),
    F: Fn(T) -> R + Sync,
{
    let threads = threads_available();
    if threads <= 1 {
        let mut out = Vec::new();
        produce(&mut |item| out.push(f(item)));
        return out;
    }

    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let rx = Mutex::new(rx);
    // Map queued items until the producer is done and the queue empty.
    // The lock is released before `f` runs.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = rx.lock().expect("unpoisoned").recv();
            let Ok((i, item)) = next else { return done };
            done.push((i, f(item)));
        }
    };

    let mut done = std::thread::scope(|scope| {
        // Owned here so that a panicking `produce` drops it on the way
        // out, which lets the workers finish and the scope unwind.
        let tx = tx;
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.set(true);
                    drain()
                })
            })
            .collect();
        let mut next = 0;
        produce(&mut |item| {
            tx.send((next, item)).expect("the receiver outlives the producer");
            next += 1;
        });
        drop(tx);
        let mut done = drain();
        for w in workers {
            done.extend(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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

    /// Emit `items` one by one through [`stream_map`].
    fn streamed<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        stream_map(
            |emit| {
                for item in items {
                    emit(item);
                }
            },
            f,
        )
    }

    #[test]
    fn stream_returns_results_in_emission_order() {
        for n in [0u64, 1, 2, 257] {
            let out = streamed((0..n).collect(), |x| x * 3);
            assert_eq!(out, (0..n).map(|x| x * 3).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn stream_restores_emission_order_when_completion_inverts() {
        if threads_available() < 2 {
            return; // inline: items complete in emission order
        }
        // A worker takes item 0 while the caller is still producing, and
        // holds it until item 1 is done, which the caller maps once the
        // producer returns (or another worker does): item 1 completes
        // first on every run.
        let (started_tx, started_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let done_rx = Mutex::new(done_rx);
        let out = stream_map(
            |emit| {
                emit(0u32);
                started_rx.recv().expect("a worker takes item 0");
                emit(1);
            },
            |i| {
                if i == 0 {
                    started_tx.send(()).expect("the producer waits");
                    done_rx.lock().expect("unpoisoned").recv().expect("item 1 signals");
                } else {
                    done_tx.send(()).expect("item 0 waits");
                }
                i
            },
        );
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn stream_matches_a_serial_map() {
        // Skewed costs, and a producer that does sequential work of its
        // own between items (as the epoch build's pass 1 does).
        let items: Vec<u64> = (0..300).map(|i| if i % 11 == 0 { 30_000 } else { i }).collect();
        let expect: Vec<u64> = items.iter().map(|&k| (0..k).fold(0, |a, x| a ^ x)).collect();
        let mut drawn = 0u64;
        let out = stream_map(
            |emit| {
                for &k in &items {
                    drawn = (0..1_000).fold(drawn, |a, x| a.wrapping_mul(31) ^ x);
                    emit(k);
                }
            },
            |k: u64| (0..k).fold(0, |a, x| a ^ x),
        );
        assert_eq!(out, expect);
        assert_ne!(drawn, 0, "the producer ran to the end");
    }

    #[test]
    fn stream_runs_inline_inside_a_worker() {
        let out = parallel_map(vec![0u64, 1], |row| {
            let me = std::thread::current().id();
            streamed((0..50u64).collect(), move |x| {
                assert_eq!(std::thread::current().id(), me, "the stream left its worker");
                row * 100 + x
            })
        });
        assert_eq!(out[1], (100..150).collect::<Vec<_>>());
    }

    #[test]
    fn stream_without_threads_runs_each_item_as_it_is_emitted() {
        // With one CPU (or inside a worker) `f` runs before `emit`
        // returns: the producer sees every earlier item mapped.
        let mapped = AtomicUsize::new(0);
        let run = || {
            mapped.store(0, Ordering::SeqCst);
            stream_map(
                |emit| {
                    for i in 0..20 {
                        emit(i);
                        assert_eq!(mapped.load(Ordering::SeqCst), i + 1, "item {i}");
                    }
                },
                |i: usize| {
                    mapped.fetch_add(1, Ordering::SeqCst);
                    i
                },
            )
        };
        let out = parallel_map(vec![true, false], |go| go.then(run));
        assert_eq!(out[0], Some((0..20).collect()));
        if threads_available() <= 1 {
            assert_eq!(run(), (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "the producer fails")]
    fn stream_propagates_a_panic_in_produce() {
        stream_map(
            |emit| {
                emit(1u32);
                panic!("the producer fails");
            },
            |i| i,
        );
    }

    #[test]
    #[should_panic(expected = "item 7 fails")]
    fn stream_propagates_a_panic_in_f() {
        streamed((0..40u32).collect(), |i| {
            assert_ne!(i, 7, "item 7 fails");
            i
        });
    }
}
