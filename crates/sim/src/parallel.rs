//! Deterministic parallel parameter sweeps.
//!
//! Experiment harnesses sweep `(n, β, seed, …)` grids whose cells are
//! independent simulations. [`parallel_map`] fans the cells out over OS
//! threads with `std::thread::scope` and returns results **in input
//! order**, so parallel and serial runs produce byte-identical output —
//! the reproducibility contract of the whole workspace.
//!
//! [`stream_map`] is the same contract for items that a sequential
//! producer emits one at a time: workers map each item as it arrives
//! while the producer keeps going. [`parallel_map`] is the stream of a
//! ready `Vec`. Both run on one pool: items go through a channel and
//! each idle thread takes the next one, so heterogeneous cell costs
//! (e.g. `n = 2^10` next to `n = 2^17`) still balance, and the calling
//! thread joins the spawned workers once the producer is done.
//!
//! [`map_steps`] is the same contract for a computation in lockstep
//! steps (the string flood): each step maps every block of some state
//! against what the previous step produced, and the step's results are
//! joined, in block order, before the next step starts; a join can end
//! the steps early. It runs on the same pool: the producer wakes each
//! of the pool's workers once per step, and they and the calling thread
//! take the step's blocks.
//!
//! [`beside`] is the pool at its smallest: one closure on the calling
//! thread while the spare thread runs another (an epoch's build beside
//! its network phase), with the same inline rule.
//!
//! Nesting is harmless: a call made from inside a worker (a sweep cell
//! whose epoch fans out) runs serially on that worker instead of
//! spawning a second layer of threads — the outer map already occupies
//! every core, and by the order contract the results are the same
//! either way. The calling thread counts as a worker while it drains,
//! so a cell it takes is serial too.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock, RwLock};

thread_local! {
    /// Set on every worker thread a map spawns, and on the calling
    /// thread while it drains.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The mark a thread had before it started draining as a worker; the
/// drop restores it, also when `f` panics (a caller that catches the
/// panic keeps its own schedule).
struct WorkerMark(bool);

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

/// Threads a map may spawn beside the calling thread: one fewer than
/// the available parallelism, or none inside another map's worker.
///
/// The parallelism is read once per process: on Linux the standard
/// library answers it from the cgroup's CPU quota files, which costs
/// about as much as spawning and joining a thread.
fn spare_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.get() {
        0
    } else {
        CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get())) - 1
    }
}

/// Blocks [`map_steps`] asks for per thread. More than one, so a
/// thread that the host stops for a while holds up at most one small
/// block of a step while the others take the rest.
const BLOCKS_PER_THREAD: usize = 4;

/// Apply `f` to every item, in parallel, returning results in input order.
///
/// `f` must be `Sync` (it is shared across threads) and the items are
/// consumed by value. The calling thread and up to `available
/// parallelism − 1` spawned workers each take the next item when idle.
/// No more threads run than there are items, so one item runs inline on
/// the calling thread, as does every item of a call made from inside
/// another map's worker.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = spare_threads().min(items.len().saturating_sub(1));
    map_on(workers, |emit| items.into_iter().for_each(emit), f)
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
    map_on(spare_threads(), produce, f)
}

/// Run `first` on the calling thread while the pool's spare thread runs
/// `second`, and return both results.
///
/// This is [`stream_map`] over one item: the producer emits `second`
/// and then runs `first` itself, so the two overlap whenever a spare
/// thread exists. With one CPU, or inside another map's worker, both
/// run inline, `first` then `second`. Either way both halves run to
/// their end, and a panic in either reaches the caller only then.
pub fn beside<RA, RB>(first: impl FnOnce() -> RA, second: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RB: Send,
{
    if spare_threads() == 0 {
        let a = catch_unwind(AssertUnwindSafe(first));
        let b = second();
        return (a.unwrap_or_else(|p| resume_unwind(p)), b);
    }
    let mut a = None;
    let mut b = map_on(
        1,
        |emit| {
            emit(second);
            a = Some(first());
        },
        |second| second(),
    );
    (a.expect("the producer ran first"), b.pop().expect("the pool ran second"))
}

/// The one pool: [`stream_map`] with `workers` spawned threads beside
/// the calling thread, or inline when `workers` is 0.
fn map_on<T, R, P, F>(workers: usize, produce: P, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    P: FnOnce(&mut dyn FnMut(T)),
    F: Fn(T) -> R + Sync,
{
    if workers == 0 {
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
        let workers: Vec<_> = (0..workers)
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
        let mut done = {
            let _mark = WorkerMark(IN_WORKER.replace(true));
            drain()
        };
        for w in workers {
            done.extend(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Run `steps` lockstep steps over blocks of state, joining each
/// step's results in block order before the next step starts; returns
/// the context as the last join left it.
///
/// `cut(k)` is called once and returns the blocks (asked for `k`; any
/// number works). Each step applies `step(&ctx, block)` to every block
/// — a block may only read `ctx` and its own state — and then
/// `join(&mut ctx, results)` on the calling thread, with the results in
/// block order. A join that returns [`ControlFlow::Break`] ends the
/// steps there. So the outcome is the serial one for any thread count,
/// as long as it does not depend on how the state was cut.
///
/// The steps run on the one pool: each step wakes its spare workers,
/// and they and the calling thread take the step's blocks, each the
/// next unclaimed one when idle. A step ends when its blocks are done,
/// not when every worker has looked in, so a worker that the host does
/// not run for a while holds up at most the one block it took. With
/// one CPU, or inside another map's worker, `cut` is asked for one
/// block. Fewer than two blocks, or no spare thread, step on the
/// calling thread with no thread spawned. A panic in `cut`, `step` or
/// `join` propagates to the caller once the workers have stopped.
pub fn map_steps<B, C, R, F, J>(
    steps: usize,
    cut: impl FnOnce(usize) -> Vec<B>,
    ctx: C,
    step: F,
    mut join: J,
) -> C
where
    B: Send,
    C: Send + Sync,
    R: Send,
    F: Fn(&C, &mut B) -> R + Sync,
    J: FnMut(&mut C, Vec<R>) -> ControlFlow<()>,
{
    let spare = spare_threads();
    let mut blocks = cut(if spare == 0 { 1 } else { (spare + 1) * BLOCKS_PER_THREAD });
    let workers = spare.min(blocks.len().saturating_sub(1));
    if workers == 0 || steps == 0 {
        let mut ctx = ctx;
        for _ in 0..steps {
            let results = blocks.iter_mut().map(|block| step(&ctx, block)).collect();
            if join(&mut ctx, results).is_break() {
                break;
            }
        }
        return ctx;
    }

    let blocks: Vec<Mutex<B>> = blocks.into_iter().map(Mutex::new).collect();
    let ctx = RwLock::new(ctx);
    // The step's next unclaimed block. It is reset, and the context
    // joined, only under the context's write lock, and blocks are
    // claimed only under its read lock: every claim a thread makes
    // under one read lock is of one step, against that step's context.
    // (The lock orders the reset before the claims, hence `Relaxed`.)
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    // Take the step's blocks until none is left, sending each block's
    // result, or its panic, to the caller.
    let drain = || {
        // Poisoned only by a join that panicked: the caller is stopping.
        let Ok(ctx) = ctx.read() else { return };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(i) else { return };
            let mapped = catch_unwind(AssertUnwindSafe(|| {
                step(&ctx, &mut block.lock().expect("a block whose step panicked ends the steps"))
            }));
            tx.send((i, mapped)).expect("the caller takes every block's result");
        }
    };

    let produce = |wake: &mut dyn FnMut(())| {
        let _mark = WorkerMark(IN_WORKER.replace(true));
        for s in 1..=steps {
            (0..workers).for_each(|_| wake(()));
            drain();
            let mut mapped: Vec<_> = rx.iter().take(blocks.len()).collect();
            mapped.sort_unstable_by_key(|&(i, _)| i);
            // The step has finished; its first failing block, if any,
            // ends the steps.
            let results = mapped.into_iter().map(|(_, r)| r.unwrap_or_else(|p| resume_unwind(p)));
            let results = results.collect();
            let mut joined = ctx.write().expect("unpoisoned");
            // After the last step, or a join that ends the steps, the
            // blocks stay claimed: a worker that wakes late must find
            // nothing left to step.
            if join(&mut joined, results).is_break() || s == steps {
                break;
            }
            next.store(0, Ordering::Relaxed);
        }
    };
    map_on(workers, produce, |()| drain());
    ctx.into_inner().expect("no join panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

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
        if spare_threads() == 0 {
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

    /// The calling thread drains beside the spawned workers; an item it
    /// takes must run nested maps on itself, as a worker's item does.
    #[test]
    fn the_caller_is_a_worker_while_it_drains() {
        if spare_threads() == 0 {
            return; // inline: nothing is drained
        }
        // Two items, so one spawned worker. Neither item gets past the
        // barrier before the other has started, so each runs on its own
        // thread, and one of them on the caller.
        let both_started = Barrier::new(2);
        let out = parallel_map(vec![0u64, 1], |row| {
            both_started.wait();
            let me = std::thread::current().id();
            // The producer waits for its one item to be mapped: inline
            // that happened before `emit` returned, fanned out a spawned
            // worker maps it.
            let (mapped_tx, mapped_rx) = mpsc::channel();
            let streamed = stream_map(
                |emit| {
                    emit(row);
                    mapped_rx.recv().expect("the item is mapped");
                },
                |x| {
                    mapped_tx.send(()).expect("the producer waits");
                    (x, std::thread::current().id())
                },
            );
            let nested = parallel_map(vec![row, row + 10], |x| (x, std::thread::current().id()));
            (me, streamed, nested)
        });
        assert!(!IN_WORKER.get(), "the caller stayed marked after its drain");
        let caller = std::thread::current().id();
        assert!(out.iter().any(|&(me, ..)| me == caller), "the caller took no item");
        for (row, (me, streamed, nested)) in (0u64..).zip(out) {
            assert_eq!(streamed, vec![(row, me)], "the stream left item {row}'s thread");
            assert_eq!(nested, vec![(row, me), (row + 10, me)], "the map left item {row}'s thread");
        }
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
        if spare_threads() == 0 {
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

    /// A lockstep automaton for [`map_steps`]: cell `i` of the next row
    /// mixes cells `i − 1`, `i`, `i + 1` of the last one. A block is a
    /// run of cells plus a counter the caller owns, which a step bumps.
    struct Row<'a> {
        cells: std::ops::Range<usize>,
        runs: &'a mut usize,
    }

    fn next_cell(row: &[u64], i: usize, step: u64) -> u64 {
        let left = row[(i + row.len() - 1) % row.len()];
        let right = row[(i + 1) % row.len()];
        (left.rotate_left(7) ^ row[i].wrapping_mul(31) ^ right).wrapping_add(step)
    }

    /// `(step, row)` after `steps` steps of the automaton through
    /// [`map_steps`], cut into at most `want` blocks (or as many as it
    /// asks for); `runs` gets one counter per block.
    fn automaton(
        width: usize,
        steps: usize,
        want: Option<usize>,
        runs: &mut Vec<usize>,
    ) -> (u64, Vec<u64>) {
        let first = (0..width as u64).map(|i| i * 0x9e37_79b9).collect();
        map_steps(
            steps,
            |k| {
                let k = want.unwrap_or(k).clamp(1, width.max(1));
                *runs = vec![0; k];
                let ends: Vec<usize> = (0..=k).map(|b| b * width / k).collect();
                (ends.windows(2).zip(runs.iter_mut()))
                    .map(|(w, runs)| Row { cells: w[0]..w[1], runs })
                    .collect()
            },
            (0u64, first),
            |(step, row): &(u64, Vec<u64>), block: &mut Row<'_>| {
                *block.runs += 1;
                let cells = block.cells.clone();
                (cells.start, cells.map(|i| next_cell(row, i, *step)).collect::<Vec<_>>())
            },
            |(step, row), done: Vec<(usize, Vec<u64>)>| {
                let mut next = Vec::with_capacity(row.len());
                for (start, cells) in done {
                    assert_eq!(start, next.len(), "blocks are joined in block order");
                    next.extend(cells);
                }
                *row = next;
                *step += 1;
                ControlFlow::Continue(())
            },
        )
    }

    fn automaton_serially(width: usize, steps: usize) -> (u64, Vec<u64>) {
        let mut row: Vec<u64> = (0..width as u64).map(|i| i * 0x9e37_79b9).collect();
        for step in 0..steps as u64 {
            row = (0..width).map(|i| next_cell(&row, i, step)).collect();
        }
        (steps as u64, row)
    }

    #[test]
    fn steps_match_the_serial_run_in_block_order() {
        for (width, steps) in [(1, 5), (3, 4), (64, 9), (1000, 21)] {
            let mut runs = Vec::new();
            let out = automaton(width, steps, None, &mut runs);
            assert_eq!(out, automaton_serially(width, steps), "width {width}");
            assert!(runs.iter().all(|&r| r == steps), "width {width}: block runs {runs:?}");
            let asked = if spare_threads() == 0 { 1 } else { (spare_threads() + 1) * 4 };
            assert_eq!(runs.len(), asked.min(width), "width {width}");
        }
    }

    #[test]
    fn one_block_and_more_blocks_than_asked_for_both_work() {
        for want in [1, 100] {
            let mut runs = Vec::new();
            let out = automaton(300, 7, Some(want), &mut runs);
            assert_eq!(out, automaton_serially(300, 7), "{want} blocks");
            assert_eq!(runs, vec![7; want], "{want} blocks");
        }
    }

    #[test]
    fn zero_steps_return_the_context_untouched() {
        let mut runs = Vec::new();
        let out = automaton(50, 0, None, &mut runs);
        assert_eq!(out, automaton_serially(50, 0));
        assert!(runs.iter().all(|&r| r == 0), "no block ran");
    }

    /// [`map_steps`] over counter blocks (at least 4, or as many as it
    /// asks for) whose join ends the steps after step `k` of 10: the
    /// steps joined, with `runs` holding each block's step count.
    fn steps_until(k: usize, runs: &mut Vec<usize>) -> usize {
        map_steps(
            10,
            |n| {
                *runs = vec![0; n.max(4)];
                runs.iter_mut().collect()
            },
            0,
            |_, runs: &mut &mut usize| **runs += 1,
            |joined, _| {
                *joined += 1;
                if *joined == k {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
    }

    /// A join that breaks ends the steps, pooled on the test thread and
    /// inline inside a worker: exactly `k` steps run, and every block
    /// stepped exactly `k` times, so no worker that woke late for the
    /// last step found a block left to step.
    #[test]
    fn a_join_that_breaks_ends_the_steps() {
        for k in [1, 3, 10] {
            let mut runs = Vec::new();
            assert_eq!(steps_until(k, &mut runs), k, "pooled");
            assert!(runs.iter().all(|&r| r == k), "pooled, k = {k}: block runs {runs:?}");
            let inline = parallel_map(vec![true, false], |go| {
                let mut runs = Vec::new();
                go.then(|| (steps_until(k, &mut runs), runs))
            });
            let (steps, runs) = inline[0].clone().expect("the first item runs");
            assert_eq!(steps, k, "inline");
            assert_eq!(runs, vec![k; 4], "inline, k = {k}");
        }
    }

    #[test]
    fn steps_run_inline_inside_a_worker() {
        let out = parallel_map(vec![0usize, 1], |row| {
            let me = std::thread::current().id();
            let mut asked = 0;
            let threads = map_steps(
                3,
                |k| {
                    asked = k;
                    vec![(); 5]
                },
                Vec::new(),
                |_, _| std::thread::current().id(),
                |seen: &mut Vec<_>, done| {
                    seen.extend(done);
                    ControlFlow::Continue(())
                },
            );
            assert!(threads.iter().all(|&t| t == me), "item {row}: a step left its worker");
            (asked, threads.len())
        });
        assert_eq!(out, vec![(1, 15), (1, 15)]);
    }

    /// The blocks of a step really run at once: in each step, block 0
    /// waits for block 1 to mark the step from another thread, so a
    /// serialised schedule fails after 5 s instead of hanging.
    #[test]
    fn steps_overlap_blocks_given_a_spare_thread() {
        if spare_threads() == 0 {
            return; // inline: the blocks run one after the other
        }
        let marks: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..3).map(|_| Mutex::new(None)).collect();
        let overlapped = map_steps(
            3,
            |_| vec![0u8, 1],
            Vec::new(),
            |done: &Vec<bool>, &mut b: &mut u8| {
                let (mark, me) = (&marks[done.len()], std::thread::current().id());
                if b == 1 {
                    *mark.lock().expect("unpoisoned") = Some(me);
                    return true;
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                loop {
                    match *mark.lock().expect("unpoisoned") {
                        Some(by) => return by != me,
                        None if std::time::Instant::now() > deadline => return false,
                        None => {}
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
            |done, blocks: Vec<bool>| {
                done.push(blocks[0]);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(overlapped, vec![true; 3], "a step's blocks ran on one thread");
    }

    #[test]
    #[should_panic(expected = "block 2 fails at step 3")]
    fn steps_propagate_a_panic_in_a_step() {
        map_steps(
            6,
            |k| (0..k.max(4)).collect(),
            0usize,
            |&step, &mut b: &mut usize| assert!((step, b) != (3, 2), "block 2 fails at step 3"),
            |step, _| {
                *step += 1;
                ControlFlow::Continue(())
            },
        );
    }

    #[test]
    fn beside_returns_both_results() {
        let mut built = Vec::new();
        let shared = [3u64, 5, 7];
        let (len, sum) = beside(
            || {
                built.extend(0..10u32);
                built.len()
            },
            || shared.iter().sum::<u64>(),
        );
        assert_eq!((len, sum), (10, 15));
        assert_eq!(built, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn beside_runs_inline_inside_a_worker_and_on_one_cpu() {
        let here = || std::thread::current().id();
        let out = parallel_map(vec![0u8, 1], |_| (here(), beside(here, here)));
        for (me, (first, second)) in out {
            assert_eq!((first, second), (me, me), "a half left its worker");
        }
        if spare_threads() == 0 {
            let me = here();
            assert_eq!(beside(here, here), (me, me), "one CPU: both halves inline");
        }
    }

    /// The halves really overlap: `first` waits for a flag that only
    /// `second` sets, so a serialised schedule fails after 5 s instead
    /// of hanging.
    #[test]
    fn beside_overlaps_the_halves_given_a_spare_thread() {
        if spare_threads() == 0 {
            return; // inline: the halves run one after the other
        }
        let set = std::sync::atomic::AtomicBool::new(false);
        let (seen, ()) = beside(
            || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while !set.load(Ordering::SeqCst) {
                    if std::time::Instant::now() > deadline {
                        return false;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                true
            },
            || set.store(true, Ordering::SeqCst),
        );
        assert!(seen, "second did not run while first was running");
    }

    /// `beside(first, second)` where one half panics and the other, given
    /// a spare thread, waits until the failing half has started and then
    /// marks that it ended: the panic must reach the caller after the
    /// mark. Inline the halves run in order, so the other half need not
    /// wait.
    fn beside_panics_after_both_end(first_panics: bool) {
        let threaded = spare_threads() > 0;
        let ended = std::sync::atomic::AtomicBool::new(false);
        let (started, start) = mpsc::channel();
        let ended_ref = &ended;
        let other = move || {
            if threaded {
                let waited = start.recv_timeout(std::time::Duration::from_secs(5));
                waited.expect("the failing half starts");
            }
            ended_ref.store(true, Ordering::SeqCst);
        };
        let fail = move || {
            // The other half may be waiting; inline it runs later.
            let _ = started.send(());
            panic!("this half fails");
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if first_panics {
                beside(fail, other);
            } else {
                beside(other, fail);
            }
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"this half fails"));
        assert!(ended.load(Ordering::SeqCst), "the other half had not ended");
    }

    #[test]
    fn beside_propagates_a_panic_in_first_after_second_ends() {
        beside_panics_after_both_end(true);
    }

    #[test]
    fn beside_propagates_a_panic_in_second_after_first_ends() {
        beside_panics_after_both_end(false);
    }

    #[test]
    #[should_panic(expected = "the join fails")]
    fn steps_propagate_a_panic_in_the_join() {
        map_steps(
            6,
            |k| vec![(); k],
            0usize,
            |_, _| (),
            |step, _| {
                *step += 1;
                assert_ne!(*step, 2, "the join fails");
                ControlFlow::Continue(())
            },
        );
    }
}
