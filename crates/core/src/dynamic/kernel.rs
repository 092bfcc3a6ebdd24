//! The epoch schedule: the epoch picks it from its size.
//!
//! There is one epoch loop ([`DynamicSystem`](crate::dynamic::DynamicSystem))
//! over one storage layout ([`crate::graph`]). Its RNG-free work goes
//! through the functions here, and a generation of at least
//! [`FAN_OUT_MIN_IDS`] identities runs it on worker threads:
//!
//! * the build's slot searches go through `scheduled_stream`: the
//!   build's one sequential pass emits each finished block of slots,
//!   and [`tg_sim::stream_map`] searches it on a worker while the pass
//!   keeps drawing;
//! * the Lemma 10 attack pass and the two measurements go through
//!   `scheduled_map`, which cuts its items into blocks and maps the
//!   blocks with [`tg_sim::parallel_map`].
//!
//! Both run on `tg_sim`'s one worker pool. A smaller generation runs
//! both on the calling thread, with no thread spawned and no channel
//! opened. Results come back in input order either way, so
//! observations do not depend on the schedule. The §IV string flood
//! (`tg_pow::strings`) takes the same rule through [`scheduled_steps`]:
//! on a graph of at least [`FAN_OUT_MIN_IDS`] groups each of its steps
//! runs in blocks of nodes on the same pool ([`tg_sim::map_steps`]);
//! a smaller graph is one block, stepped on the calling thread.
//!
//! Below the threshold, spawning threads costs more than it saves.
//! Wall per epoch, fanned out ÷ serial, on 2 cores (available
//! parallelism 2): per round, one seed's 4 timed epochs each way,
//! alternating which way runs first; the median ratio over the rounds,
//! with its quartiles. The measurement was run twice, minutes apart on
//! a shared host:
//!
//! | epoch, run | 300 | 500 | 1 000 | 2 000 |
//! |---|---|---|---|---|
//! | §IV system (chord, `f∘g`, flood), 1 | ×1.08 (0.89–1.37) | ×0.84 (0.75–1.05) | ×0.71 (0.69–0.80) | ×0.65 (0.64–0.67) |
//! | §IV system, 2 | ×1.17 (1.03–1.33) | ×1.01 (0.87–1.24) | ×0.69 (0.67–0.73) | ×0.67 (0.62–0.72) |
//! | honest d2b, no PoW, 1 | ×0.83 (0.78–0.92) | ×0.72 (0.66–0.92) | ×0.62 (0.60–0.66) | ×0.64 (0.58–0.74) |
//! | honest d2b, no PoW, 2 | ×1.04 (1.01–1.06) | ×1.02 (0.99–1.03) | ×1.02 (1.01–1.03) | ×0.68 (0.56–0.97) |
//!
//! (20 rounds per §IV cell, 30 per d2b cell; at each size, the §IV
//! epochs run the benchmark's `pow_protocol` label with its honest
//! strategy, the d2b ones its `scale_honest` label.) At 300 the §IV
//! epoch loses in both runs. From 500 up no median is worse than ×1.02,
//! and the §IV epoch, whose flood fans out too, gains ≈ 30 % from 1 000
//! up in both runs. So the threshold is 500: the benchmark's
//! 10³-identity `pow_protocol` epochs fan out, and its 316-identity
//! `net_faulty` epochs stay serial.
//!
//! The actor runtime adds one more entry, [`scheduled_beside`]: below
//! [`FAN_OUT_MIN_IDS`] identities an epoch's build and measurement run
//! on the calling thread and leave the spare thread idle, so the
//! network's routing-probe phase runs there, beside them
//! ([`tg_sim::beside`]; `crate::runtime` says why no byte moves). From
//! [`FAN_OUT_MIN_IDS`] up the build's own fan-out keeps that thread
//! busy, and the probes run after it. On the benchmark's `net_faulty`
//! label (316 identities, 2 000 searches, loopback TCP with drops,
//! latency and a partition), on 2 shared cores: a `defense=none` epoch
//! takes 2.80 ms sequential and 2.22 ms beside, an `f∘g` epoch 4.54 ms
//! and 3.94 ms (medians of 120 epochs each way, 20 seeds × 6 epochs,
//! alternating which way runs first; quartiles 2.73–3.65 | 2.10–2.92
//! and 4.31–4.89 | 3.75–4.35 ms). The host's speed drifts: an earlier
//! run of the same comparison read 5.36 | 4.29 and 8.12 | 7.03 ms.
//!
//! Inside a sweep worker the epoch is serial at any size, because a
//! map called from a map's worker runs on that worker instead of
//! spawning a second layer of threads. The calling thread counts as a
//! worker while it drains a map, so a sweep cell it takes is serial
//! too.
//!
//! [`KernelChoice`] is the retired `kernel=` codec token of
//! [`crate::scenario::ScenarioSpec`]. It selects nothing; it is kept
//! only so that labels carrying it, which are store keys, still parse
//! and re-encode byte-identically.

use std::ops::ControlFlow;
use tg_sim::{beside, map_steps, parallel_map, stream_map};

/// The smallest generation (identities, good and bad) whose epoch fans
/// its RNG-free phases out over worker threads, and the smallest graph
/// (in groups) whose string flood does.
pub const FAN_OUT_MIN_IDS: usize = 500;

/// The retired schedule token (`kernel=legacy|arena`): parsed and
/// re-encoded, never read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Token `legacy` (the default, elided from labels).
    #[default]
    Legacy,
    /// Token `arena`.
    Arena,
}

impl KernelChoice {
    /// Stable codec token (`legacy` / `arena`).
    pub fn label(self) -> &'static str {
        match self {
            KernelChoice::Legacy => "legacy",
            KernelChoice::Arena => "arena",
        }
    }

    /// Parse a codec token.
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "legacy" => Some(KernelChoice::Legacy),
            "arena" => Some(KernelChoice::Arena),
            _ => None,
        }
    }
}

/// Map `f` over `items` in input order for an epoch over `ids`
/// identities: in `chunk`-sized blocks over worker threads when `ids`
/// reaches [`FAN_OUT_MIN_IDS`], on the calling thread otherwise. The one
/// place the schedule is decided.
pub(crate) fn scheduled_map<T, R, F>(ids: usize, items: Vec<T>, chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if ids < FAN_OUT_MIN_IDS {
        return items.into_iter().map(f).collect();
    }
    let chunk = chunk.max(1); // a chunk of 0 would cut no block
    let n_blocks = items.len().div_ceil(chunk);
    let mut items = items.into_iter();
    let blocks: Vec<Vec<T>> = (0..n_blocks).map(|_| items.by_ref().take(chunk).collect()).collect();
    parallel_map(blocks, |block| block.into_iter().map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Map `f` over the items `produce` emits, in emission order, for an
/// epoch over `ids` identities: streamed to worker threads while
/// `produce` keeps going when `ids` reaches [`FAN_OUT_MIN_IDS`]
/// ([`tg_sim::stream_map`]), inline as each item is emitted otherwise.
pub(crate) fn scheduled_stream<T, R, P, F>(ids: usize, produce: P, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    P: FnOnce(&mut dyn FnMut(T)),
    F: Fn(T) -> R + Sync,
{
    if ids >= FAN_OUT_MIN_IDS {
        stream_map(produce, f)
    } else {
        let mut out = Vec::new();
        produce(&mut |item| out.push(f(item)));
        out
    }
}

/// [`tg_sim::map_steps`] for lockstep steps over a graph of `ids`
/// groups (the string flood): `cut` is asked for the pool's number of
/// blocks when `ids` reaches [`FAN_OUT_MIN_IDS`], so the blocks of each
/// step fan out over the pool's workers; otherwise it is asked for one
/// block, which steps on the calling thread. A join that breaks ends
/// the steps either way.
pub fn scheduled_steps<B, C, R, F, J>(
    ids: usize,
    steps: usize,
    cut: impl FnOnce(usize) -> Vec<B>,
    ctx: C,
    step: F,
    join: J,
) -> C
where
    B: Send,
    C: Send + Sync,
    R: Send,
    F: Fn(&C, &mut B) -> R + Sync,
    J: FnMut(&mut C, Vec<R>) -> ControlFlow<()>,
{
    let fan_out = ids >= FAN_OUT_MIN_IDS;
    map_steps(steps, |k| cut(if fan_out { k } else { 1 }), ctx, step, join)
}

/// Run `work` on the calling thread and `side` beside it, for an epoch
/// over `ids` identities: on the pool's spare thread
/// ([`tg_sim::beside`]) when `ids` is below [`FAN_OUT_MIN_IDS`], where
/// `work` itself runs serially and leaves that thread idle; one after
/// the other otherwise, where `work`'s own fan-out keeps the spare
/// thread busy.
pub fn scheduled_beside<RA, RB>(
    ids: usize,
    work: impl FnOnce() -> RA,
    side: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RB: Send,
{
    if ids < FAN_OUT_MIN_IDS {
        return beside(work, side);
    }
    let done = work();
    (done, side())
}

/// Run `f` once inside a [`tg_sim::parallel_map`] worker, where every
/// epoch is serial. With one CPU the map runs on the calling thread,
/// and so does `f`.
#[cfg(test)]
pub(crate) fn in_a_worker<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let mut out = tg_sim::parallel_map(vec![true, false], |run| run.then(&f));
    out.swap_remove(0).expect("the first item runs f")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_tokens_round_trip() {
        for c in [KernelChoice::Legacy, KernelChoice::Arena] {
            assert_eq!(KernelChoice::parse(c.label()), Some(c));
        }
        assert_eq!(KernelChoice::parse("simd"), None);
        assert_eq!(KernelChoice::default(), KernelChoice::Legacy);
    }

    /// Small epochs never pay for threads: below [`FAN_OUT_MIN_IDS`]
    /// every item runs on the calling thread, whatever the chunk.
    #[test]
    fn small_epochs_stay_on_the_calling_thread() {
        let me = std::thread::current().id();
        for chunk in [1, 64] {
            let threads =
                scheduled_map(FAN_OUT_MIN_IDS - 1, (0..500).collect(), chunk, |_: u32| {
                    std::thread::current().id()
                });
            assert!(threads.iter().all(|&t| t == me), "chunk {chunk}");
        }

        let produce = |emit: &mut dyn FnMut(u32)| (0..500).for_each(emit);
        let threads =
            scheduled_stream(FAN_OUT_MIN_IDS - 1, produce, |_| std::thread::current().id());
        assert!(threads.iter().all(|&t| t == me), "stream");
        let streamed = scheduled_stream(FAN_OUT_MIN_IDS, produce, |x| x * 2);
        assert_eq!(streamed, (0..500).map(|x| x * 2).collect::<Vec<_>>());

        // Three steps over 500 cells, each cell mapped against how many
        // the earlier steps joined: the serial run is 0..1500.
        let steps = |ids| {
            let mut asked = 0;
            let out = scheduled_steps(
                ids,
                3,
                |k| {
                    asked = k;
                    (0..k).map(|b| b * 500 / k..(b + 1) * 500 / k).collect()
                },
                Vec::new(),
                |done: &Vec<(usize, _)>, cells: &mut std::ops::Range<usize>| {
                    let cells = cells.clone();
                    cells.map(|i| (i + done.len(), std::thread::current().id())).collect()
                },
                |done, blocks: Vec<Vec<_>>| {
                    done.extend(blocks.into_iter().flatten());
                    ControlFlow::Continue(())
                },
            );
            (asked, out)
        };
        let (asked, small) = steps(FAN_OUT_MIN_IDS - 1);
        assert_eq!(asked, 1, "a small flood asked for more than one block");
        assert!(small.iter().all(|&(_, t)| t == me), "steps");
        let (_, fanned) = steps(FAN_OUT_MIN_IDS);
        let cells = |out: Vec<(usize, _)>| out.into_iter().map(|(i, _)| i).collect::<Vec<_>>();
        assert_eq!(cells(small), (0..1500).collect::<Vec<_>>());
        assert_eq!(cells(fanned), (0..1500).collect::<Vec<_>>());
    }

    /// From [`FAN_OUT_MIN_IDS`] up the epoch's own fan-out has the spare
    /// thread, so both halves stay on the calling thread; below it the
    /// side half may take that thread. Both results come back either way.
    #[test]
    fn beside_only_below_the_fan_out_size() {
        let here = || std::thread::current().id();
        let me = here();
        assert_eq!(scheduled_beside(FAN_OUT_MIN_IDS, here, here), (me, me));
        let (work, _) = scheduled_beside(FAN_OUT_MIN_IDS - 1, here, here);
        assert_eq!(work, me, "the work half stays on the calling thread");
        assert_eq!(scheduled_beside(FAN_OUT_MIN_IDS - 1, || 2, || 3), (2, 3));
    }

    /// Fanned out, the blocks fold back in input order for every chunk
    /// size, the degenerate ones included: 0 (cut as 1), one item per
    /// block, and one block holding every item.
    #[test]
    fn fanned_map_matches_serial_for_every_chunk() {
        let items: Vec<u64> = (0..537).map(|i| i * 3 + 1).collect();
        let expect: Vec<u64> = items.iter().map(|&k| k.wrapping_mul(k) ^ 0xA5).collect();
        for chunk in [0usize, 1, 2, 7, 64, 537, 10_000] {
            let out = scheduled_map(FAN_OUT_MIN_IDS, items.clone(), chunk, |k: u64| {
                k.wrapping_mul(k) ^ 0xA5
            });
            assert_eq!(out, expect, "chunk {chunk}");
        }
    }

    /// Skewed per-item work (every 13th item ~2000× heavier, like a
    /// search that runs long) still folds back in input order.
    #[test]
    fn fanned_map_balances_skewed_costs() {
        let items: Vec<u64> = (0..256).map(|i| if i % 13 == 0 { 40_000 } else { 20 }).collect();
        let expect: Vec<u64> = items.iter().map(|&k| (0..k).sum::<u64>()).collect();
        let out = scheduled_map(FAN_OUT_MIN_IDS, items, 8, |k: u64| (0..k).sum::<u64>());
        assert_eq!(out, expect);
    }

    #[test]
    fn fanned_map_empty_and_single() {
        let out: Vec<i32> = scheduled_map(FAN_OUT_MIN_IDS, Vec::new(), 4, |x: i32| x);
        assert!(out.is_empty());
        assert_eq!(scheduled_map(FAN_OUT_MIN_IDS, vec![41], 4, |x: i32| x + 1), vec![42]);
    }
}
