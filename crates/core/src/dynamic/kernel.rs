//! The epoch schedule: the epoch picks it from its size.
//!
//! There is one epoch loop ([`DynamicSystem`](crate::dynamic::DynamicSystem))
//! over one storage layout ([`crate::graph`]). Its RNG-free phases (slot
//! searches, the Lemma 10 attack pass, the two measurements) go through
//! `scheduled_map`: a generation of at least [`FAN_OUT_MIN_IDS`]
//! identities fans them out over [`tg_sim::parallel_map_chunked`], a
//! smaller one runs them on the calling thread. Results are folded in
//! input order either way, so observations do not depend on the
//! schedule.
//!
//! Below the threshold, spawning threads every phase costs more than it
//! saves: on 2 cores a d2b epoch fanned out takes ×1.05 the serial time
//! at n = 300 and ×0.94 at 1 000, but ×0.76–0.80 from 2 000 to 10 000.
//! Inside a sweep worker the epoch is serial at any size, because
//! `parallel_map_chunked` called from one of its own workers runs on
//! that worker instead of spawning a second layer of threads.
//!
//! [`KernelChoice`] is the retired `kernel=` codec token of
//! [`crate::scenario::ScenarioSpec`]. It selects nothing; it is kept
//! only so that labels carrying it, which are store keys, still parse
//! and re-encode byte-identically.

use tg_sim::parallel_map_chunked;

/// The smallest generation (identities, good and bad) whose epoch fans
/// its RNG-free phases out over worker threads.
pub const FAN_OUT_MIN_IDS: usize = 2_000;

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
    if ids >= FAN_OUT_MIN_IDS {
        parallel_map_chunked(items, chunk, f)
    } else {
        items.into_iter().map(f).collect()
    }
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
        let fanned = scheduled_map(FAN_OUT_MIN_IDS, (0..500).collect(), 7, |x: u32| x * 2);
        assert_eq!(fanned, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }
}
