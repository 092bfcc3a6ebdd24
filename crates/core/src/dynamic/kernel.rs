//! The epoch schedule: one system, run sequentially or fanned out.
//!
//! There is one epoch loop ([`DynamicSystem`](crate::dynamic::DynamicSystem))
//! over one storage layout ([`crate::graph`]). [`KernelChoice`] — the
//! `kernel` knob of [`crate::scenario::ScenarioSpec`] — decides whether
//! an epoch's RNG-free phases (slot searches, Lemma 10 attack pass, the
//! two measurements) run on the calling thread or fan out over
//! [`tg_sim::parallel_map_chunked`]. Results are folded in input order
//! either way, so the reports are identical.
//!
//! Both values have callers: sweeps that fan out at cell level (`e11`,
//! `e12`, the benchmark's `sweep_cells`) keep the epoch sequential;
//! single large runs (`e13`, `scale_honest`) fan out inside it.
//! Combining the two is harmless: `parallel_map_chunked` called from
//! inside one of its own workers runs serially on that worker, so a
//! fanned-out epoch inside a sweep cell is the sequential schedule, not
//! a second layer of threads. The codec tokens (`legacy` / `arena`) are older than
//! this meaning and stay as they are: labels are store keys.

use tg_sim::parallel_map_chunked;

/// How an epoch's RNG-free phases are scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Sequential: everything on the calling thread (token `legacy`).
    #[default]
    Legacy,
    /// Fanned out over worker threads in fixed blocks (token `arena`).
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

    /// Whether the epoch fans out (see
    /// [`DynamicSystem::set_fan_out`](crate::dynamic::DynamicSystem::set_fan_out)).
    pub fn fan_out(self) -> bool {
        self == KernelChoice::Arena
    }
}

/// Map `f` over `items` in input order: in `chunk`-sized blocks over
/// worker threads when `fan_out`, on the calling thread otherwise. The
/// one place the schedule flag is read.
pub(crate) fn scheduled_map<T, R, F>(fan_out: bool, items: Vec<T>, chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if fan_out {
        parallel_map_chunked(items, chunk, f)
    } else {
        items.into_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::provider::UniformProvider;
    use crate::dynamic::{BuildMode, DynamicSystem};
    use crate::params::Params;
    use tg_overlay::GraphKind;

    #[test]
    fn choice_tokens_round_trip() {
        for c in [KernelChoice::Legacy, KernelChoice::Arena] {
            assert_eq!(KernelChoice::parse(c.label()), Some(c));
        }
        assert_eq!(KernelChoice::parse("simd"), None);
        assert_eq!(KernelChoice::default(), KernelChoice::Legacy);
        assert!(!KernelChoice::default().fan_out());
    }

    #[test]
    fn kernels_agree_through_the_dispatcher() {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.1;
        params.attack_requests_per_id = 1;
        let mut provider = UniformProvider { n_good: 380, n_bad: 20 };
        let mut reports = Vec::new();
        for choice in [KernelChoice::Legacy, KernelChoice::Arena] {
            let mut k =
                DynamicSystem::new(params, GraphKind::D2B, BuildMode::DualGraph, &mut provider, 5);
            k.set_fan_out(choice.fan_out());
            assert_eq!(k.graphs().sides(), 2);
            reports.push(format!("{:?}", k.run(&mut provider, 2)));
        }
        assert_eq!(reports[0], reports[1]);
    }
}
