//! # tg-experiments
//!
//! The harness that regenerates every quantitative claim of the paper —
//! the experiment index is the table below (`run_all --list` prints it;
//! README "Running experiments" and the per-experiment sections hold
//! the paper-vs-measured record). Each experiment is a library function
//! returning its [`table::Table`]s (so integration tests can drive it)
//! and one row of [`exp::REGISTRY`]; the one binary, `run_all`, parses
//! CLI options, runs the selected rows, prints their tables and writes
//! CSV under `results/`.
//!
//! | `run_all --only` | Claim reproduced |
//! |---|---|
//! | `e1` | Theorem 3 / Lemma 4: ε-robustness vs `n`, `β` |
//! | `e2` | §I-D: the `Θ(log log n)` threshold |
//! | `e3` | Corollary 1: message/state costs vs the `Θ(log n)` baseline |
//! | `e4` | Lemma 9 + ablations: dynamic stability, two-graph necessity |
//! | `e5` | Lemma 10: per-ID state under the join-request attack |
//! | `e6` | Lemma 11: minting bound, uniformity, one- vs two-hash |
//! | `e7` | Lemma 12: agreement, `O(ln n)` sets, `Õ(n ln T)` messages |
//! | `e8` | The \[47\] data point: cuckoo-rule group-size trade-off |
//! | `e9` | §IV-B: pre-computation attack neutralized |
//! | `e10` | The adversary-strategy matrix: placement strategies × identity pipelines |
//! | `e11` | The adversary-vs-defense frontier: β × d₂ capture heatmaps over the real `FullSystem` protocol |
//! | `e12` | Adaptive frontier refinement: bisected thresholds with confidence bands over the churn × topology axes |
//! | `e13` | Epoch throughput ladder: epochs/sec and identities/sec up to 10⁶ identities |
//! | `e14` | Actor runtime under network faults: capture and search success vs drop rate × partition length |
//! | `e15` | Exhaustive tiny-model check: every adversary placement × defense, with per-invariant verdicts |
//! | `figure1` | Figure 1: the input graph and group graph panels |
//!
//! No selection runs all sixteen; `--list` prints the registry.
//!
//! Every experiment that simulates a system constructs it through the
//! unified scenario API (`tg_core::scenario::ScenarioSpec` built by
//! `tg_pow::scenario::build` into an `EpochDriver`) — no direct
//! `DynamicSystem`/`FullSystem` constructor calls in this crate.
//! *How* a scenario is executed — the four run-wide switches
//! `--runtime`, `--transport`, `--check-invariants` and `--store` —
//! lives in one module, [`exec`]: [`args`] parses them into
//! [`Options::exec`], and experiments only ever ask the [`Exec`] to
//! install its axes on a spec, build a driver, or run a store-warm
//! trial. A new run-wide switch goes there, not into an experiment.

pub mod args;
pub mod artifacts;
pub mod exec;
pub mod exp;
pub mod frontier;
pub mod refine;
pub mod table;

pub use args::Options;
pub use exec::Exec;
pub use frontier::{Defense, FrontierConfig, FrontierOutcome, RowKey};
pub use refine::{RefineConfig, RefineOutcome};
pub use table::Table;
