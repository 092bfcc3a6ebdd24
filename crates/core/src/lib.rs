//! # tg-core
//!
//! The paper's primary contribution: **group graphs with
//! `Θ(log log n)`-size groups** that tolerate a Byzantine adversary
//! controlling a `β`-fraction of computational power, achieving
//! `O(1/poly(log n))`-robustness (Theorem 3).
//!
//! ## Layout
//!
//! * [`params`] — the tunable constants of the construction
//!   (`β, δ, d1, d2`, group-size rule),
//! * [`population`] — one generation of IDs with its good/bad marking,
//! * [`group`] — a group's classification (good/bad; the paper's §I-C
//!   invariant and the operational good-majority test),
//! * [`graph`] — the **group graph** `G` over an input graph `H`
//!   (§II-A): one group per ID, blue/red coloring (S1–S3), its groups in
//!   CSR columns — one set per side, shared by the static graphs and the
//!   epoch system,
//! * [`build`] — constructing groups by hashing
//!   (`member i of G_w = suc(h(w,i))`, §III-A),
//! * [`routing`] — secure search along group paths: group-level search
//!   paths (the §II-B semantics: a search fails iff it meets a red group)
//!   and message-level all-to-all routing with majority filtering,
//! * [`robustness`] — measuring ε-robustness (Theorem 3's two bullets),
//! * [`dynamic`] — the dynamic case (§III): epochs, two old + two new
//!   group graphs, dual-search membership and neighbor construction with
//!   verification, churn, and the single-graph ablation,
//! * [`dynamic::adversary`] — the pluggable adversary-strategy engine:
//!   placement policies (uniform, gap-filling, interval-targeting,
//!   adaptive majority flipping) that observe each epoch's graphs and
//!   choose the next epoch's bad-ID values (swept by E10),
//! * [`scenario`] — the unified scenario API: a declarative
//!   [`ScenarioSpec`] (defense ∈ {none, single-hash, f∘g, frozen
//!   variants}, strategy, topology, churn, seed — round-tripping through
//!   a stable label/JSON codec) built into a [`scenario::EpochDriver`],
//!   the one trait every experiment, frontier cell, and bench drives,
//! * [`runtime`] — the actor epoch runtime: the optional network a
//!   driver carries (`runtime=sync` means none) — per-node actors
//!   exchanging typed protocol messages (membership announcements,
//!   routing probes, string dissemination) over an injectable transport
//!   with seeded fault injection; byte-identical to running without a
//!   network over a perfect transport,
//! * [`render`] — DOT rendering of `H` and `G` (Figure 1).

pub mod arena;
pub mod build;
pub mod dynamic;
pub mod graph;
pub mod group;
pub mod params;
pub mod population;
pub mod render;
pub mod robustness;
pub mod routing;
pub mod runtime;
pub mod scenario;

pub use build::build_initial_graph;
pub use graph::{Color, GraphsView, GroupGraph, GroupGraphView, SideView};
pub use params::{GroupSizeRule, Params};
pub use population::Population;
pub use robustness::{measure_robustness, RobustnessReport};
pub use routing::{search_path, SearchOutcome};
pub use runtime::{EpochNet, ProtocolMsg, RuntimeChoice};
pub use scenario::{
    Defense, EpochDriver, EpochObservation, MintScheme, ScenarioError, ScenarioSpec, StrategySpec,
    StringMode,
};
