//! # tg-overlay
//!
//! Input graphs `H` for the tiny-groups construction.
//!
//! The paper's result is parameterized by *any* overlay satisfying four
//! properties (§I-C):
//!
//! * **P1 — search**: routing from any ID to `suc(key)` in
//!   `D = O(log N)` traversed IDs,
//! * **P2 — load balancing**: a random ID owns at most a `(1+δ'')/N`
//!   fraction of the key space,
//! * **P3 — linking rules**: the neighbor set `S_w` is recomputable and
//!   *verifiable* by any ID via searches — the rule is
//!   [`InputGraph::neighbor_indices`], the verification by searches is
//!   `tg_core`'s `establish_link`,
//! * **P4 — congestion**: the maximum probability any ID is traversed by a
//!   random search is `C = O(log^c n / n)`.
//!
//! We implement three of the constructions the paper names:
//!
//! * [`chord::Chord`] — Chord \[48\]: `Θ(log n)` degree, greedy finger
//!   routing (`c = 1` congestion),
//! * [`debruijn::D2B`] — D2B \[19\]: constant *expected* degree de Bruijn
//!   continuous-discrete construction,
//! * [`halving::DistanceHalving`] — the Naor–Wieder continuous-discrete
//!   distance-halving construction \[39\], also constant expected degree.
//!
//! \[19\] and \[39\] are two of the constructions Corollary 1 names for its
//! `O(poly(log log n))` state bound; Chord is included both as the
//! familiar default and to show the construction is topology-agnostic.
//! The third, the butterfly of \[32\], was retired: no experiment
//! built it, and two constant-degree graphs already show the bound.
//!
//! The paper stresses that `H` provides **no security by itself** — these
//! graphs assume all IDs follow the protocol. Security comes from the
//! group layer in `tg-core` built on top.

pub mod chord;
pub mod debruijn;
pub mod graph;
pub mod halving;

pub use chord::Chord;
pub use debruijn::D2B;
pub use graph::{GraphKind, InputGraph, Route};
pub use halving::DistanceHalving;
