//! # tg-verify
//!
//! The executable invariant layer: the paper's guarantees stated as
//! first-class, named predicates, plus the two engines that enforce
//! them.
//!
//! Nine PRs of simulation code reproduce *Tiny Groups Tackle Byzantine
//! Adversaries* (IPDPS 2018) statistically — sweeps, frontier maps,
//! goldens. What none of that states explicitly is the **spec**: which
//! properties every run must satisfy, where the paper claims them, and
//! what a violation looks like. This crate closes that gap:
//!
//! * [`invariant`] — the [`Invariant`] trait and the [`registry`] of
//!   named guarantees (`INV-GOODNESS`, `INV-ROUTE`, `INV-BUDGET`,
//!   `INV-OBS`, `INV-MONOTONE`), each carrying its paper citation and a
//!   machine-readable ID.
//! * [`checked`] — [`CheckedDriver`], an
//!   [`tg_core::scenario::EpochDriver`] wrapper that evaluates every
//!   applicable per-step invariant after each epoch without perturbing
//!   the run (checks draw from their own labelled RNG streams).
//!   `run_all` exposes it for every experiment behind `--check-invariants`.
//! * [`model`] — the exhaustive small-configuration checker: enumerate
//!   **all** adversary placements of a tiny universe across the
//!   identity-pipeline defenses, assert the goodness and routing
//!   invariants below each defense's capture threshold, and return the
//!   exact [`model::Witness`] placement above it. The `e15_model`
//!   experiment reports the enumeration as CSV.
//!
//! A [`Violation`] report carries the full scenario label, the epoch,
//! and the invariant ID — one line is enough to rebuild the spec and
//! replay the failure.

pub mod checked;
pub mod invariant;
pub mod model;

pub use checked::CheckedDriver;
pub use invariant::{registry, CheckContext, Invariant, Scope, Violation};
pub use model::{
    assert_model, run_model, ModelCell, ModelConfig, ModelDefense, ModelReport, Witness,
};
