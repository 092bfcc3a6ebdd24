//! # tg-idspace
//!
//! The unit-ring ID space `[0,1)` used throughout the tiny-groups
//! construction (Jaiyeola et al., *Tiny Groups Tackle Byzantine
//! Adversaries*, IPDPS 2018).
//!
//! Every participant is a virtual **ID**: a point on the unit ring, where
//! moving clockwise corresponds to moving from `0` towards `1` and wrapping
//! around. The paper notes that `O(log n)` bits of precision suffice; we use
//! a 64-bit fixed-point representation, so the ring has `2^64` addressable
//! points and arithmetic is exact (no floating-point drift in the
//! load-balancing or successor logic).
//!
//! The crate provides:
//!
//! * [`Id`] — a point on the ring with exact wrapping arithmetic,
//! * [`RingInterval`] — half-open clockwise arcs `[a, b)`,
//! * [`SortedRing`] — an immutable snapshot answering successor/predecessor
//!   queries (the `suc(x)` primitive of the paper) in `O(1)` expected time
//!   on u.a.r. IDs through a top-bits directory, `O(log n)` worst case,
//! * [`estimate`] — the folklore `ln n` / `ln ln n` estimators from
//!   successor gaps used by the paper to size groups (§III-A, and
//!   Chapter 4 of Young's thesis which the paper cites).

pub mod estimate;
pub mod id;
pub mod interval;
pub mod ring;

pub use estimate::{estimate_ln_ln_n, estimate_ln_n, GapEstimator};
pub use id::{Id, RingDistance};
pub use interval::RingInterval;
pub use ring::SortedRing;
