//! # tg-ba
//!
//! In-group computation for the tiny-groups construction.
//!
//! The paper's groups "simulate a reliable processor" (§I): members run
//! Byzantine agreement — or more general secure computation — so that a
//! group with a good majority acts correctly as a unit, and inter-group
//! routing applies **majority filtering** to all-to-all exchanges. This
//! crate implements the group-internal machinery with exact message
//! accounting, which is what Corollary 1's `O(poly(log log n))`
//! group-communication claim is measured against (experiment E3):
//!
//! * [`majority`] — the majority filter applied by receivers of all-to-all
//!   inter-group traffic,
//! * [`mod@phase_king`] — Berman–Garay Phase King agreement (`t < n/4`,
//!   `O(t·n²)` messages, polynomial and the workhorse for cost
//!   measurements),
//! * [`eig`] — Exponential Information Gathering agreement (`t < n/3`,
//!   optimal resilience for unauthenticated synchronous BA, exponential
//!   message size — usable because tiny groups are *tiny*).
//!
//! All protocols are synchronous (the model of §I-C) and parameterized by
//! an [`AdversaryMode`] controlling what Byzantine members send. The
//! crate draws no randomness: §IV's per-epoch random strings come from
//! the Appendix VIII flood in `tg_pow::strings`, not from an in-group
//! coin.

pub mod eig;
pub mod majority;
pub mod model;
pub mod phase_king;

pub use eig::eig_agreement;
pub use majority::{majority_filter, majority_value};
pub use model::{AdversaryMode, BaOutcome};
pub use phase_king::phase_king;
