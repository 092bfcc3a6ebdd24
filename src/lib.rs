//! # tiny-groups
//!
//! Facade crate for the `tiny-groups` workspace: a reproduction of
//! *Tiny Groups Tackle Byzantine Adversaries* (Jaiyeola, Patron, Saia,
//! Young, Zhou — IPDPS 2018).
//!
//! Re-exports the subsystem crates under stable names. See the workspace
//! `README.md` for the architecture overview, the system inventory
//! ("Crate map") and the experiment index ("Running experiments").

pub use tg_ba as ba;
pub use tg_baselines as baselines;
pub use tg_core as core;
pub use tg_crypto as crypto;
pub use tg_idspace as idspace;
pub use tg_overlay as overlay;
pub use tg_pow as pow;
pub use tg_sim as sim;
pub use tg_verify as verify;

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use tg_idspace::{Id, RingDistance, RingInterval, SortedRing};
}
