//! # tg-baselines
//!
//! The prior-work systems the paper positions itself against:
//!
//! * [`cuckoo`] — the Awerbuch–Scheideler **cuckoo rule** [8–10] for
//!   maintaining good majorities under join/leave churn, as simulated by
//!   Sen & Freedman's *Commensal Cuckoo* \[47\], whose finding the paper
//!   quotes: at `n = 8192` the rule needs `|G| = 64` to survive 10⁵
//!   joins/departures at small `β`. Experiment E8 reproduces the
//!   group-size/security trade-off.
//! * [`single_id`] — the no-groups strawman of §I-A ("groups each
//!   consisting of a single ID"): `(1−β)n` reliable processors but no
//!   secure routing — a search fails if *any* traversed ID is bad.

pub mod cuckoo;
pub mod single_id;

pub use cuckoo::{CuckooParams, CuckooSim, CuckooStrategy};
pub use single_id::measure_single_id_routing;
