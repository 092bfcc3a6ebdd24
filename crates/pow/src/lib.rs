//! # tg-pow
//!
//! §IV of the paper: enforcing the ID assumptions with computational
//! puzzles.
//!
//! Up to §III the construction *assumes* the adversary holds at most
//! `βn` IDs, u.a.r. in `[0,1)`, expiring each epoch. This crate removes
//! the assumption:
//!
//! * [`puzzle`] — ID minting: find `σ` with `g(σ ⊕ r) ≤ τ`; the ID is
//!   `f(g(σ ⊕ r))`. Includes difficulty calibration (one expected
//!   solution per compute unit per `T/2` steps) and verification, plus
//!   the **single-hash variant** (`ID = σ` when `g(σ) ≤ τ`) whose bias
//!   vulnerability motivates composing two hashes,
//! * [`miner`] — minting simulation at two fidelities: exact hashing for
//!   small demos, statistical (binomial counts + uniform values, valid by
//!   the random-oracle assumption) for scale; Lemma 11 measurements,
//! * [`attack`] — the targeted-interval attack against the single-hash
//!   scheme and the pre-computation attack that global random strings
//!   neutralize,
//! * [`strings`] — the Appendix VIII protocol: record-breaking bins with
//!   capped counters, three phases, solution sets `R_w`, adversarial
//!   delayed release; Lemma 12's agreement/size/message claims,
//! * [`provider`] — an [`tg_core::dynamic::IdentityProvider`] backed by
//!   the puzzle pipeline, closing the loop: the dynamic construction of
//!   §III runs on PoW-minted IDs,
//! * [`adversary`] — `tg-core`'s pluggable adversary strategies pushed
//!   through the minting pipeline: the `f∘g` vs single-hash placement
//!   contrast and the solution-hoarding strategy the fresh-string
//!   defense (§IV-B) exists to stop,
//! * [`system`] — the composed [`FullSystem`] (strings → minting →
//!   dynamics); `FullSystem::with_adversary` threads any strategy
//!   through the real epoch-string protocol (the E11 frontier's PoW
//!   rows), `with_frozen_strings` ablates §IV-B,
//! * [`scenario`] — the **total** builder for `tg_core::scenario`'s
//!   declarative [`tg_core::ScenarioSpec`]: every defense (no-PoW,
//!   single-hash, `f∘g`, frozen-string variants) and string mode (real
//!   protocol vs synthesized) becomes one `Box<dyn EpochDriver>`, the
//!   construction path all experiments and sweeps use.

pub mod adversary;
pub mod attack;
pub mod miner;
pub mod provider;
pub mod puzzle;
pub mod scenario;
pub mod strings;
pub mod system;

pub use adversary::{MintScheme, PrecomputeHoarder, StrategicPowProvider};
pub use miner::{MintingOutcome, MintingSim};
pub use provider::PowProvider;
pub use puzzle::{verify_batch, PuzzleParams, Solution};
pub use strings::{run_string_protocol, StringAdversary, StringOutcome, StringParams};
pub use system::FullSystem;
