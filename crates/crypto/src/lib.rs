//! # tg-crypto
//!
//! The hashing substrate for the tiny-groups construction.
//!
//! The paper assumes the **random oracle model** (§I-C, citing Bellare &
//! Rogaway): hash functions whose outputs are uniform on first query, and
//! suggests SHA-2 as the practical instantiation. This crate provides:
//!
//! * [`mod@sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation
//!   (validated against the NIST test vectors in the unit tests). Its
//!   compression function runs on the x86 SHA extensions when the CPU
//!   reports them at run time and on portable reference rounds otherwise;
//!   the two are bit-identical, and the dispatch call is the workspace's
//!   one `unsafe` block,
//! * [`oracle`] — the domain-separated random-oracle family used by the
//!   protocols:
//!   * `h1`, `h2` — group-membership hashes (§III-A): member `i` of group
//!     `G_w` is `suc(h1(w, i))` in the first group graph and
//!     `suc(h2(w, i))` in the second,
//!   * `f`, `g` — the ID-minting pair (§IV-A): a solution `σ` is valid when
//!     `g(σ ⊕ r) ≤ τ`, and the ID is `f(g(σ ⊕ r))`,
//!   * `h` — the string-scoring hash of the propagation protocol
//!     (Appendix VIII).
//!
//! All oracle outputs live on the unit ring as [`tg_idspace::Id`] values
//! (the paper's `[0,1)` domain), taken from the first 8 bytes of the
//! SHA-256 digest. Every fixed-width query (an ID, a word, an
//! `(ID, index)` pair, two words) is one padded block and costs one
//! compression; [`oracle`]'s module doc gives the byte layout.

pub mod oracle;
pub mod sha256;

pub use oracle::{Oracle, OracleFamily};
pub use sha256::{sha256, Sha256};
