//! The domain-separated random-oracle family.
//!
//! The paper uses several independent hash functions, all modelled as
//! random oracles with range `[0,1)`:
//!
//! | Oracle | Paper role |
//! |---|---|
//! | `h1`   | membership of group graph 1: member `i` of `G_w` is `suc(h1(w,i))` (§III-A) |
//! | `h2`   | membership of group graph 2 (§III-A) |
//! | `g`    | puzzle predicate: `σ` valid iff `g(σ ⊕ r) ≤ τ` (§IV-A) |
//! | `f`    | ID extraction: the minted ID is `f(g(σ ⊕ r))` (§IV-A) |
//! | `h`    | string scoring in the propagation protocol (App. VIII) |
//!
//! Independence is obtained by **domain separation**: every oracle prefixes
//! its input with a distinct tag before hashing, so a single SHA-256 core
//! yields a family of oracles that behave independently (the standard
//! random-oracle cloning construction). An additional per-system `instance`
//! seed lets simulations draw fresh, mutually independent oracle families —
//! one per trial — so that repetitions are honest i.i.d. samples.
//!
//! # Query format
//!
//! A query hashes the SHA-256 message
//!
//! ```text
//! "tiny-groups/ro/v1" ‖ instance ‖ tag ‖ payload
//! ```
//!
//! with `instance` and `tag` as big-endian `u64`s, and reads the output
//! ring point from the first 8 digest bytes (big-endian). The fixed-width
//! shapes put their payload big-endian too: `hash_id` and `hash_u64` one
//! word (41-byte message), `hash_id_index` a word and a `u32` index (45
//! bytes), `hash_u64_pair` two words (49 bytes). Each of those messages is
//! under 56 bytes, so it and its SHA-256 padding fit in one block: those
//! four methods hash it with one compression (`sha256::one_block_state`)
//! and read the output from the first two state words, which are the
//! first 8 digest bytes. `hash_bytes` takes any length and goes through
//! the streaming hasher. This format is part of every observation: the
//! seed-42 goldens and the benchmark digests pin it, and the unit tests
//! below pin each shape to the streaming hasher and to a known answer.

use crate::sha256::{one_block_state, Sha256};
use tg_idspace::Id;

/// The prefix of every oracle message.
const DOMAIN: &[u8; 17] = b"tiny-groups/ro/v1";
/// Bytes before the payload: the prefix, instance and tag.
const HEADER: usize = DOMAIN.len() + 16;

/// A single random oracle `{byte strings} → [0,1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oracle {
    /// Domain-separation tag; distinct tags give independent oracles.
    tag: u64,
    /// Simulation instance seed; distinct instances give independent
    /// oracle families.
    instance: u64,
}

impl Oracle {
    /// An oracle with the given tag in the given instance.
    pub fn new(instance: u64, tag: u64) -> Self {
        Oracle { tag, instance }
    }

    /// The streaming hasher after the prefix, instance and tag.
    fn base(&self) -> Sha256 {
        let mut h = Sha256::new();
        h.update(DOMAIN);
        h.update(&self.instance.to_be_bytes());
        h.update(&self.tag.to_be_bytes());
        h
    }

    /// A fixed-width query of `M` message bytes: the prefix, instance and
    /// tag, then `payload` (`M - HEADER` bytes), hashed as one block (see
    /// the module doc).
    fn one_block<const M: usize>(&self, payload: &[u8]) -> Id {
        let mut msg = [0u8; M];
        msg[..DOMAIN.len()].copy_from_slice(DOMAIN);
        msg[DOMAIN.len()..HEADER - 8].copy_from_slice(&self.instance.to_be_bytes());
        msg[HEADER - 8..HEADER].copy_from_slice(&self.tag.to_be_bytes());
        msg[HEADER..].copy_from_slice(payload);
        let state = one_block_state(msg);
        Id(u64::from(state[0]) << 32 | u64::from(state[1]))
    }

    /// Hash raw bytes to a ring point.
    pub fn hash_bytes(&self, data: &[u8]) -> Id {
        let mut h = self.base();
        h.update(data);
        digest_to_id(h.finalize())
    }

    /// Hash a ring point to a ring point (the `f(·)` and `g(·)` shapes of
    /// §IV use `[0,1)` for both domain and range).
    pub fn hash_id(&self, x: Id) -> Id {
        self.hash_u64(x.raw())
    }

    /// Hash an `(ID, index)` pair — the `h1(w, i)` / `h2(w, i)` shape used
    /// for group membership.
    pub fn hash_id_index(&self, w: Id, i: u32) -> Id {
        let mut payload = [0u8; 12];
        payload[..8].copy_from_slice(&w.raw().to_be_bytes());
        payload[8..].copy_from_slice(&i.to_be_bytes());
        self.one_block::<{ HEADER + 12 }>(&payload)
    }

    /// Hash a pair of 64-bit words (e.g. `σ ⊕ r` split across words, or a
    /// string identifier) to a ring point.
    pub fn hash_u64_pair(&self, a: u64, b: u64) -> Id {
        self.one_block::<{ HEADER + 16 }>(&((u128::from(a) << 64) | u128::from(b)).to_be_bytes())
    }

    /// Hash a single 64-bit word to a ring point.
    pub fn hash_u64(&self, a: u64) -> Id {
        self.one_block::<{ HEADER + 8 }>(&a.to_be_bytes())
    }
}

/// Interpret the first 8 digest bytes as a ring point.
fn digest_to_id(d: [u8; 32]) -> Id {
    Id(u64::from_be_bytes(d[..8].try_into().expect("8 bytes")))
}

/// The full oracle family of one simulated system instance.
///
/// Construct one per trial with a fresh `instance` seed: all oracles in the
/// family are mutually independent, and families from different seeds are
/// independent of each other.
#[derive(Clone, Copy, Debug)]
pub struct OracleFamily {
    /// `h1` — membership for group graph 1.
    pub h1: Oracle,
    /// `h2` — membership for group graph 2.
    pub h2: Oracle,
    /// `f` — ID extraction from puzzle solutions.
    pub f: Oracle,
    /// `g` — puzzle threshold predicate.
    pub g: Oracle,
    /// `h` — string scoring for the propagation protocol.
    pub h: Oracle,
}

impl OracleFamily {
    /// The oracle family for a simulation instance.
    pub fn new(instance: u64) -> Self {
        OracleFamily {
            h1: Oracle::new(instance, 0x6831), // "h1"
            h2: Oracle::new(instance, 0x6832), // "h2"
            f: Oracle::new(instance, 0x66),    // "f"
            g: Oracle::new(instance, 0x67),    // "g"
            h: Oracle::new(instance, 0x68),    // "h"
        }
    }

    /// The membership oracle for group-graph side `side` (0 → `h1`,
    /// 1 → `h2`), matching the paper's use of a different hash per graph.
    pub fn membership(&self, side: usize) -> Oracle {
        match side {
            0 => self.h1,
            1 => self.h2,
            _ => panic!("there are exactly two group graphs per epoch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A query through the streaming hasher: `base()`, the payload bytes,
    /// `finalize` — the format the one-block shapes must reproduce.
    fn streamed(o: &Oracle, payload: &[&[u8]]) -> Id {
        let mut h = o.base();
        for part in payload {
            h.update(part);
        }
        digest_to_id(h.finalize())
    }

    /// Each fixed-width shape against the streaming hasher at `(a, b, i)`.
    fn assert_shapes_stream(o: &Oracle, a: u64, b: u64, i: u32) {
        let (wa, wb, wi) = (a.to_be_bytes(), b.to_be_bytes(), i.to_be_bytes());
        assert_eq!(o.hash_id(Id(a)), streamed(o, &[&wa]), "hash_id({a:#x})");
        assert_eq!(o.hash_u64(a), streamed(o, &[&wa]), "hash_u64({a:#x})");
        assert_eq!(
            o.hash_id_index(Id(a), i),
            streamed(o, &[&wa, &wi]),
            "hash_id_index({a:#x}, {i})"
        );
        assert_eq!(
            o.hash_u64_pair(a, b),
            streamed(o, &[&wa, &wb]),
            "hash_u64_pair({a:#x}, {b:#x})"
        );
    }

    #[test]
    fn one_block_shapes_match_streaming_at_the_edges() {
        for (instance, tag) in [(0, 0), (u64::MAX, u64::MAX), (42, 0x6831)] {
            let o = Oracle::new(instance, tag);
            for a in [0, 1, u64::MAX] {
                for b in [0, u64::MAX] {
                    for i in [0, 1, u32::MAX] {
                        assert_shapes_stream(&o, a, b, i);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn one_block_shapes_match_streaming(
            instance in any::<u64>(),
            tag in any::<u64>(),
            a in any::<u64>(),
            b in any::<u64>(),
            i in any::<u32>(),
        ) {
            assert_shapes_stream(&Oracle::new(instance, tag), a, b, i);
        }
    }

    /// One known answer per query shape, recorded from the streaming
    /// implementation before the one-block path existed.
    #[test]
    fn known_answers() {
        let fam = OracleFamily::new(42);
        let w = Id(0x0123_4567_89ab_cdef);
        let hex = |x: Id| format!("{:016x}", x.raw());
        assert_eq!(hex(fam.f.hash_id(w)), "7320d727916840e3");
        assert_eq!(hex(fam.h.hash_u64(u64::MAX)), "e4dc1d4e00ccee57");
        assert_eq!(hex(fam.h1.hash_id_index(w, u32::MAX)), "593f5690ec848ae4");
        assert_eq!(hex(fam.g.hash_u64_pair(0, u64::MAX)), "638993165ccb79c5");
        assert_eq!(hex(fam.h2.hash_bytes(b"tiny")), "f4e391f9b65044f6");
    }

    #[test]
    fn deterministic() {
        let fam = OracleFamily::new(42);
        let w = Id::from_f64(0.123);
        assert_eq!(fam.h1.hash_id_index(w, 3), fam.h1.hash_id_index(w, 3));
        assert_eq!(fam.f.hash_id(w), fam.f.hash_id(w));
    }

    #[test]
    fn oracles_are_distinct() {
        let fam = OracleFamily::new(42);
        let w = Id::from_f64(0.123);
        let outs = [
            fam.h1.hash_id(w),
            fam.h2.hash_id(w),
            fam.f.hash_id(w),
            fam.g.hash_id(w),
            fam.h.hash_id(w),
        ];
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                assert_ne!(outs[i], outs[j], "oracles {i} and {j} collided");
            }
        }
    }

    #[test]
    fn instances_are_distinct() {
        let w = Id::from_f64(0.5);
        let a = OracleFamily::new(1).h1.hash_id(w);
        let b = OracleFamily::new(2).h1.hash_id(w);
        assert_ne!(a, b);
    }

    #[test]
    fn index_matters() {
        let fam = OracleFamily::new(7);
        let w = Id::from_f64(0.9);
        assert_ne!(fam.h1.hash_id_index(w, 0), fam.h1.hash_id_index(w, 1));
    }

    #[test]
    fn outputs_look_uniform() {
        // Coarse uniformity check: bucket 4096 outputs into 16 bins; each
        // bin expectation is 256, and a deviation beyond ±50% would signal
        // a broken digest-to-ring mapping.
        let fam = OracleFamily::new(99);
        let mut bins = [0usize; 16];
        for i in 0..4096u64 {
            let x = fam.h.hash_u64(i);
            bins[(x.raw() >> 60) as usize] += 1;
        }
        for (b, &count) in bins.iter().enumerate() {
            assert!((128..=384).contains(&count), "bin {b} wildly off uniform: {count}");
        }
    }

    #[test]
    fn membership_selector() {
        let fam = OracleFamily::new(5);
        assert_eq!(fam.membership(0), fam.h1);
        assert_eq!(fam.membership(1), fam.h2);
    }

    #[test]
    #[should_panic(expected = "exactly two group graphs")]
    fn membership_selector_rejects_bad_side() {
        let fam = OracleFamily::new(5);
        let _ = fam.membership(2);
    }
}
