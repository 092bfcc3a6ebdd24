//! Property-based tests for the group layer's invariants, and for the
//! totality of the actor runtime's wire decoder.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tg_core::dynamic::{BuildMode, DynamicSystem, GapFilling, StrategicProvider, UniformProvider};
use tg_core::runtime::ProtocolMsg;
use tg_core::{build_initial_graph, search_path, GroupGraphView, Params, Population};
use tg_crypto::OracleFamily;
use tg_idspace::Id;
use tg_overlay::GraphKind;
use tg_sim::net::Wire;
use tg_sim::Metrics;

/// Every group's color against a recount of its members from the
/// columns: blue iff strictly more live good than live bad members
/// (captured slots count as live bad ones) and not confused — and the
/// size column `search_path` charges equals the recounted live size.
/// Returns the departed members and captured slots the recount met.
fn recount_colors<G: GroupGraphView>(g: &G) -> Result<(usize, usize), TestCaseError> {
    let pool = g.pool();
    let (mut departed, mut captured) = (0, 0);
    for i in 0..g.len() {
        let members = g.group_members(i);
        let live: Vec<usize> =
            members.iter().map(|&m| m as usize).filter(|&m| pool.is_live(m)).collect();
        let slots = g.captured_slots(i) as usize;
        let size = live.len() + slots;
        let bad = live.iter().filter(|&&m| pool.is_bad(m)).count() + slots;
        let blue = size > bad * 2 && !g.is_confused(i);
        prop_assert_eq!(g.is_red(i), !blue, "group {} ({} live, {} bad)", i, size, bad);
        prop_assert_eq!(g.recolored_size(i), size, "group {} size column", i);
        departed += members.len() - live.len();
        captured += slots;
    }
    Ok((departed, captured))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Color classification is consistent: a red group either lacks a
    /// good majority or is confused; a blue group has both properties.
    /// Two inputs: a static genesis graph, and both sides of an epoch
    /// system two epochs into a gap-filling attack with churn 0.2 and the
    /// Lemma 10 attack on, after the next epoch's churn — so departed
    /// members and captured slots are both in the recount.
    #[test]
    fn colors_match_definitions(seed in any::<u64>(), n_bad in 0usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(240, n_bad, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(seed).h1, &params);
        recount_colors(&gg)?;

        let mut params = Params::paper_defaults();
        params.churn_rate = 0.2;
        params.attack_requests_per_id = 1;
        let mut provider = StrategicProvider::new(475, 25, GapFilling);
        let mut sys =
            DynamicSystem::new(params, GraphKind::D2B, BuildMode::DualGraph, &mut provider, seed);
        sys.set_searches_per_epoch(20);
        sys.run(&mut provider, 2);
        let g = sys.graphs_mut();
        g.pool.depart_good_fraction(params.churn_rate, &mut rng);
        g.recolor();
        let (mut departed, mut captured) = (0, 0);
        for side in sys.graphs().iter() {
            let (d, c) = recount_colors(&side)?;
            departed += d;
            captured += c;
        }
        prop_assert!(departed > 0 && captured > 0, "departed {}, captured {}", departed, captured);
    }

    /// Search-path semantics: a successful search's route contains no red
    /// group; a failed search's truncated path is red exactly at its end.
    #[test]
    fn search_path_truncation_invariant(seed in any::<u64>(), n_bad in 0usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(220, n_bad, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, GraphKind::D2B, OracleFamily::new(seed).h1, &params);
        let mut m = Metrics::new();
        for _ in 0..12 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let route = gg.topology.route(from, key);
            let out = search_path(&gg, from, key, &mut m);
            match out {
                tg_core::SearchOutcome::Success { hops, .. } => {
                    prop_assert_eq!(hops, route.hops.len());
                    for &h in &route.hops {
                        prop_assert!(!gg.is_red(h));
                    }
                }
                tg_core::SearchOutcome::Fail { failed_at, hops, .. } => {
                    prop_assert_eq!(hops, failed_at + 1);
                    prop_assert!(gg.is_red(route.hops[failed_at]));
                    for &h in &route.hops[..failed_at] {
                        prop_assert!(!gg.is_red(h));
                    }
                }
            }
        }
    }

    /// Message accounting is conserved: the per-search messages equal the
    /// sum over traversed edges of |G_i|·|G_{i+1}|.
    #[test]
    fn message_accounting_is_exact(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(200, 10, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(seed).h1, &params);
        let from = rng.gen_range(0..gg.len());
        let key = Id(rng.gen());
        let route = gg.topology.route(from, key);
        let mut m = Metrics::new();
        let out = search_path(&gg, from, key, &mut m);
        let traversed = out.hops();
        let mut expect = 0u64;
        for pair in route.hops[..traversed].windows(2) {
            expect += (gg.group_size(pair[0]) * gg.group_size(pair[1])) as u64;
        }
        prop_assert_eq!(out.msgs(), expect);
        prop_assert_eq!(m.routing_msgs, expect);
    }

    /// A dynamic epoch conserves population counts: every new graph has
    /// one group per new leader and members drawn from the previous
    /// generation.
    #[test]
    fn dynamic_epoch_structure(seed in any::<u64>()) {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.1;
        params.attack_requests_per_id = 0;
        let mut provider = UniformProvider { n_good: 150, n_bad: 8 };
        let mut sys =
            DynamicSystem::new(params, GraphKind::D2B, BuildMode::DualGraph, &mut provider, seed);
        sys.set_searches_per_epoch(20);
        let pool_ring_before = sys.graphs().side(0).leaders().ring().clone();
        let _ = sys.advance_epoch(&mut provider);
        for g in sys.graphs().iter() {
            prop_assert_eq!(g.len(), 158);
            prop_assert_eq!(g.pool().ring(), &pool_ring_before);
            for i in 0..g.len() {
                for &m in g.group_members(i) {
                    prop_assert!((m as usize) < g.pool().len());
                }
            }
        }
    }
}

/// A frame either does not decode or decodes to a message that encodes
/// back to exactly that frame.
fn check_frame(frame: &[u8]) -> Result<(), TestCaseError> {
    if let Some(msg) = ProtocolMsg::decode(frame) {
        let mut again = Vec::new();
        msg.encode(&mut again);
        prop_assert_eq!(&again[..], frame, "decoded {:?}", msg);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ProtocolMsg::decode` is total — what the socket hands it is
    /// whatever arrived. Arbitrary bytes (as drawn, and with the tag
    /// byte forced into and just past the valid range so the length
    /// guards are actually reached) decode to `None` or to a message
    /// that re-encodes to the input; every truncation and a one-byte
    /// extension of every valid frame is `None`; nothing panics — the
    /// probe arm's `rest[..4]` / `rest[4]` sit behind its `len == 5`
    /// guard.
    #[test]
    fn protocol_msg_decode_is_total(
        bytes in prop::collection::vec(any::<u8>(), 0..16),
        tag in 0u8..4,
        word in any::<u64>(),
        search in any::<u32>(),
        hop in any::<u8>(),
        extra in any::<u8>(),
    ) {
        check_frame(&bytes)?;
        if let Some((_, rest)) = bytes.split_first() {
            check_frame(&[&[tag], rest].concat())?;
        }
        for msg in [
            ProtocolMsg::Join { id: word },
            ProtocolMsg::Probe { search, hop },
            ProtocolMsg::StringAnnounce { key: word },
        ] {
            let mut frame = Vec::new();
            msg.encode(&mut frame);
            prop_assert_eq!(ProtocolMsg::decode(&frame), Some(msg));
            for cut in 0..frame.len() {
                prop_assert_eq!(ProtocolMsg::decode(&frame[..cut]), None, "cut {} of {:?}", cut, msg);
            }
            frame.push(extra);
            prop_assert_eq!(ProtocolMsg::decode(&frame), None, "extended {:?}", msg);
        }
    }
}
