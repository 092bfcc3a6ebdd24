//! Secure search over the group graph (§II).
//!
//! A search proceeds along the `H`-route of its initiating leader with
//! the corresponding groups doing the work: each hop is an **all-to-all
//! exchange** between consecutive groups (`|G_i| · |G_{i+1}|` messages)
//! followed by majority filtering at the receiver. Two fidelity levels:
//!
//! * [`search_path`] — the §II-B *search-path* semantics: the search is
//!   truncated at the first red group and fails there; used by the
//!   large-scale robustness experiments. This is sound because a red
//!   group's output is adversary-controlled — counting it as failure is
//!   the worst case — and a blue group's output is correct.
//! * [`secure_route_verified`] — full message-level simulation with
//!   per-member claims and majority filtering, used to validate that the
//!   group-level semantics matches what the messages actually do, and to
//!   account messages exactly (E3).

use crate::graph::GroupGraphView;
use std::cell::RefCell;
use tg_ba::{majority_filter, AdversaryMode};
use tg_idspace::Id;
use tg_sim::Metrics;

/// Outcome of a group-level search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The search traversed only blue groups and resolved.
    Success {
        /// Groups traversed (including initiator and resolver).
        hops: usize,
        /// All-to-all messages spent.
        msgs: u64,
    },
    /// The search hit a red group.
    Fail {
        /// Index into the route at which the red group was met.
        failed_at: usize,
        /// Groups traversed before truncation.
        hops: usize,
        /// Messages spent up to and including the failing edge.
        msgs: u64,
    },
}

impl SearchOutcome {
    /// Whether the search succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, SearchOutcome::Success { .. })
    }

    /// Messages spent.
    pub fn msgs(&self) -> u64 {
        match *self {
            SearchOutcome::Success { msgs, .. } | SearchOutcome::Fail { msgs, .. } => msgs,
        }
    }

    /// Groups traversed.
    pub fn hops(&self) -> usize {
        match *self {
            SearchOutcome::Success { hops, .. } | SearchOutcome::Fail { hops, .. } => hops,
        }
    }
}

/// Group-level search from the group of `from_leader` (a leader ring
/// index) for `key`. Updates `metrics`.
///
/// Runs on any [`GroupGraphView`] — a static graph or one side of an
/// epoch's graphs. The route's hops are leader-ring indices, so they index
/// the group columns directly. A search sees colors and sizes as of the
/// last [`crate::GroupGraph::recolor`]: each edge is charged
/// `|G_i| · |G_{i+1}|` from [`GroupGraphView::recolored_size`].
pub fn search_path<G: GroupGraphView>(
    gg: &G,
    from_leader: usize,
    key: Id,
    metrics: &mut Metrics,
) -> SearchOutcome {
    with_route(gg, from_leader, key, |hops| walk_route(gg, hops, metrics))
}

/// `f` of the hops of the route from `from_leader` to `key`, routed into
/// a buffer that each thread reuses, so a search allocates nothing. `f`
/// must not route again.
pub(crate) fn with_route<G: GroupGraphView, R>(
    gg: &G,
    from_leader: usize,
    key: Id,
    f: impl FnOnce(&mut [usize]) -> R,
) -> R {
    thread_local! {
        static HOPS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }
    HOPS.with_borrow_mut(|hops| {
        gg.topology().route_into(from_leader, key, hops);
        f(hops)
    })
}

/// [`search_path`] over the `hops` of a route already computed: walks
/// them up to the first red group and updates `metrics`.
pub(crate) fn walk_route<G: GroupGraphView>(
    gg: &G,
    hops: &[usize],
    metrics: &mut Metrics,
) -> SearchOutcome {
    metrics.searches += 1;
    let mut msgs = 0u64;
    let mut prev_size = 0usize;
    for (pos, &gi) in hops.iter().enumerate() {
        let size = gg.recolored_size(gi);
        if pos > 0 {
            msgs += (prev_size * size) as u64;
        }
        if gg.is_red(gi) {
            metrics.failed_searches += 1;
            metrics.routing_msgs += msgs;
            metrics.hops += (pos + 1) as u64;
            return SearchOutcome::Fail { failed_at: pos, hops: pos + 1, msgs };
        }
        prev_size = size;
    }
    metrics.routing_msgs += msgs;
    metrics.hops += hops.len() as u64;
    SearchOutcome::Success { hops: hops.len(), msgs }
}

/// Whether `a` and `b` route over one topology object, so that a route
/// computed on one is the route on the other. The sides of one epoch's
/// graphs always do.
pub(crate) fn share_topology<G: GroupGraphView>(a: &G, b: &G) -> bool {
    std::ptr::addr_eq(a.topology(), b.topology())
}

/// Dual search over the two group graphs of one epoch: succeeds if either
/// side's search path succeeds (the construction protocol performs both
/// and favors the true successor — with verifiable IDs, one honest result
/// suffices; §III-A "if different IDs are returned by the two searches,
/// the successor to `h1(w,i)` is selected").
///
/// Both sides' searches run in full and reach `metrics`. When the sides
/// share one topology the route is computed once and walked on each.
pub fn dual_search<G: GroupGraphView>(
    sides: [&G; 2],
    from_leader: usize,
    key: Id,
    metrics: &mut Metrics,
) -> bool {
    if !share_topology(sides[0], sides[1]) {
        let a = search_path(sides[0], from_leader, key, metrics);
        let b = search_path(sides[1], from_leader, key, metrics);
        return a.is_success() || b.is_success();
    }
    with_route(sides[0], from_leader, key, |hops| {
        let a = walk_route(sides[0], hops, metrics);
        let b = walk_route(sides[1], hops, metrics);
        a.is_success() || b.is_success()
    })
}

/// Outcome of a message-level verified route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedOutcome {
    /// The value a majority of the resolver group's good members hold
    /// (`None` if the resolver has no good members or they got nothing).
    pub delivered: Option<u64>,
    /// Whether the delivered value equals the payload.
    pub correct: bool,
    /// Messages exchanged.
    pub msgs: u64,
    /// Whether the group-level search-path prediction agrees with the
    /// message-level result (sound abstraction check: group-level success
    /// must imply message-level correctness).
    pub abstraction_sound: bool,
}

/// Message-level secure routing: carry `payload` from the group of
/// `from_leader` to the group responsible for `key`, with every member
/// claiming a value at each hop and receivers majority-filtering.
///
/// Byzantine members send per `mode`; the route itself follows `H` (the
/// adversary cannot rewire edges incident to blue groups, S3).
pub fn secure_route_verified<G: GroupGraphView>(
    gg: &G,
    from_leader: usize,
    key: Id,
    payload: u64,
    mode: AdversaryMode,
    metrics: &mut Metrics,
) -> VerifiedOutcome {
    let route = gg.topology().route(from_leader, key);
    let group_level = walk_route(gg, &route.hops, &mut Metrics::new());
    let mut msgs = 0u64;

    // `(is_bad, value)` per live member of the current group: good
    // members start with the payload in the initiating group.
    let mut holders: Vec<(bool, Option<u64>)> = live_badness(gg, route.hops[0])
        .into_iter()
        .map(|bad| (bad, (!bad).then_some(payload)))
        .collect();

    for (pos, pair) in route.hops.windows(2).enumerate() {
        let receivers = live_badness(gg, pair[1]);
        let mut next: Vec<(bool, Option<u64>)> = Vec::with_capacity(receivers.len());
        for (ri, &r_bad) in receivers.iter().enumerate() {
            // Every sender transmits one claim to this receiver.
            let claims: Vec<Option<u64>> = holders
                .iter()
                .enumerate()
                .map(
                    |(si, &(s_bad, v))| {
                        if s_bad {
                            mode.send(si, ri + 1000 * pos, pos as u64, v)
                        } else {
                            v
                        }
                    },
                )
                .collect();
            msgs += claims.len() as u64;
            if r_bad {
                next.push((true, None)); // bad receivers hold whatever they like
            } else {
                let (winner, _) = majority_filter(&claims);
                next.push((false, winner));
            }
        }
        holders = next;
    }

    // What does the resolver group deliver? Majority over its good
    // members' held values.
    let good_values: Vec<Option<u64>> =
        holders.iter().filter(|&&(b, _)| !b).map(|&(_, v)| v).collect();
    let (delivered, _) = majority_filter(&good_values);
    let correct = delivered == Some(payload);

    // Soundness: group-level success must imply message-level success.
    let abstraction_sound = !group_level.is_success() || correct;

    metrics.routing_msgs += msgs;
    VerifiedOutcome { delivered, correct, msgs, abstraction_sound }
}

/// Whether each live member of group `gi` is bad: its live pool members
/// in column order, then one bad entry per captured slot.
fn live_badness<G: GroupGraphView>(gg: &G, gi: usize) -> Vec<bool> {
    let pool = gg.pool();
    let captured = std::iter::repeat_n(true, gg.captured_slots(gi) as usize);
    gg.live_members(gi).map(|m| pool.is_bad(m)).chain(captured).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::dynamic::{BuildMode, DynamicSystem, GapFilling, StrategicProvider};
    use crate::graph::GroupGraph;
    use crate::params::Params;
    use crate::population::Population;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn graph(n_good: usize, n_bad: usize, seed: u64) -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        let fam = OracleFamily::new(seed);
        build_initial_graph(pop, GraphKind::Chord, fam.h1, &Params::paper_defaults())
    }

    #[test]
    fn all_good_searches_succeed() {
        let gg = graph(512, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Metrics::new();
        for _ in 0..100 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            assert!(search_path(&gg, from, key, &mut m).is_success());
        }
        assert_eq!(m.failure_rate(), 0.0);
    }

    #[test]
    fn message_cost_is_hops_times_group_size_squared() {
        let gg = graph(512, 0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Metrics::new();
        let from = rng.gen_range(0..gg.len());
        let key = Id(rng.gen());
        let (hops, msgs) = match search_path(&gg, from, key, &mut m) {
            SearchOutcome::Success { hops, msgs } => (hops, msgs),
            _ => panic!("must succeed with no adversary"),
        };
        let s = gg.mean_group_size();
        let predicted = (hops.saturating_sub(1)) as f64 * s * s;
        assert!(
            (msgs as f64) > 0.3 * predicted && (msgs as f64) < 3.0 * predicted,
            "msgs {msgs} vs predicted ~{predicted:.0}"
        );
    }

    #[test]
    fn red_initiator_fails_immediately() {
        let mut gg = graph(256, 0, 5);
        gg.mark_confused(7);
        gg.recolor();
        let mut m = Metrics::new();
        let out = search_path(&gg, 7, Id::from_f64(0.5), &mut m);
        match out {
            SearchOutcome::Fail { failed_at, hops, msgs } => {
                assert_eq!(failed_at, 0);
                assert_eq!(hops, 1);
                assert_eq!(msgs, 0, "no edge traversed before the initiator check");
            }
            _ => panic!("search from a red group must fail"),
        }
    }

    #[test]
    fn search_truncates_at_first_red_group() {
        let mut gg = graph(256, 0, 6);
        // Redden every group except the initiator: any nontrivial route
        // fails at its second hop.
        for i in 0..gg.len() {
            if i != 3 {
                gg.mark_confused(i);
            }
        }
        gg.recolor();
        let mut m = Metrics::new();
        let out = search_path(&gg, 3, Id::from_f64(0.777), &mut m);
        if let SearchOutcome::Fail { failed_at, .. } = out {
            assert_eq!(failed_at, 1, "first non-initiator hop is red");
        }
        // (If the key happens to resolve locally the search succeeds with
        // one hop — allowed.)
    }

    #[test]
    fn dual_search_beats_single() {
        // Side A red-initiator, side B clean: dual must succeed.
        let mut a = graph(256, 0, 7);
        for i in 0..a.len() {
            a.mark_confused(i);
        }
        a.recolor();
        let b = graph(256, 0, 7);
        let mut m = Metrics::new();
        assert!(dual_search([&a, &b], 0, Id::from_f64(0.9), &mut m));
        assert!(dual_search([&b, &a], 0, Id::from_f64(0.9), &mut m));
    }

    /// Routed once and walked on each side, a dual search is the two
    /// search paths it stands for: the same outcome and the same
    /// [`Metrics`], on sides whose red groups differ.
    #[test]
    fn dual_search_is_two_search_paths() {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.2;
        params.attack_requests_per_id = 1;
        let mut provider = StrategicProvider::new(400, 30, GapFilling);
        let mut sys =
            DynamicSystem::new(params, GraphKind::Chord, BuildMode::DualGraph, &mut provider, 21);
        sys.set_searches_per_epoch(20);
        sys.run(&mut provider, 2);
        let (s0, s1) = (sys.graphs().side(0), sys.graphs().side(1));
        assert!(s0.frac_red() > 0.0 && s1.frac_red() > 0.0, "red groups on both sides");
        assert!(s0.frac_red() < 1.0 && s1.frac_red() < 1.0, "blue groups on both sides");
        assert!(share_topology(&s0, &s1), "the sides route once");

        let mut rng = StdRng::seed_from_u64(22);
        let (mut dual, mut paths) = (Metrics::new(), Metrics::new());
        let mut one_side_only = 0;
        for _ in 0..500 {
            let (from, key) = (rng.gen_range(0..s0.len()), Id(rng.gen()));
            let ok = dual_search([&s0, &s1], from, key, &mut dual);
            let a = search_path(&s0, from, key, &mut paths).is_success();
            let b = search_path(&s1, from, key, &mut paths).is_success();
            assert_eq!(ok, a || b, "from {from}, key {key:?}");
            one_side_only += usize::from(a != b);
        }
        assert_eq!(dual, paths);
        assert!(one_side_only > 0, "some searches succeed on one side only");
    }

    #[test]
    fn verified_routing_delivers_payload_through_good_groups() {
        let gg = graph(512, 25, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = Metrics::new();
        let mut sound = true;
        let mut successes = 0;
        for _ in 0..60 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let out = secure_route_verified(
                &gg,
                from,
                key,
                0xDEADBEEF,
                AdversaryMode::Equivocate { seed: 11 },
                &mut m,
            );
            sound &= out.abstraction_sound;
            if out.correct {
                successes += 1;
            }
        }
        assert!(sound, "group-level success must imply message-level delivery");
        assert!(successes > 50, "β≈0.047: most routes deliver, got {successes}/60");
    }

    /// 40 verified routes over `gg` with a colluding adversary: group-level
    /// success must imply message-level delivery on every one.
    fn assert_sound_under_collusion<G: GroupGraphView>(gg: &G, rng: &mut StdRng) {
        let mut m = Metrics::new();
        for _ in 0..40 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let out = secure_route_verified(
                gg,
                from,
                key,
                42,
                AdversaryMode::Collude { value: 666 },
                &mut m,
            );
            assert!(out.abstraction_sound);
        }
    }

    #[test]
    fn verified_routing_with_colluding_adversary_is_still_sound() {
        assert_sound_under_collusion(&graph(512, 50, 10), &mut StdRng::seed_from_u64(11));

        // The graphs the epoch system builds: a side two epochs into a
        // gap-filling attack, after the next epoch's churn — departed
        // members and captured slots on the routes.
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.2;
        params.attack_requests_per_id = 1;
        let mut provider = StrategicProvider::new(475, 25, GapFilling);
        let mut sys =
            DynamicSystem::new(params, GraphKind::D2B, BuildMode::DualGraph, &mut provider, 12);
        sys.set_searches_per_epoch(20);
        sys.run(&mut provider, 2);
        let mut rng = StdRng::seed_from_u64(13);
        let g = sys.graphs_mut();
        g.pool.depart_good_fraction(params.churn_rate, &mut rng);
        g.recolor();
        let side = sys.graphs().side(0);
        let captured: u32 = (0..side.len()).map(|i| side.captured_slots(i)).sum();
        let departed = (0..side.len())
            .map(|i| side.group_members(i).len() - side.live_members(i).count())
            .sum::<usize>();
        assert!(captured > 0 && departed > 0, "captured {captured}, departed {departed}");
        assert_sound_under_collusion(&side, &mut rng);
    }
}
