//! Building the new group graphs from the old ones (§III-A).
//!
//! For every new leader `w` and each side `s ∈ {1,2}` of the epoch:
//!
//! * **membership**: slot `i` targets the point `h_s(w, i)`; a
//!   bootstrapping group searches for its successor in *both* old graphs.
//!   If both search paths fail, the adversary controls the result and
//!   captures the slot (Lemma 7, first failure mode). If a search
//!   succeeds, the slot gets the true successor — which is itself bad
//!   with probability `≈ β` (Lemma 6, the second failure mode). The
//!   solicited ID then *verifies* with its own dual searches and may
//!   erroneously reject if both fail.
//! * **neighbors**: each topology link of `G_w` is located and verified
//!   with dual searches; if a required link cannot be established, `G_w`
//!   is *confused* (Lemma 8) and therefore red.
//!
//! The single-graph ablation ([`BuildMode::SingleGraph`]) replaces every
//! dual search with one search in one old graph — per-slot failure `q_f`
//! instead of `q_f²` — which is exactly the compounding-error design the
//! paper warns against; experiment E4 shows it diverge.
//!
//! **Steps** (stable — each is a lemma's statement, written once):
//! `resolve_slot` fills a membership slot (Lemmas 6/7), `establish_link`
//! establishes a neighbor link (Lemma 8), `accepts_spurious` answers a
//! spurious request (Lemma 10).
//!
//! **Schedules** (may change — order of evaluation only): both assemble
//! the same [`GroupGraph`] columns and pick bootstraps through the same
//! `Bootstraps`. [`build_new_graphs`] here goes one group at a time and
//! is kept as the test reference; `DynamicSystem::build_next` in
//! `crate::arena` makes every draw, and every link search, in one
//! sequential pass that streams blocks of slot searches to workers as
//! it goes, then folds them in slot order. Neither contains protocol
//! logic of its own.

use crate::graph::{GroupColumns, GroupGraph, GroupGraphView};
use crate::params::Params;
use crate::population::Population;
use crate::routing::search_path;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::OnceCell;
use tg_crypto::OracleFamily;
use tg_idspace::Id;
use tg_overlay::GraphKind;
use tg_sim::Metrics;

/// Whether construction uses the paper's two-graph dual searches or the
/// naive single-graph hand-off (ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildMode {
    /// The paper: two old graphs, every protocol search done in both.
    DualGraph,
    /// Ablation: one old graph, single searches.
    SingleGraph,
}

impl BuildMode {
    /// Number of group graphs per epoch under this mode.
    pub fn sides(&self) -> usize {
        match self {
            BuildMode::DualGraph => 2,
            BuildMode::SingleGraph => 1,
        }
    }
}

/// Counters from one epoch's construction (the Lemma 6/7/8/10 events).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Membership slots attempted.
    pub member_slots: u64,
    /// Slots captured by the adversary (all construction searches failed).
    pub captured_slots: u64,
    /// Slots whose (honest) successor was a bad ID (Lemma 6).
    pub bad_member_draws: u64,
    /// Slots lost to erroneous verification rejection.
    pub rejected_slots: u64,
    /// Topology links required.
    pub links_required: u64,
    /// Links that could not be established (group confused).
    pub links_failed: u64,
    /// Spurious adversarial requests accepted by good IDs (Lemma 10).
    pub spurious_accepted: u64,
    /// Spurious adversarial requests issued.
    pub spurious_issued: u64,
}

/// The initiating group of one construction search in each old graph:
/// entry `s` is a group index in old graph `s`. [`BuildMode::sides`] is
/// at most 2, so a fixed pair; readers stop at `olds.len()`.
pub(crate) type Initiators = [Option<usize>; 2];

/// Where a build's searches start: the old graphs, and per graph its
/// blue groups, listed at most once per build — the first time
/// `pick_boot`'s rejection sampling gives up on that graph. The old
/// graphs do not change while a build runs, so the list stays exact.
/// Both build schedules pick through one of these.
pub(crate) struct Bootstraps<'a, G> {
    /// The operational graphs of the current epoch.
    pub(crate) olds: &'a [G],
    blues: [OnceCell<Vec<usize>>; 2],
}

impl<'a, G: GroupGraphView> Bootstraps<'a, G> {
    pub(crate) fn new(olds: &'a [G]) -> Self {
        Bootstraps { olds, blues: Default::default() }
    }

    /// Pick a bootstrapping group: a u.a.r. *blue* group of old graph
    /// `s` (the paper assumes joiners know a good bootstrap group,
    /// Appendix IX). Returns `None` when the graph has no blue group
    /// left.
    ///
    /// The draw count depends only on the RNG stream and the old graph's
    /// colors, so both build schedules draw the exact same bootstrap
    /// sequence.
    fn pick_boot(&self, s: usize, rng: &mut StdRng) -> Option<usize> {
        let old = &self.olds[s];
        // Rejection sampling: expected O(1) tries while most groups are
        // blue; fall back to the blue list when the graph is badly
        // degraded.
        for _ in 0..32 {
            let i = rng.gen_range(0..old.len());
            if !old.is_red(i) {
                return Some(i);
            }
        }
        let blues = self.blues[s].get_or_init(|| old.blue_indices());
        if blues.is_empty() {
            None
        } else {
            Some(blues[rng.gen_range(0..blues.len())])
        }
    }

    /// A fresh bootstrap group per old graph, drawn in side order. Fresh
    /// per search: the bootstrap performs each search anyway, and
    /// initiating-point diversity keeps failures of different slots from
    /// coupling through a shared early route.
    pub(crate) fn pick(&self, rng: &mut StdRng) -> Initiators {
        let mut boots = [None; 2];
        for (s, b) in boots.iter_mut().enumerate().take(self.olds.len()) {
            *b = self.pick_boot(s, rng);
        }
        boots
    }
}

/// Dual (or single, per mode) search for `point` across the old graphs,
/// initiated in each from a bootstrap group (or the verifier's own).
/// One protocol search succeeds iff its path stayed blue; the dual search
/// short-circuits after the first success (`any`) — the skipped second
/// search never reaches [`Metrics`].
fn construction_search<G: GroupGraphView>(
    olds: &[G],
    from: Initiators,
    point: Id,
    metrics: &mut Metrics,
) -> bool {
    olds.iter()
        .zip(from)
        .any(|(g, f)| f.is_some_and(|idx| search_path(g, idx, point, metrics).is_success()))
}

// ---- The §III-A steps (stable): both build schedules call these.

/// Outcome of one membership slot. Kept to 8 bytes — at `n = 10⁶` there
/// are ~10⁷ slots per side.
#[derive(Clone, Copy)]
pub(crate) enum SlotOut {
    /// All construction searches failed: the adversary answers (Lemma 7).
    Captured,
    /// Honest resolution to a bad pool ID (Lemma 6).
    Bad(u32),
    /// Honest resolution, verified by the good candidate.
    Member(u32),
    /// Good candidate's own verification searches failed: slot lost.
    Rejected,
}

/// Resolve the membership slot at `point`, searched from `from[s]` in old
/// graph `s` (Lemma 6/7). Draws nothing.
pub(crate) fn resolve_slot<G: GroupGraphView>(
    olds: &[G],
    pool: &Population,
    from: Initiators,
    point: Id,
    metrics: &mut Metrics,
) -> SlotOut {
    if !construction_search(olds, from, point, metrics) {
        // Both searches failed: the adversary answers (Lemma 7, first
        // failure mode).
        return SlotOut::Captured;
    }
    let cand = pool.ring().successor_index(point);
    if pool.is_bad(cand) {
        // An honest resolution that happens to be a bad ID (Lemma 6) — it
        // gladly accepts membership.
        return SlotOut::Bad(cand as u32);
    }
    // Verification by the good candidate: its own searches, initiated
    // from its own groups in the old graphs.
    if construction_search(olds, [Some(cand); 2], point, metrics) {
        SlotOut::Member(cand as u32)
    } else {
        SlotOut::Rejected
    }
}

impl BuildStats {
    /// Fold one slot outcome into the group under assembly: its member
    /// column, its captured count and the epoch's counters.
    pub(crate) fn fold_slot(
        &mut self,
        out: SlotOut,
        pool_has_bad: bool,
        members: &mut Vec<u32>,
        captured: &mut u32,
    ) {
        match out {
            SlotOut::Captured => {
                // The adversary plants one of its pool IDs (or the slot
                // is simply lost if it has none).
                self.captured_slots += 1;
                if pool_has_bad {
                    *captured += 1;
                }
            }
            SlotOut::Bad(c) => {
                self.bad_member_draws += 1;
                members.push(c);
            }
            SlotOut::Member(c) => members.push(c),
            SlotOut::Rejected => self.rejected_slots += 1,
        }
    }
}

/// Establish the topology link to neighbor `u`, an index of
/// `new_leaders`' ring (Lemma 8): up to `attempts` rounds, each locating
/// `u` through the old graphs from fresh bootstraps and then — only if
/// located and `u` is good — letting `u` verify the request with searches
/// from fresh bootstraps of its own. `false` means the link is missing and
/// the requesting group is *confused*.
///
/// Draw schedule (both builds rely on it): per round one `pick_boot` per
/// old graph to locate, then one per old graph to verify; nothing is
/// drawn for a round's verify when the locate failed or `u` is bad, and
/// nothing after the first established round.
///
/// "Updating Links" re-runs the update whenever a better match joins and
/// only the final selection matters for confusion, which is what the
/// `attempts = 1 + link_retries` rounds model. They are **not**
/// independent chances (ROADMAP item 1 measured it): every attempt, on
/// every side, routes to the same key `u` through the same two old
/// graphs; `pick_boot` re-randomises only the head of the route and the
/// tails converge on `u`'s old neighbourhood, so side 0 and side 1 of a
/// group fail together. No session has had the paper's text, so the
/// independence Lemma 8's `q_f²` needs is argued here, not quoted.
pub(crate) fn establish_link<G: GroupGraphView>(
    boots: &Bootstraps<'_, G>,
    new_leaders: &Population,
    u: usize,
    attempts: usize,
    rng: &mut StdRng,
    metrics: &mut Metrics,
) -> bool {
    let (olds, key) = (boots.olds, new_leaders.ring().at(u));
    for _ in 0..attempts {
        // Locate the neighbor through the old graphs...
        if !construction_search(olds, boots.pick(rng), key, metrics) {
            continue;
        }
        // ...and let the (good) neighbor verify the request. A bad
        // neighbor may accept or ignore; ignoring only hurts itself (the
        // link to a red group is irrelevant), accepting matches the
        // topology.
        if new_leaders.is_bad(u) || construction_search(olds, boots.pick(rng), key, metrics) {
            return true;
        }
    }
    false
}

/// The Lemma 10 state attack on good pool ID `u`: a fake "you are
/// `suc(h(w, i))`" request for `fake_point`. A good ID accepts only if
/// *both* of its own verification searches fail (in which case the
/// adversary controlled the answers). Draws nothing.
pub(crate) fn accepts_spurious<G: GroupGraphView>(
    olds: &[G],
    u: usize,
    fake_point: Id,
    metrics: &mut Metrics,
) -> bool {
    !construction_search(olds, [Some(u); 2], fake_point, metrics)
}

// ---- The reference schedule (order of evaluation only).

/// Build the new group graphs for the next epoch — the *reference*
/// build: one group at a time, every step in program order. The epoch
/// system runs the streamed schedule of the same steps (`crate::arena`),
/// whose unit tests hold it to this one group by group; nothing outside
/// tests calls this function.
///
/// * `olds` — the operational graphs of the current epoch (2 for
///   [`BuildMode::DualGraph`], 1 for the ablation). Their *leader*
///   generation becomes the member pool of the new graphs.
/// * `new_leaders` — the next epoch's ID population.
///
/// Returns the new graphs (one side per old graph) and the construction
/// counters.
#[allow(clippy::too_many_arguments)] // the protocol's full parameter surface
pub fn build_new_graphs<G: GroupGraphView>(
    olds: &[G],
    new_leaders: &Population,
    kind: GraphKind,
    fam: &OracleFamily,
    params: &Params,
    mode: BuildMode,
    rng: &mut StdRng,
    metrics: &mut Metrics,
) -> (GroupGraph, BuildStats) {
    assert_eq!(olds.len(), mode.sides(), "old-graph count must match the build mode");
    let n_new = new_leaders.len();
    let pool = olds[0].leaders().clone();
    let pool_has_bad = pool.bad_count() > 0;
    let draws = params.draws(n_new);
    let attempts = 1 + params.link_retries;
    let mut stats = BuildStats::default();
    let topology = kind.build(new_leaders.ring().clone());
    let boots = Bootstraps::new(olds);
    let mut sides = Vec::with_capacity(mode.sides());

    for side in 0..mode.sides() {
        let oracle = fam.membership(side);
        let mut cols = GroupColumns::with_capacity(n_new, n_new * draws);
        let mut members: Vec<u32> = Vec::with_capacity(draws);

        for w in 0..n_new {
            let wid = new_leaders.ring().at(w);

            // --- Membership (Lemma 6/7) ---
            members.clear();
            let mut captured = 0u32;
            for i in 0..draws {
                stats.member_slots += 1;
                let from = boots.pick(rng);
                let point = oracle.hash_id_index(wid, i as u32);
                let out = resolve_slot(olds, &pool, from, point, metrics);
                stats.fold_slot(out, pool_has_bad, &mut members, &mut captured);
            }

            // --- Neighbor links (Lemma 8) ---
            let mut confused = false;
            for u in topology.neighbor_indices(w) {
                stats.links_required += 1;
                if !establish_link(&boots, new_leaders, u, attempts, rng, metrics) {
                    stats.links_failed += 1;
                    confused = true;
                }
            }
            cols.push(&mut members, captured, confused);
        }
        sides.push(cols);
    }

    // --- The Lemma 10 state attack: spurious membership requests ---
    let good_pool = pool.good_indices();
    if params.attack_requests_per_id > 0 && !good_pool.is_empty() {
        for &u in &good_pool {
            for _ in 0..params.attack_requests_per_id {
                stats.spurious_issued += 1;
                let fake_point = Id(rng.gen());
                if accepts_spurious(olds, u, fake_point, metrics) {
                    stats.spurious_accepted += 1;
                }
            }
        }
    }

    (GroupGraph::from_sides(new_leaders.clone(), pool, topology, sides), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use rand::SeedableRng;

    fn initial_pair(n_good: usize, n_bad: usize, seed: u64) -> (Vec<GroupGraph>, Params) {
        let params = Params::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        let fam = OracleFamily::new(seed);
        let a = build_initial_graph(pop.clone(), GraphKind::D2B, fam.h1, &params);
        let b = build_initial_graph(pop, GraphKind::D2B, fam.h2, &params);
        (vec![a, b], params)
    }

    /// Build over `olds` for a fresh uniform generation of the same size,
    /// oracles from `seed`, population and build RNG from `seed + 1`.
    fn build_next(
        olds: &[GroupGraph],
        params: &Params,
        mode: BuildMode,
        seed: u64,
    ) -> (GroupGraph, BuildStats, Metrics) {
        let fam = OracleFamily::new(seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let pool = &olds[0].leaders;
        let new_pop =
            Population::uniform(pool.good_indices().len(), pool.bad_indices().len(), &mut rng);
        let mut m = Metrics::new();
        let (news, stats) =
            build_new_graphs(olds, &new_pop, GraphKind::D2B, &fam, params, mode, &mut rng, &mut m);
        (news, stats, m)
    }

    /// The draw schedule of [`establish_link`]: link to the first good
    /// (or bad) ID of a fresh generation through `olds`, and report the
    /// outcome, the searches counted, and whether the RNG was left exactly
    /// where `boot_rounds` rounds of one `pick_boot` per old graph leave a
    /// clone of it.
    fn link_once(
        olds: &[GroupGraph],
        to_bad: bool,
        attempts: usize,
        boot_rounds: usize,
    ) -> (bool, u64, bool) {
        let mut rng = StdRng::seed_from_u64(11);
        let new_pop = Population::uniform(40, 4, &mut rng);
        let u = if to_bad { new_pop.bad_indices()[0] } else { new_pop.good_indices()[0] };
        let mut expected = rng.clone();
        let boots = Bootstraps::new(olds);
        for _ in 0..boot_rounds {
            boots.pick(&mut expected);
        }
        let mut m = Metrics::new();
        let established = establish_link(&boots, &new_pop, u, attempts, &mut rng, &mut m);
        (established, m.searches, rng.gen::<u64>() == expected.gen::<u64>())
    }

    fn all_red(mut olds: Vec<GroupGraph>) -> Vec<GroupGraph> {
        for g in olds.iter_mut() {
            for i in 0..g.len() {
                g.mark_confused(i);
            }
            g.recolor();
        }
        olds
    }

    /// `pick_boot` with no cache: rejection sampling, then a fresh scan
    /// of the graph on every fallback.
    fn pick_by_scan(old: &GroupGraph, rng: &mut StdRng) -> Option<usize> {
        for _ in 0..32 {
            let i = rng.gen_range(0..old.len());
            if !old.is_red(i) {
                return Some(i);
            }
        }
        let blues = old.blue_indices();
        (!blues.is_empty()).then(|| blues[rng.gen_range(0..blues.len())])
    }

    #[test]
    fn cached_blue_list_picks_what_the_scan_picks() {
        // 24 of every 25 groups red: about a quarter of the picks
        // exhaust the rejection loop and fall back to the blue list.
        let (mut olds, _) = initial_pair(400, 20, 13);
        for g in olds.iter_mut() {
            for i in (0..g.len()).filter(|i| i % 25 != 0) {
                g.mark_confused(i);
            }
            g.recolor();
            assert!((0.95..1.0).contains(&g.frac_red()), "red fraction {}", g.frac_red());
        }
        let boots = Bootstraps::new(&olds);
        let (mut cached, mut scanned) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for pick in 0..2_000 {
            let want = [pick_by_scan(&olds[0], &mut scanned), pick_by_scan(&olds[1], &mut scanned)];
            assert_eq!(boots.pick(&mut cached), want, "pick {pick}");
        }
        assert_eq!(cached.gen::<u64>(), scanned.gen::<u64>(), "the same draws consumed");
        assert!(boots.blues.iter().all(|b| b.get().is_some()), "both graphs fell back");
    }

    #[test]
    fn link_to_a_good_neighbor_is_one_locate_and_one_verify_round() {
        // No red group: each round's dual search succeeds on side 0 and
        // short-circuits, so two searches, 2 · n_sides boots.
        let (olds, params) = initial_pair(300, 0, 3);
        let attempts = 1 + params.link_retries;
        assert_eq!(link_once(&olds, false, attempts, 2), (true, 2, true));
        assert_eq!(link_once(&olds[..1], false, attempts, 2), (true, 2, true));
    }

    #[test]
    fn link_to_a_bad_neighbor_draws_no_verify_boots() {
        let (olds, params) = initial_pair(300, 0, 3);
        assert_eq!(link_once(&olds, true, 1 + params.link_retries, 1), (true, 1, true));
    }

    #[test]
    fn link_through_red_graphs_fails_after_every_attempt() {
        // No blue bootstrap exists: each attempt is one locate round that
        // initiates no search, and no verify round follows.
        let (olds, params) = initial_pair(150, 10, 9);
        let olds = all_red(olds);
        let attempts = 1 + params.link_retries;
        assert_eq!(link_once(&olds, false, attempts, attempts), (false, 0, true));
        assert_eq!(link_once(&olds, true, attempts, attempts), (false, 0, true));
    }

    #[test]
    fn zero_link_retries_is_one_round() {
        let (olds, _) = initial_pair(150, 10, 9);
        assert_eq!(link_once(&all_red(olds), false, 1, 1), (false, 0, true));
    }

    #[test]
    fn builds_one_group_per_new_leader() {
        let (olds, params) = initial_pair(400, 20, 1);
        let (news, stats, m) = build_next(&olds, &params, BuildMode::DualGraph, 1);
        assert_eq!(news.sides(), 2);
        for g in news.view().iter() {
            assert_eq!(g.len(), 420);
        }
        assert_eq!(stats.member_slots, 2 * 420 * params.draws(420) as u64);
        assert!(m.searches > 0, "construction must go through searches");
    }

    #[test]
    fn clean_old_graphs_build_clean_new_graphs() {
        // No adversary anywhere: nothing can be captured, rejected, or
        // confused.
        let (olds, params) = initial_pair(300, 0, 3);
        let (news, stats, _) = build_next(&olds, &params, BuildMode::DualGraph, 3);
        assert_eq!(stats.captured_slots, 0);
        assert_eq!(stats.rejected_slots, 0);
        assert_eq!(stats.bad_member_draws, 0);
        assert_eq!(stats.links_failed, 0);
        assert_eq!(stats.spurious_accepted, 0);
        for g in news.view().iter() {
            assert_eq!(g.frac_red(), 0.0);
        }
    }

    #[test]
    fn bad_member_rate_tracks_beta() {
        let (olds, params) = initial_pair(1000, 50, 5); // β ≈ 0.048
        let (_, stats, _) = build_next(&olds, &params, BuildMode::DualGraph, 5);
        let rate = stats.bad_member_draws as f64 / stats.member_slots as f64;
        assert!((0.02..0.09).contains(&rate), "bad-draw rate {rate:.3} vs β ≈ 0.048");
    }

    #[test]
    fn single_mode_builds_one_side() {
        let (olds, params) = initial_pair(200, 10, 7);
        let (news, _, _) = build_next(&olds[..1], &params, BuildMode::SingleGraph, 7);
        assert_eq!(news.sides(), 1);
    }

    #[test]
    fn degraded_old_graphs_capture_slots() {
        // Force every old group red: every construction search fails, so
        // every slot is captured and every link fails.
        let (olds, params) = initial_pair(150, 10, 9);
        let (news, stats, _) = build_next(&all_red(olds), &params, BuildMode::DualGraph, 9);
        assert_eq!(stats.captured_slots, stats.member_slots);
        assert_eq!(stats.links_failed, stats.links_required);
        for g in news.view().iter() {
            assert_eq!(g.frac_red(), 1.0, "wholly adversarial construction");
        }
    }
}
