//! The epoch system: one epoch loop over the group graph's CSR columns.
//!
//! [`DynamicSystem`] (re-exported as [`crate::dynamic::DynamicSystem`])
//! is the §III churn → build → measure → swap loop. Each epoch's
//! operational graphs are one [`GroupGraph`] with a side per graph (two
//! dual, one for the single-graph ablation): the leader and pool
//! populations and the topology are shared, and each side keeps its
//! groups in CSR columns ([`crate::graph`] draws the layout).
//!
//! **Determinism contract.** An epoch over at least
//! [`FAN_OUT_MIN_IDS`](crate::dynamic::kernel::FAN_OUT_MIN_IDS)
//! identities runs its RNG-free searches on worker threads; a smaller
//! one, or one inside a sweep worker, runs them on the calling thread
//! ([`crate::dynamic::kernel`]). Reports are bit-identical either way
//! and for any thread count, because every RNG draw happens
//! sequentially on the calling thread, in the order of the per-group
//! reference build ([`crate::dynamic::build::build_new_graphs`]):
//!
//! * membership bootstrap picks are unconditional per slot and precede
//!   each leader's link-phase draws, so the one sequential pass draws
//!   them into blocks of `SLOT_BLOCK` slots and hands each block, with
//!   its own bootstraps, to the searches as soon as its last slot is
//!   drawn — both sides' passes run back to back;
//! * construction searches consume no randomness, so a worker can
//!   search a block while the pass keeps drawing. The outcomes are
//!   folded in block order, which is slot order — [`tg_sim::Metrics`]
//!   and [`BuildStats`] are additive sums, so totals are exact for any
//!   thread count and any arrival order;
//! * the Lemma 10 attack pass pre-draws its fake points after both
//!   sides' draws, and maps their verification searches;
//! * link-phase draws are conditional on link-search outcomes, so
//!   [`crate::dynamic::build`]'s `establish_link` runs its searches
//!   inline in the sequential pass;
//! * measurement pre-draws its `(initiator, key)` sample
//!   ([`crate::robustness`]).
//!
//! The unit tests below hold this build to the reference build group
//! by group, and hold a fanned-out epoch to the same epoch run serially
//! inside a sweep worker.

use crate::build::build_genesis;
use crate::dynamic::adversary::AdversaryView;
use crate::dynamic::build::{
    accepts_spurious, establish_link, resolve_slot, Bootstraps, BuildMode, BuildStats, SlotOut,
};
use crate::dynamic::kernel::{scheduled_map, scheduled_stream};
use crate::dynamic::provider::IdentityProvider;
use crate::dynamic::system::EpochObservation;
use crate::graph::{GraphsView, GroupColumns, GroupGraph, GroupGraphView, SideView};
use crate::params::Params;
use crate::population::Population;
use crate::robustness::{measure_dual_success, measure_robustness};
use rand::rngs::StdRng;
use rand::Rng;
use std::mem;
use tg_crypto::{Oracle, OracleFamily};
use tg_idspace::Id;
use tg_overlay::GraphKind;
use tg_sim::{stream_rng, Metrics};

/// Slots per block of searches (and Lemma 10 requests per chunk). Block
/// boundaries only affect scheduling — results are folded in input
/// order, so any block size yields bit-identical epochs.
const SLOT_BLOCK: usize = 2048;

/// The dynamic system: operational group graphs (2 dual, 1 for the
/// single-graph ablation) that re-derive themselves every epoch through
/// the current ones — churn, build, measure, swap (§III).
pub struct DynamicSystem {
    params: Params,
    kind: GraphKind,
    /// Oracle family, fixed at initialization — the hash functions ship
    /// with the software (§III footnote 12).
    fam: OracleFamily,
    graphs: GroupGraph,
    epoch: u64,
    searches_per_epoch: usize,
    master_seed: u64,
}

impl DynamicSystem {
    /// Initialize at epoch 1 with trusted-bootstrap graphs (`G⁰₁, G⁰₂`;
    /// the paper's Appendix X initialization assumption): member `i` of
    /// `G_w` is `suc(h_s(w, i))`, built by the genesis builder behind
    /// [`crate::build::build_initial_graph`], one side per oracle.
    /// 400 searches per epoch.
    pub fn new(
        params: Params,
        kind: GraphKind,
        mode: BuildMode,
        provider: &mut dyn IdentityProvider,
        master_seed: u64,
    ) -> Self {
        let fam = OracleFamily::new(master_seed);
        let mut rng = stream_rng(master_seed, "init", 0);
        // The trusted bootstrap needs identities to build on: a genesis
        // window that minted none is run again.
        let ids = loop {
            let ids = provider.ids_for_epoch(0, &AdversaryView::genesis(0), &mut rng);
            if !ids.is_empty() {
                break ids;
            }
        };
        let oracles: Vec<Oracle> = (0..mode.sides()).map(|s| fam.membership(s)).collect();
        let graphs = build_genesis(Population::new(ids.good, ids.bad), kind, &oracles, &params);
        DynamicSystem { params, kind, fam, graphs, epoch: 1, searches_per_epoch: 400, master_seed }
    }

    /// The epoch the operational graphs serve.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The operational graphs.
    pub fn graphs(&self) -> GraphsView<'_> {
        self.graphs.view()
    }

    /// The operational graphs, mutably — for callers that stage their
    /// own churn on the pool (follow with [`GroupGraph::recolor`]).
    pub fn graphs_mut(&mut self) -> &mut GroupGraph {
        &mut self.graphs
    }

    /// Searches sampled per epoch for the robustness report.
    pub fn searches_per_epoch(&self) -> usize {
        self.searches_per_epoch
    }

    /// Override the per-epoch measurement sample size.
    pub fn set_searches_per_epoch(&mut self, searches: usize) {
        self.searches_per_epoch = searches;
    }

    /// Run one epoch: intra-epoch churn on the serving pool, construction
    /// of the next graphs through the current ones, measurement, swap —
    /// [`DynamicSystem::mint_epoch`] then [`DynamicSystem::build_epoch`].
    /// The returned [`EpochObservation`] carries the §III measurements
    /// and group counts; its census, PoW and network fields stay at
    /// their defaults for the layers that measure them.
    pub fn advance_epoch(&mut self, provider: &mut dyn IdentityProvider) -> EpochObservation {
        let minted = self.mint_epoch(provider);
        self.build_epoch(minted)
    }

    /// The first half of an epoch: intra-epoch churn on the serving
    /// pool, then the provider mints the next generation. Nothing is
    /// built yet; [`DynamicSystem::build_epoch`] finishes the epoch.
    ///
    /// The dynamic layer itself has no notion of epoch strings — they
    /// belong to §IV's minting pipeline, so the [`AdversaryView`] handed
    /// to the provider carries `epoch_string: None`. A composed system
    /// (e.g. `tg-pow::FullSystem`) that agrees on a string *before*
    /// minting injects it at the provider layer instead: wrap the
    /// strategic provider in [`crate::dynamic::WithEpochString`] and the
    /// view its inner provider observes carries the string in force —
    /// hoarding strategies grind against it, and the fresh-vs-frozen
    /// contrast of §IV-B plays out over the real protocol string rather
    /// than a synthesized stand-in.
    pub fn mint_epoch(&mut self, provider: &mut dyn IdentityProvider) -> MintedEpoch {
        let mut rng = stream_rng(self.master_seed, "epoch", self.epoch);

        // 1. Intra-epoch churn: a fraction of the good *member pool*
        //    departs while the graphs serve (§III model; bad IDs stay —
        //    the adversary's worst case). It is one physical population,
        //    so the same IDs depart from every side.
        if self.params.churn_rate > 0.0 {
            let mut pick_rng = stream_rng(self.master_seed, "churn", self.epoch);
            self.graphs.pool.depart_good_fraction(self.params.churn_rate, &mut pick_rng);
            self.graphs.recolor();
        }

        // 2. Mint the next epoch's IDs. A strategic adversary inside the
        //    provider observes the graphs that just served this epoch.
        let view =
            AdversaryView { epoch: self.epoch + 1, graphs: self.graphs.view(), epoch_string: None };
        let ids = provider.ids_for_epoch(self.epoch + 1, &view, &mut rng);
        // A window that minted no identity leaves no leader to build a
        // group for: the generation in service carries over and is
        // rebuilt through itself.
        let leaders = if ids.is_empty() {
            self.graphs.leaders.clone()
        } else {
            Population::new(ids.good, ids.bad)
        };
        MintedEpoch { epoch: self.epoch + 1, leaders, rng }
    }

    /// The second half of an epoch: build the next graphs for `minted`
    /// through the (churned) current ones, measure them, and swap them
    /// in. `minted` must come from this system's last
    /// [`DynamicSystem::mint_epoch`].
    pub fn build_epoch(&mut self, minted: MintedEpoch) -> EpochObservation {
        let MintedEpoch { epoch, leaders: new_pop, mut rng } = minted;
        assert_eq!(epoch, self.epoch + 1, "an epoch is built once, after its own mint");
        let mut metrics = Metrics::new();
        let (news, build) = self.build_next(&new_pop, &mut rng, &mut metrics);

        // 3. Measure the fresh graphs (they serve epoch + 1).
        let mut meas_rng = stream_rng(self.master_seed, "measure", self.epoch);
        let side0 = news.side(0);
        let single =
            measure_robustness(&side0, &self.params, self.searches_per_epoch, &mut meas_rng);
        let dual = if news.sides() == 2 {
            let mut dual_rng = stream_rng(self.master_seed, "measure-dual", self.epoch);
            measure_dual_success([&side0, &news.side(1)], self.searches_per_epoch, &mut dual_rng)
        } else {
            single.search_success
        };

        // 4. Membership-state accounting (Lemma 10): how many groups does
        //    each good pool ID serve in, across all sides?
        let pool_len = news.pool.len();
        let mut memberships = vec![0usize; pool_len];
        for g in news.view().iter() {
            for i in 0..g.len() {
                for &m in g.group_members(i) {
                    memberships[m as usize] += 1;
                }
            }
        }
        let good_counts: Vec<usize> =
            (0..pool_len).filter(|&i| !news.pool.is_bad(i)).map(|i| memberships[i]).collect();
        let mean_memberships =
            good_counts.iter().sum::<usize>() as f64 / good_counts.len().max(1) as f64;
        let max_memberships = good_counts.iter().copied().max().unwrap_or(0);

        let sides = || news.view().iter();
        let captured_groups =
            sides().map(|g| (0..g.len()).filter(|&i| !g.has_good_majority(i)).count()).sum();
        let obs = EpochObservation {
            epoch: self.epoch + 1,
            frac_red: sides().map(|g| g.frac_red()).collect(),
            frac_good_majority: sides().map(|g| g.frac_good_majority()).collect(),
            frac_confused: sides().map(|g| g.frac_confused()).collect(),
            frac_paper_invariant: sides().map(|g| g.frac_paper_invariant(&self.params)).collect(),
            search_success_single: single.search_success,
            search_success_dual: dual,
            build,
            mean_memberships,
            max_memberships,
            metrics,
            captured_groups,
            total_groups: sides().map(|g| g.len()).sum(),
            ..EpochObservation::default()
        };

        // 5. Swap: the new graphs become operational.
        self.graphs = news;
        self.epoch += 1;
        obs
    }

    /// Run `epochs` epochs, returning one observation each (§III fields
    /// only: no census, PoW or network layer is attached here).
    pub fn run(
        &mut self,
        provider: &mut dyn IdentityProvider,
        epochs: usize,
    ) -> Vec<EpochObservation> {
        (0..epochs).map(|_| self.advance_epoch(provider)).collect()
    }

    /// Build the next epoch's graphs for `new_leaders` through the
    /// operational ones, whose *leader* generation becomes the new member
    /// pool (§III-A; the module docs of [`crate::dynamic::build`] state
    /// the protocol, and [`crate::dynamic::build::build_new_graphs`] is
    /// the same construction written one group at a time). Here one
    /// sequential pass on the calling thread makes every RNG draw and
    /// streams each finished block of RNG-free searches to
    /// [`scheduled_stream`], which searches it on a worker while the
    /// pass keeps drawing when `n_new ≥ FAN_OUT_MIN_IDS` (see the module
    /// docs).
    fn build_next(
        &self,
        new_leaders: &Population,
        rng: &mut StdRng,
        metrics: &mut Metrics,
    ) -> (GroupGraph, BuildStats) {
        let (olds, params) = (&self.graphs, &self.params);
        let n_sides = olds.sides();
        let old_views: Vec<SideView<'_>> = olds.view().iter().collect();
        let boots = Bootstraps::new(&old_views);
        let oracles: Vec<Oracle> = (0..n_sides).map(|s| self.fam.membership(s)).collect();
        let n_new = new_leaders.len();
        let pool = olds.leaders.clone();
        let pool_has_bad = pool.bad_count() > 0;
        let draws = params.draws(n_new);
        let n_slots = n_new * draws;
        let attempts = 1 + params.link_retries;
        let mut stats = BuildStats::default();
        let topology = self.kind.build(new_leaders.ring().clone());
        // Per side, then per new leader: a required link is missing.
        let mut confused = vec![false; n_sides * n_new];

        // --- The draws (sequential, on this thread): every RNG draw,
        // side by side and leader by leader, in the reference build's
        // order. A block of slots is emitted as soon as its last
        // bootstrap is drawn.
        let produce = |emit: &mut dyn FnMut(SlotBlock)| {
            for side in 0..n_sides {
                let mut boots_drawn = Vec::with_capacity(SLOT_BLOCK);
                for w in 0..n_new {
                    // Membership bootstraps (Lemma 6/7). The picks are
                    // unconditional (searches draw nothing), so the
                    // searches themselves go to the block.
                    for i in 0..draws {
                        stats.member_slots += 1;
                        let from = boots.pick(rng).map(|b| b.map_or(NO_BOOT, |b| b as u32));
                        boots_drawn.push(from);
                        if boots_drawn.len() == SLOT_BLOCK {
                            let start = w * draws + i + 1 - SLOT_BLOCK;
                            let full =
                                mem::replace(&mut boots_drawn, Vec::with_capacity(SLOT_BLOCK));
                            emit(SlotBlock { side, start, boots: full });
                        }
                    }
                    // Neighbor links (Lemma 8), inline: how many draws a
                    // link takes depends on its search outcomes.
                    for u in topology.neighbor_indices(w) {
                        stats.links_required += 1;
                        if !establish_link(&boots, new_leaders, u, attempts, rng, metrics) {
                            // A required link is missing: `G_w` is
                            // confused, and therefore red.
                            stats.links_failed += 1;
                            confused[side * n_new + w] = true;
                        }
                    }
                }
                if !boots_drawn.is_empty() {
                    let start = n_slots - boots_drawn.len();
                    emit(SlotBlock { side, start, boots: boots_drawn });
                }
            }
        };

        // --- The slot searches (RNG-free), one block at a time.
        let search = |block: SlotBlock| {
            let mut m = Metrics::new();
            let mut outs = Vec::with_capacity(block.boots.len());
            for (slot, from) in (block.start..).zip(block.boots) {
                let wid = new_leaders.ring().at(slot / draws);
                let point = oracles[block.side].hash_id_index(wid, (slot % draws) as u32);
                let from = from.map(|b| (b != NO_BOOT).then_some(b as usize));
                outs.push(resolve_slot(&old_views, &pool, from, point, &mut m));
            }
            (m, outs)
        };
        let blocks: Vec<(Metrics, Vec<SlotOut>)> = scheduled_stream(n_new, produce, search);

        // --- Fold in block order, which is slot order side by side: CSR
        // assembly plus the additive counters.
        for (m, _) in &blocks {
            metrics.merge(m);
        }
        let mut slots = blocks.into_iter().flat_map(|(_, outs)| outs);
        let mut sides: Vec<GroupColumns> = Vec::with_capacity(n_sides);
        let mut buf: Vec<u32> = Vec::with_capacity(draws);
        for side in 0..n_sides {
            let mut cols = GroupColumns::with_capacity(n_new, n_slots);
            for w in 0..n_new {
                buf.clear();
                let mut captured = 0;
                for _ in 0..draws {
                    let out = slots.next().expect("one outcome per slot");
                    stats.fold_slot(out, pool_has_bad, &mut buf, &mut captured);
                }
                cols.push(&mut buf, captured, confused[side * n_new + w]);
            }
            sides.push(cols);
        }

        // --- The Lemma 10 state attack: spurious membership requests. The
        // fake points are pre-drawn, the verification searches draw nothing.
        let good_pool = pool.good_indices();
        if params.attack_requests_per_id > 0 && !good_pool.is_empty() {
            let mut tasks: Vec<(u32, Id)> =
                Vec::with_capacity(good_pool.len() * params.attack_requests_per_id);
            for &u in &good_pool {
                for _ in 0..params.attack_requests_per_id {
                    stats.spurious_issued += 1;
                    tasks.push((u as u32, Id(rng.gen())));
                }
            }
            // One sum per chunk of requests, not one result per request:
            // both counters are additive.
            let chunks: Vec<&[(u32, Id)]> = tasks.chunks(SLOT_BLOCK).collect();
            let results = scheduled_map(n_new, chunks, 1, |chunk| {
                let mut m = Metrics::new();
                let mut accepted = 0;
                for &(u, point) in chunk {
                    accepted += u64::from(accepts_spurious(&old_views, u as usize, point, &mut m));
                }
                (m, accepted)
            });
            for (m, accepted) in &results {
                metrics.merge(m);
                stats.spurious_accepted += accepted;
            }
        }

        (GroupGraph::from_sides(new_leaders.clone(), pool, topology, sides), stats)
    }
}

/// The next generation an epoch minted, not yet built: what
/// [`DynamicSystem::mint_epoch`] hands to [`DynamicSystem::build_epoch`].
pub struct MintedEpoch {
    epoch: u64,
    leaders: Population,
    /// The epoch's stream, past the mint's draws: the build goes on
    /// drawing from it.
    rng: StdRng,
}

impl MintedEpoch {
    /// The epoch the graphs built for this generation will serve.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Identities minted, good and bad: the size the build's schedule
    /// is picked from.
    pub fn ids(&self) -> usize {
        self.leaders.len()
    }
}

/// No bootstrap group: the old graph had no blue group left.
const NO_BOOT: u32 = u32::MAX;

/// Membership slots `start..start + boots.len()` of one side, with the
/// bootstrap group drawn for each slot in each old graph: everything
/// their searches need.
struct SlotBlock {
    side: usize,
    start: usize,
    boots: Vec<[u32; 2]>,
}

/// The schedule tests run each epoch at `n_good = FAN_OUT_MIN_IDS`
/// twice: on the test thread, where it fans out, and inside a
/// `parallel_map` worker, where it runs serially. With one CPU both arms
/// are serial.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::dynamic::adversary::{GapFilling, StrategicProvider};
    use crate::dynamic::build::build_new_graphs;
    use crate::dynamic::kernel::{in_a_worker, FAN_OUT_MIN_IDS};
    use crate::dynamic::provider::UniformProvider;

    /// A d2b system (churn and the attack pass on) and its provider.
    fn system(mode: BuildMode, seed: u64, n_good: usize) -> (DynamicSystem, UniformProvider) {
        let mut params = Params::paper_defaults();
        params.attack_requests_per_id = 1;
        params.churn_rate = 0.1;
        let mut provider = UniformProvider { n_good, n_bad: n_good / 20 };
        (DynamicSystem::new(params, GraphKind::D2B, mode, &mut provider, seed), provider)
    }

    /// `run` on the test thread (fanned out) and inside a sweep worker
    /// (serial) must report the same epochs.
    fn assert_schedules_agree(run: impl Fn() -> Vec<EpochObservation> + Sync) {
        let fanned = format!("{:?}", run());
        assert_eq!(fanned, in_a_worker(|| format!("{:?}", run())));
    }

    /// Everything a group is: (members, captured, confused, red, live
    /// size, live bad count).
    fn group_state<G: GroupGraphView>(g: &G, i: usize) -> (&[u32], u32, bool, bool, usize, usize) {
        let (size, bad) = (g.group_size(i), g.group_bad_count(i));
        (g.group_members(i), g.captured_slots(i), g.is_confused(i), g.is_red(i), size, bad)
    }

    /// Group-by-group equality of two sides.
    fn assert_sides_identical(l: &SideView<'_>, v: &SideView<'_>, what: &str) {
        assert_eq!(l.len(), v.len(), "{what}: group count");
        for i in 0..v.len() {
            assert_eq!(group_state(l, i), group_state(v, i), "{what} group {i}");
        }
    }

    /// The static §II build over the system's genesis population, one
    /// one-sided graph per oracle.
    fn static_genesis(sys: &DynamicSystem) -> Vec<GroupGraph> {
        (0..sys.graphs.sides())
            .map(|s| {
                build_initial_graph(
                    sys.graphs.leaders.clone(),
                    sys.kind,
                    sys.fam.membership(s),
                    &sys.params,
                )
            })
            .collect()
    }

    #[test]
    fn initial_graphs_match_legacy() {
        let (sys, _) = system(BuildMode::DualGraph, 1, 380);
        for (s, l) in static_genesis(&sys).iter().enumerate() {
            assert_sides_identical(&l.side(0), &sys.graphs.side(s), &format!("side {s}"));
        }
    }

    /// The cross-schedule check: [`build_new_graphs`] (one group at a
    /// time, every lemma in program order)
    /// and the streamed CSR build, fed the same old graphs, new leaders
    /// and RNG, must produce the same groups, counters and message
    /// totals — for three chained epochs over the six configurations of
    /// `tests/golden_epoch_graphs.rs`. Their populations are below
    /// [`FAN_OUT_MIN_IDS`], so the schedule tests below cover fan-out.
    #[test]
    fn two_pass_build_matches_the_reference_build() {
        use GraphKind::{Chord, D2B};
        let configs = [
            (Chord, BuildMode::DualGraph, 1, 0.1, false),
            (D2B, BuildMode::DualGraph, 1, 0.1, false),
            (D2B, BuildMode::SingleGraph, 1, 0.1, false),
            (D2B, BuildMode::DualGraph, 0, 0.0, false),
            (Chord, BuildMode::DualGraph, 4, 0.2, false),
            (D2B, BuildMode::DualGraph, 1, 0.15, true),
        ];
        for (c, &(kind, mode, attack, churn, gap_filling)) in configs.iter().enumerate() {
            let mut params = Params::paper_defaults();
            params.attack_requests_per_id = attack;
            params.churn_rate = churn;
            let mut provider: Box<dyn IdentityProvider> = if gap_filling {
                Box::new(StrategicProvider::new(220, 24, GapFilling))
            } else {
                Box::new(UniformProvider { n_good: 220, n_bad: 12 })
            };
            let mut sys = DynamicSystem::new(params, kind, mode, provider.as_mut(), 42);
            let oracles: Vec<Oracle> = (0..mode.sides()).map(|s| sys.fam.membership(s)).collect();
            let mut reference = build_genesis(sys.graphs.leaders.clone(), kind, &oracles, &params);

            for epoch in 1..=3u64 {
                if churn > 0.0 {
                    let churn_rng = stream_rng(42, "churn", epoch);
                    for g in [&mut sys.graphs, &mut reference] {
                        g.pool.depart_good_fraction(churn, &mut churn_rng.clone());
                        g.recolor();
                    }
                }
                let mut rng = stream_rng(42, "epoch", epoch);
                let view =
                    AdversaryView { epoch: epoch + 1, graphs: sys.graphs(), epoch_string: None };
                let ids = provider.ids_for_epoch(epoch + 1, &view, &mut rng);
                let new_pop = Population::new(ids.good, ids.bad);

                let (mut m_ref, mut m_csr) = (Metrics::new(), Metrics::new());
                let olds: Vec<SideView<'_>> = reference.view().iter().collect();
                let (news_ref, stats_ref) = build_new_graphs(
                    &olds,
                    &new_pop,
                    kind,
                    &sys.fam,
                    &params,
                    mode,
                    &mut rng.clone(),
                    &mut m_ref,
                );
                let (news_csr, stats_csr) = sys.build_next(&new_pop, &mut rng, &mut m_csr);
                assert_eq!(format!("{stats_ref:?}"), format!("{stats_csr:?}"), "config {c}");
                assert_eq!(m_ref, m_csr, "config {c} epoch {epoch}");
                assert_eq!(news_ref.sides(), news_csr.sides(), "config {c}");
                for s in 0..news_ref.sides() {
                    let what = format!("config {c} epoch {epoch} side {s}");
                    assert_sides_identical(&news_ref.side(s), &news_csr.side(s), &what);
                }
                reference = news_ref;
                sys.graphs = news_csr;
            }
        }
    }

    #[test]
    fn epochs_match_legacy_exactly() {
        assert_schedules_agree(|| {
            let (mut sys, mut provider) = system(BuildMode::DualGraph, 7, FAN_OUT_MIN_IDS);
            sys.run(&mut provider, 3)
        });
    }

    #[test]
    fn single_graph_mode_matches_legacy() {
        assert_schedules_agree(|| {
            let (mut sys, mut provider) = system(BuildMode::SingleGraph, 4, FAN_OUT_MIN_IDS);
            sys.run(&mut provider, 1)
        });
    }

    #[test]
    fn zero_churn_zero_attack_matches_legacy() {
        let mut params = Params::paper_defaults();
        params.attack_requests_per_id = 0;
        params.churn_rate = 0.0;
        assert_schedules_agree(|| {
            let mut provider = UniformProvider { n_good: FAN_OUT_MIN_IDS, n_bad: 100 };
            let mut sys = DynamicSystem::new(
                params,
                GraphKind::Chord,
                BuildMode::DualGraph,
                &mut provider,
                9,
            );
            sys.run(&mut provider, 1)
        });
    }
}
