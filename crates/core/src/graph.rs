//! The group graph `G` (§II-A) and its one storage layout.
//!
//! For an input graph `H` over the leader ring, the group graph has one
//! group per ID (S1). Each group is **blue** or **red**:
//!
//! * *red* — the group is bad (no good majority among its live members)
//!   or *confused* (its neighbor links differ from the topology's
//!   linking rules — the Lemma 8 failure mode),
//! * *blue* — good and correctly linked.
//!
//! Edges incident to blue groups follow `H` (S3): the good majority keeps
//! a blue group's neighbor knowledge consistent, so the adversary cannot
//! rewire it — it can only rewire among red groups, which never helps a
//! search that (by the search-path semantics) dies at the first red group
//! anyway.
//!
//! **Layout.** A [`GroupGraph`] shares one leader generation, one member
//! pool and one topology among its *sides* — two for an epoch of the
//! dynamic system (§III's dual graphs), one for a static §II graph and
//! for the single-graph ablation. Each side keeps its groups in flat CSR
//! columns rather than one heap-allocated member `Vec` per group:
//!
//! ```text
//!              group 0      group 1    group 2
//!            ┌──────────┬────────────┬─────────┬─ ─ ─
//!   members  │ 3 17 901 │ 4 17 88 90 │ 2 5     │ ...     (u32 column,
//!            └──────────┴────────────┴─────────┴─ ─ ─     sorted+deduped
//!   offsets  0          3            7         9           per range)
//!
//!   captured [ 0, 1, 0, ... ]   (u32 per group)
//!   confused [ f, f, t, ... ]   (bool per group)
//!   colors   [ B, B, R, ... ]   (recomputed by `GroupGraph::recolor`)
//!   sizes    [ 3, 5, 2, ... ]   (live sizes, written alongside the colors)
//! ```
//!
//! Group `i`'s members are `members[offsets[i]..offsets[i+1]]`. Everything
//! that *reads* a group graph — search paths, robustness measurement,
//! construction bootstraps, string agreement, adversary observation —
//! goes through [`GroupGraphView`], implemented by [`SideView`] (one side
//! of any graph) and by a one-sided [`GroupGraph`] itself.

use crate::group;
use crate::params::Params;
use crate::population::Population;
use tg_overlay::InputGraph;

/// Blue/red classification of a group (§II-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Color {
    /// Good majority and correct neighbor set.
    Blue,
    /// Bad majority, dead, or confused.
    Red,
}

/// One side's groups in CSR layout (see the module docs).
pub(crate) struct GroupColumns {
    /// `offsets[i]..offsets[i+1]` is group `i`'s member range.
    offsets: Vec<u32>,
    /// Concatenated member columns, sorted and deduplicated per range.
    members: Vec<u32>,
    /// Captured slots per group (adversarial plants outside the pool).
    captured: Vec<u32>,
    /// Whether each group's links are incorrect (Lemma 8).
    confused: Vec<bool>,
    /// Blue/red classification, recomputed by [`GroupGraph::recolor`].
    colors: Vec<Color>,
    /// Live group sizes as of the same [`GroupGraph::recolor`].
    sizes: Vec<u32>,
}

impl GroupColumns {
    /// Empty columns with room for `groups` groups of `members` member
    /// entries in all.
    pub(crate) fn with_capacity(groups: usize, members: usize) -> Self {
        let mut offsets = Vec::with_capacity(groups + 1);
        offsets.push(0);
        GroupColumns {
            offsets,
            members: Vec::with_capacity(members),
            captured: Vec::with_capacity(groups),
            confused: Vec::with_capacity(groups),
            colors: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Append the next group: its raw member draws (sorted and
    /// deduplicated in place), its captured slots and its confusion.
    pub(crate) fn push(&mut self, members: &mut Vec<u32>, captured: u32, confused: bool) {
        members.sort_unstable();
        members.dedup();
        self.members.extend_from_slice(members);
        self.offsets.push(self.members.len() as u32);
        self.captured.push(captured);
        self.confused.push(confused);
    }

    /// Group `i`'s member column (pool ring indices, sorted).
    #[inline]
    fn group_members(&self, i: usize) -> &[u32] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Group graphs over one leader ring: groups over the leader generation,
/// members from a pool generation, atop an input-graph topology — one
/// set of group columns per side (see the module docs).
pub struct GroupGraph {
    /// The current generation: leaders / vertices of the graph.
    pub leaders: Population,
    /// The member pool (previous generation in the dynamic case; the
    /// same generation for initial/static graphs). One physical
    /// population, shared by the sides.
    pub pool: Population,
    /// The input-graph topology `H` over the leader ring. A pure function
    /// of the ring, so one instance serves every side.
    pub topology: Box<dyn InputGraph>,
    sides: Vec<GroupColumns>,
}

impl GroupGraph {
    /// Assemble a one-sided group graph from one member list per leader
    /// (pool ring indices; sorted and deduplicated here) and compute its
    /// coloring.
    pub fn new(
        leaders: Population,
        pool: Population,
        members: Vec<Vec<u32>>,
        confused: Vec<bool>,
        topology: Box<dyn InputGraph>,
    ) -> Self {
        assert_eq!(members.len(), leaders.len(), "one group per leader");
        assert_eq!(confused.len(), members.len());
        let mut side =
            GroupColumns::with_capacity(members.len(), members.iter().map(Vec::len).sum());
        for (mut m, c) in members.into_iter().zip(confused) {
            side.push(&mut m, 0, c);
        }
        GroupGraph::from_sides(leaders, pool, topology, vec![side])
    }

    /// Assemble from finished columns, one per side, and color them.
    pub(crate) fn from_sides(
        leaders: Population,
        pool: Population,
        topology: Box<dyn InputGraph>,
        sides: Vec<GroupColumns>,
    ) -> Self {
        let mut gg = GroupGraph { leaders, pool, topology, sides };
        gg.recolor();
        gg
    }

    /// Number of groups per side (= number of leaders).
    pub fn len(&self) -> usize {
        self.leaders.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.leaders.is_empty()
    }

    /// Number of sides (2 dual, 1 static or single-graph ablation).
    pub fn sides(&self) -> usize {
        self.sides.len()
    }

    /// A [`GroupGraphView`] handle onto side `s`.
    pub fn side(&self, s: usize) -> SideView<'_> {
        SideView { graph: self, side: &self.sides[s] }
    }

    /// These graphs as the borrowed view strategies and drivers read.
    pub fn view(&self) -> GraphsView<'_> {
        GraphsView(Some(self))
    }

    /// Recompute every side's colors (after churn or link updates):
    /// blue iff a live good majority and not confused. The live size each
    /// color is judged on is stored beside it.
    ///
    /// **Contract.** Searches read colors and sizes as of the last
    /// `recolor` ([`GroupGraphView::recolored_size`]): churn staged on the
    /// pool shows in a search only once it is followed by a `recolor`.
    pub fn recolor(&mut self) {
        for s in 0..self.sides.len() {
            let g = self.side(s);
            let (colors, sizes) = (0..g.len())
                .map(|i| {
                    let size = g.group_size(i);
                    let blue =
                        group::has_good_majority(size, g.group_bad_count(i)) && !g.is_confused(i);
                    (if blue { Color::Blue } else { Color::Red }, size as u32)
                })
                .unzip();
            self.sides[s].colors = colors;
            self.sides[s].sizes = sizes;
        }
    }

    /// The columns of a one-sided graph. The single-graph accessors
    /// below panic on a multi-sided graph, where "group `i`" names one
    /// group per side — read those through [`GroupGraph::side`].
    fn only(&self) -> &GroupColumns {
        let [side] = &self.sides[..] else { panic!("{} sides: pick one", self.sides.len()) };
        side
    }

    /// Mark group `i` confused (its links are incorrect, Lemma 8);
    /// follow with [`GroupGraph::recolor`].
    pub fn mark_confused(&mut self, i: usize) {
        let [side] = &mut self.sides[..] else { panic!("{} sides: pick one", self.sides.len()) };
        side.confused[i] = true;
    }

    /// The color of group `i`.
    #[inline]
    pub fn color(&self, i: usize) -> Color {
        self.only().colors[i]
    }

    /// Whether group `i` is red.
    #[inline]
    pub fn is_red(&self, i: usize) -> bool {
        self.color(i) == Color::Red
    }
}

/// Read access to one side's group graph.
///
/// The required methods are column reads; the provided ones derive every
/// count and fraction from them — the live-member scan once, the §II-A
/// and §I-C predicates of [`crate::group`] over its two counts.
pub trait GroupGraphView {
    /// Number of groups (= number of leaders).
    fn len(&self) -> usize;
    /// Whether group `i` is red (bad majority, dead, or confused).
    fn is_red(&self, i: usize) -> bool;
    /// Whether group `i`'s neighbor links are incorrect (Lemma 8).
    fn is_confused(&self, i: usize) -> bool;
    /// The member column of group `i`: pool ring indices, sorted and
    /// deduplicated (live and departed members alike — filter through
    /// [`GroupGraphView::pool`] for liveness).
    fn group_members(&self, i: usize) -> &[u32];
    /// Adversary-captured slots of group `i` (slots whose dual searches
    /// both failed and were claimed by bad pool members).
    fn captured_slots(&self, i: usize) -> u32;
    /// The leader generation (vertices of the graph).
    fn leaders(&self) -> &Population;
    /// The member pool generation.
    fn pool(&self) -> &Population;
    /// The input-graph topology `H` over the leader ring.
    fn topology(&self) -> &dyn InputGraph;
    /// Live size of group `i` as of the last [`GroupGraph::recolor`] — the
    /// size [`crate::routing::search_path`] charges. Like the colors, it
    /// is a snapshot: pool churn since that recolor shows only in
    /// [`GroupGraphView::group_size`], which rescans the live members.
    fn recolored_size(&self, i: usize) -> usize;

    /// Whether the graph has no groups.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live members of group `i` (pool ring indices, ascending).
    /// Captured slots are not pool members and are not among them.
    fn live_members(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let pool = self.pool();
        self.group_members(i).iter().map(|&m| m as usize).filter(move |&m| pool.is_live(m))
    }

    /// Live size of group `i` (live members plus captured slots).
    fn group_size(&self, i: usize) -> usize {
        self.live_members(i).count() + self.captured_slots(i) as usize
    }

    /// Live bad members of group `i`, including captured slots.
    fn group_bad_count(&self, i: usize) -> usize {
        let pool = self.pool();
        self.live_members(i).filter(|&m| pool.is_bad(m)).count() + self.captured_slots(i) as usize
    }

    /// Whether group `i` has strictly more live good members than bad.
    fn has_good_majority(&self, i: usize) -> bool {
        group::has_good_majority(self.group_size(i), self.group_bad_count(i))
    }

    /// Fraction of red groups — the quantity `pf` bounds (S2).
    fn frac_red(&self) -> f64 {
        let red = (0..self.len()).filter(|&i| self.is_red(i)).count();
        red as f64 / self.len().max(1) as f64
    }

    /// Fraction of groups with a good majority.
    fn frac_good_majority(&self) -> f64 {
        let good = (0..self.len()).filter(|&i| self.has_good_majority(i)).count();
        good as f64 / self.len().max(1) as f64
    }

    /// Fraction of groups meeting the paper's §I-C invariant.
    fn frac_paper_invariant(&self, params: &Params) -> f64 {
        let n = self.leaders().len();
        let ok = (0..self.len())
            .filter(|&i| {
                let (size, bad) = (self.group_size(i), self.group_bad_count(i));
                group::meets_paper_invariant(size, bad, params, n)
            })
            .count();
        ok as f64 / self.len().max(1) as f64
    }

    /// Fraction of confused groups.
    fn frac_confused(&self) -> f64 {
        let c = (0..self.len()).filter(|&i| self.is_confused(i)).count();
        c as f64 / self.len().max(1) as f64
    }

    /// Mean live group size.
    fn mean_group_size(&self) -> f64 {
        let total: usize = (0..self.len()).map(|i| self.group_size(i)).sum();
        total as f64 / self.len().max(1) as f64
    }

    /// Leader-ring indices of all blue groups.
    fn blue_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.is_red(i)).collect()
    }
}

/// A one-sided graph is its own side (see [`GroupGraph::side`] for the
/// sides of a multi-sided one).
impl GroupGraphView for GroupGraph {
    fn len(&self) -> usize {
        self.leaders.len()
    }

    fn is_red(&self, i: usize) -> bool {
        GroupGraph::is_red(self, i)
    }

    fn is_confused(&self, i: usize) -> bool {
        self.only().confused[i]
    }

    fn group_members(&self, i: usize) -> &[u32] {
        self.only().group_members(i)
    }

    fn captured_slots(&self, i: usize) -> u32 {
        self.only().captured[i]
    }

    fn leaders(&self) -> &Population {
        &self.leaders
    }

    fn pool(&self) -> &Population {
        &self.pool
    }

    fn topology(&self) -> &dyn InputGraph {
        self.topology.as_ref()
    }

    fn recolored_size(&self, i: usize) -> usize {
        self.only().sizes[i] as usize
    }
}

/// A `Copy` handle onto one side of a [`GroupGraph`], implementing
/// [`GroupGraphView`] over its columns.
#[derive(Clone, Copy)]
pub struct SideView<'a> {
    graph: &'a GroupGraph,
    side: &'a GroupColumns,
}

impl GroupGraphView for SideView<'_> {
    fn len(&self) -> usize {
        self.side.captured.len()
    }

    fn is_red(&self, i: usize) -> bool {
        self.side.colors[i] == Color::Red
    }

    fn is_confused(&self, i: usize) -> bool {
        self.side.confused[i]
    }

    fn group_members(&self, i: usize) -> &[u32] {
        self.side.group_members(i)
    }

    fn captured_slots(&self, i: usize) -> u32 {
        self.side.captured[i]
    }

    fn leaders(&self) -> &Population {
        &self.graph.leaders
    }

    fn pool(&self) -> &Population {
        &self.graph.pool
    }

    fn topology(&self) -> &dyn InputGraph {
        self.graph.topology.as_ref()
    }

    fn recolored_size(&self, i: usize) -> usize {
        self.side.sizes[i] as usize
    }
}

/// A borrowed view of one epoch's operational graphs — what
/// [`crate::dynamic::AdversaryView`] exposes to strategies and what
/// [`crate::scenario::EpochDriver::graphs`] returns. Empty at genesis
/// (nothing has served yet), otherwise a handle onto the system's
/// [`GroupGraph`] (see [`GroupGraph::view`]).
///
/// `Copy`, so a mint step can hand its provider an amended view (the
/// PoW pipeline's string in force) without lifetime gymnastics.
#[derive(Clone, Copy)]
pub struct GraphsView<'a>(pub(crate) Option<&'a GroupGraph>);

impl<'a> GraphsView<'a> {
    /// The view of no graphs at all (genesis: nothing to observe).
    pub fn empty() -> GraphsView<'static> {
        GraphsView(None)
    }

    /// Number of sides (2 dual, 1 single-graph ablation, 0 at genesis).
    pub fn sides(&self) -> usize {
        self.0.map_or(0, GroupGraph::sides)
    }

    /// Whether there are no graphs to observe.
    pub fn is_empty(&self) -> bool {
        self.sides() == 0
    }

    /// The view of side `s`.
    pub fn side(&self, s: usize) -> SideView<'a> {
        self.0.expect("side() of an empty view").side(s)
    }

    /// Iterate over the sides.
    pub fn iter(&self) -> impl Iterator<Item = SideView<'a>> {
        let this = *self;
        (0..this.sides()).map(move |s| this.side(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tg_overlay::GraphKind;

    fn tiny_graph() -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(7);
        let leaders = Population::uniform(16, 4, &mut rng);
        let pool = leaders.clone();
        // Group i = {i, i+1, i+2} mod 20 — deterministic membership for
        // the test.
        let n = leaders.len();
        let members: Vec<Vec<u32>> =
            (0..n).map(|i| vec![i as u32, ((i + 1) % n) as u32, ((i + 2) % n) as u32]).collect();
        let topology = GraphKind::Chord.build(leaders.ring().clone());
        GroupGraph::new(leaders, pool, members, vec![false; n], topology)
    }

    #[test]
    fn colors_follow_majority() {
        let gg = tiny_graph();
        for i in 0..gg.len() {
            let expect = if gg.has_good_majority(i) { Color::Blue } else { Color::Red };
            assert_eq!(gg.color(i), expect);
        }
    }

    #[test]
    fn confusion_makes_red() {
        let mut gg = tiny_graph();
        let blue = gg.blue_indices()[0];
        gg.mark_confused(blue);
        gg.recolor();
        assert!(gg.is_red(blue));
    }

    #[test]
    fn fractions_are_consistent() {
        let gg = tiny_graph();
        assert!(gg.frac_red() >= 0.0 && gg.frac_red() <= 1.0);
        assert!(
            (gg.frac_red() + gg.blue_indices().len() as f64 / gg.len() as f64 - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn churn_recolor_flips_groups() {
        let mut gg = tiny_graph();
        let before = gg.frac_good_majority();
        // Depart most good pool members.
        let mut rng = StdRng::seed_from_u64(9);
        gg.pool.depart_good_fraction(0.9, &mut rng);
        gg.recolor();
        let after = gg.frac_good_majority();
        assert!(after < before, "mass departures must hurt: {before} -> {after}");
    }
}
