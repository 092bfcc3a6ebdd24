//! The [`InputGraph`] abstraction: what the group layer needs from `H`.

use tg_idspace::{Id, SortedRing};

/// The path taken by one search (property P1).
///
/// Hops are **ring indices** into the topology's [`InputGraph::ring`]
/// (read an ID back with `ring.at(hop)`): the group layer indexes its
/// columns by leader-ring position, so an index-valued route spares every
/// caller a lookup per hop. `hops[0]` is the initiator and the final
/// element is the index of the ID responsible for the key (`suc(key)`).
/// Every consecutive pair is an edge of the graph. An ID is "traversed" by
/// the search iff its index appears in `hops` (matching the paper's
/// Appendix VI definition, which counts the initiator, all forwarders, and
/// the resolver).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Ring indices of the traversed IDs in order, initiator first,
    /// resolver last.
    pub hops: Vec<usize>,
}

impl Route {
    /// Number of traversed IDs.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route is empty (never produced by a valid graph).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Ring index of the ID that resolved the search.
    pub fn resolver(&self) -> usize {
        *self.hops.last().expect("routes are never empty")
    }
}

/// An input graph `H` over a fixed ID population.
///
/// Implementations are pure functions of the ID ring: links and routes
/// are recomputable by anybody from the ring alone, which is what makes
/// property P3's *verifiability* possible — an ID asked to accept a link
/// can re-derive whether that link should exist (the group layer does so
/// by searches, in `tg_core`'s `establish_link`). Both links and routes
/// speak in **ring indices** into [`InputGraph::ring`]; index order is ID
/// order.
pub trait InputGraph: Send + Sync {
    /// The ID population.
    fn ring(&self) -> &SortedRing;

    /// The neighbor set `S_i` of the ID at ring index `i` (property P3):
    /// the ring indices of its neighbors, ascending (so in ID order),
    /// deduplicated, without `i` itself.
    fn neighbor_indices(&self, i: usize) -> Vec<usize>;

    /// Route from the ID at ring index `from` to the ID responsible for
    /// `key` (property P1), into `hops`: cleared, then filled with the
    /// route's ring indices, initiator first and resolver last (see
    /// [`Route`]). A caller that routes often reuses one buffer, so a
    /// route allocates nothing.
    fn route_into(&self, from: usize, key: Id, hops: &mut Vec<usize>);

    /// [`InputGraph::route_into`] a fresh buffer of
    /// [`InputGraph::hops_capacity`] hops.
    fn route(&self, from: usize, key: Id) -> Route {
        let mut hops = Vec::with_capacity(self.hops_capacity());
        self.route_into(from, key, &mut hops);
        Route { hops }
    }

    /// The capacity [`InputGraph::route`] gives a fresh route's hops:
    /// enough that a route on a u.a.r. ring never regrows it.
    fn hops_capacity(&self) -> usize {
        self.route_len_bound()
    }

    /// An a-priori bound on route length for this topology and ring size,
    /// used by tests and by the harness to size message buffers.
    fn route_len_bound(&self) -> usize;

    /// [`InputGraph::neighbor_indices`] in `Id`s: the neighbor set `S_w`
    /// of `w`, ascending. `w` must be on the ring.
    fn neighbors(&self, w: Id) -> Vec<Id> {
        let ring = self.ring();
        let i = ring.index_of(w).expect("neighbors of an ID not on the ring");
        self.neighbor_indices(i).into_iter().map(|j| ring.at(j)).collect()
    }
}

/// Factory enum so experiments can sweep topologies by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Chord \[48\] — `Θ(log n)` degree.
    Chord,
    /// D2B \[19\] — de Bruijn, `O(1)` expected degree.
    D2B,
    /// Naor–Wieder distance halving \[39\] — `O(1)` expected degree.
    DistanceHalving,
}

impl GraphKind {
    /// All implemented topologies.
    pub const ALL: [GraphKind; 3] = [GraphKind::Chord, GraphKind::D2B, GraphKind::DistanceHalving];

    /// Construct the graph over `ring`.
    pub fn build(self, ring: SortedRing) -> Box<dyn InputGraph> {
        match self {
            GraphKind::Chord => Box::new(crate::chord::Chord::new(ring)),
            GraphKind::D2B => Box::new(crate::debruijn::D2B::new(ring)),
            GraphKind::DistanceHalving => Box::new(crate::halving::DistanceHalving::new(ring)),
        }
    }

    /// Topology name (stable, used in CSV output).
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Chord => "chord",
            GraphKind::D2B => "d2b",
            GraphKind::DistanceHalving => "distance-halving",
        }
    }

    /// Parse a topology name as produced by [`GraphKind::name`].
    pub fn parse(s: &str) -> Option<GraphKind> {
        match s {
            "chord" => Some(GraphKind::Chord),
            "d2b" => Some(GraphKind::D2B),
            "distance-halving" => Some(GraphKind::DistanceHalving),
            _ => None,
        }
    }
}

/// `⌈log2 n⌉`, used by all topologies to size fingers/bit-walks.
pub(crate) fn ceil_log2(n: usize) -> u32 {
    assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// The continuous-discrete link rule \[39\] that D2B and distance halving
/// share: the ring indices of every node whose covering segment meets a
/// halved image or the doubled image of `segment_after(i)`, plus the ring
/// neighbors `i ± 1` — ascending, deduplicated, without `i`.
pub(crate) fn continuous_discrete_links(ring: &SortedRing, i: usize) -> Vec<usize> {
    let n = ring.len();
    let mut out = Vec::with_capacity(8);
    if n == 1 {
        return out;
    }
    let seg = ring.segment_after(i);
    for image in [seg.half_left(), seg.half_right(), seg.double()] {
        // The node covering the image's start, then every node inside it.
        if !image.is_empty() {
            out.push(ring.covering_index(image.start()));
            out.extend(ring.indices_in(&image));
        }
    }
    out.push((i + n - 1) % n);
    out.push((i + 1) % n);
    out.sort_unstable();
    out.dedup();
    out.retain(|&u| u != i);
    out
}

/// Walk a ring of `n` nodes from sorted index `a` to sorted index `b`,
/// appending the indices passed, taking the shorter direction (forward on
/// a tie). Each direction is at most two index ranges, split where it
/// wraps past index 0.
pub(crate) fn ring_walk(n: usize, hops: &mut Vec<usize>, a: usize, b: usize) {
    let fwd = if a <= b { b - a } else { b + n - a };
    if fwd <= n - fwd {
        if a <= b {
            hops.extend(a + 1..=b);
        } else {
            hops.extend((a + 1..n).chain(0..=b));
        }
    } else if b <= a {
        hops.extend((b..a).rev());
    } else {
        hops.extend((0..a).rev().chain((b..n).rev()));
    }
}

/// Tiny splitmix64 chain for deterministic per-(source, key) route bits.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn neighbors_reads_neighbor_indices_through_the_ring() {
        let ring = SortedRing::new((0..40u64).map(|k| Id(mix64(k))).collect());
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            for i in 0..ring.len() {
                let by_index: Vec<Id> =
                    g.neighbor_indices(i).into_iter().map(|j| ring.at(j)).collect();
                assert_eq!(g.neighbors(ring.at(i)), by_index, "{} at {i}", kind.name());
            }
        }
    }

    #[test]
    fn ring_walk_takes_the_shorter_way_round() {
        for n in 1..9 {
            for a in 0..n {
                for b in 0..n {
                    let (fwd, back) = ((b + n - a) % n, (a + n - b) % n);
                    let want: Vec<usize> = if fwd <= back {
                        (1..=fwd).map(|s| (a + s) % n).collect()
                    } else {
                        (1..=back).map(|s| (a + n - s) % n).collect()
                    };
                    let mut hops = Vec::new();
                    ring_walk(n, &mut hops, a, b);
                    assert_eq!(hops, want, "n={n} {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn graph_kind_roundtrip() {
        for k in GraphKind::ALL {
            assert_eq!(GraphKind::parse(k.name()), Some(k));
        }
        assert_eq!(GraphKind::parse("nonsense"), None);
    }
}
