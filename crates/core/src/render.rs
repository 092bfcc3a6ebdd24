//! Rendering the group graph — reproduces Figure 1.
//!
//! The paper's only figure shows an input graph `H` with a search
//! `w → u → v → y` next to the corresponding group graph with groups
//! `G_w, G_u, G_v, G_y`, red groups marked "B", and dashed all-to-all
//! links between good members of neighboring groups. [`render_figure1`]
//! emits Graphviz DOT for both panels; `examples/figure1_groupgraph.rs`
//! drives it.

use crate::graph::GroupGraphView;
use std::fmt::Write as _;
use tg_idspace::Id;

/// DOT for the input graph `H` (left panel of Figure 1), highlighting a
/// search path given as leader-ring indices (a [`tg_overlay::Route`]'s
/// hops).
pub fn render_input_graph<G: GroupGraphView>(gg: &G, path: &[usize]) -> String {
    let ring = gg.leaders().ring();
    let mut out = String::new();
    out.push_str("digraph H {\n  rankdir=LR;\n  node [shape=circle, fontsize=10];\n");
    for i in 0..ring.len() {
        let on_path = path.contains(&i);
        let _ = writeln!(
            out,
            "  n{i} [label=\"{}\"{}];",
            short(ring.at(i)),
            if on_path { ", style=filled, fillcolor=lightblue" } else { "" }
        );
    }
    for (i, j) in topology_edges(gg) {
        let _ = writeln!(out, "  n{i} -> n{j} [dir=none, color=gray];");
    }
    // The search path on top.
    for pair in path.windows(2) {
        let _ = writeln!(out, "  n{} -> n{} [color=blue, penwidth=2];", pair[0], pair[1]);
    }
    out.push_str("}\n");
    out
}

/// DOT for the group graph `G` (right panel of Figure 1): one node per
/// group, red groups marked "B" as in the paper, dashed edges for the
/// all-to-all member links. `path` is a search path of leader-ring
/// indices.
pub fn render_group_graph<G: GroupGraphView>(gg: &G, path: &[usize]) -> String {
    let ring = gg.leaders().ring();
    let mut out = String::new();
    out.push_str("digraph G {\n  rankdir=LR;\n  node [shape=doublecircle, fontsize=10];\n");
    for i in 0..gg.len() {
        let id = ring.at(i);
        let red = gg.is_red(i);
        let size = gg.group_size(i);
        let _ = writeln!(
            out,
            "  g{i} [label=\"G_{}{}|{}|\"{}];",
            short(id),
            if red { " B" } else { "" },
            size,
            if red {
                ", style=filled, fillcolor=salmon"
            } else if path.contains(&i) {
                ", style=filled, fillcolor=lightblue"
            } else {
                ""
            }
        );
    }
    for (i, j) in topology_edges(gg) {
        // Dashed arrows: all-to-all links between (at least) the good
        // members of the two groups.
        let _ = writeln!(out, "  g{i} -> g{j} [dir=none, style=dashed, color=gray];");
    }
    for pair in path.windows(2) {
        let _ = writeln!(out, "  g{} -> g{} [color=blue, penwidth=2];", pair[0], pair[1]);
    }
    out.push_str("}\n");
    out
}

/// Both panels of Figure 1 for the search `(from, key)`.
pub fn render_figure1<G: GroupGraphView>(gg: &G, from: usize, key: Id) -> (String, String) {
    let route = gg.topology().route(from, key);
    (render_input_graph(gg, &route.hops), render_group_graph(gg, &route.hops))
}

/// The topology's edges as ring-index pairs, each undirected edge once,
/// in ring order.
fn topology_edges<G: GroupGraphView>(gg: &G) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for i in 0..gg.len() {
        for j in gg.topology().neighbor_indices(i) {
            if seen.insert((i.min(j), i.max(j))) {
                edges.push((i, j));
            }
        }
    }
    edges
}

fn short(id: Id) -> String {
    format!("{:.3}", id.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::graph::GroupGraph;
    use crate::params::Params;
    use crate::population::Population;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn tiny() -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::uniform(12, 2, &mut rng);
        build_initial_graph(
            pop,
            GraphKind::Chord,
            OracleFamily::new(1).h1,
            &Params::paper_defaults(),
        )
    }

    #[test]
    fn renders_contain_all_nodes_and_path() {
        let gg = tiny();
        let (h, g) = render_figure1(&gg, 0, Id::from_f64(0.5));
        for i in 0..gg.len() {
            assert!(h.contains(&format!("n{i} ")), "H panel missing node {i}");
            assert!(g.contains(&format!("g{i} ")), "G panel missing group {i}");
        }
        assert!(h.contains("penwidth=2"), "search path highlighted in H");
        assert!(g.contains("penwidth=2"), "search path highlighted in G");
        assert!(g.contains("style=dashed"), "all-to-all links dashed in G");
    }

    #[test]
    fn red_groups_marked_b() {
        let mut gg = tiny();
        gg.mark_confused(3);
        gg.recolor();
        let (_, g) = render_figure1(&gg, 0, Id::from_f64(0.9));
        assert!(g.contains(" B"), "red group must carry the paper's B marker");
        assert!(g.contains("salmon"));
    }

    #[test]
    fn dot_is_well_formed() {
        let gg = tiny();
        let (h, g) = render_figure1(&gg, 2, Id::from_f64(0.25));
        for s in [&h, &g] {
            assert!(s.starts_with("digraph"));
            assert!(s.trim_end().ends_with('}'));
            // Balanced braces.
            assert_eq!(s.matches('{').count(), s.matches('}').count());
        }
    }
}
