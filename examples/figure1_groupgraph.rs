//! Regenerate Figure 1: the input graph and group graph panels.
//!
//! ```text
//! cargo run --release --example figure1_groupgraph
//! ```
//!
//! Prints both DOT panels (input graph `H` with a highlighted search,
//! group graph `G` with red groups marked "B" and dashed all-to-all
//! links) to stdout and a one-line summary to stderr, mirroring the
//! paper's Figure 1. It writes no file: `run_all --only figure1` is what
//! writes `figure1_h.dot` and `figure1_g.dot` (render with
//! `dot -Tpng results/figure1_h.dot -o figure1_h.png`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::core::render::render_figure1;
use tiny_groups::core::{build_initial_graph, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;

fn main() {
    let seed = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::uniform(12, 2, &mut rng);
    let gg = build_initial_graph(
        pop,
        GraphKind::Chord,
        OracleFamily::new(seed).h1,
        &Params::paper_defaults(),
    );

    // A search from the first blue good leader, like the paper's w → y.
    let from = (0..gg.len())
        .find(|&i| !gg.leaders.is_bad(i) && !gg.is_red(i))
        .expect("some blue group exists at n=14, β≈14%");
    let key = Id(rng.gen());
    let (h_dot, g_dot) = render_figure1(&gg, from, key);

    println!("// ===== Figure 1, left panel: input graph H =====");
    println!("{h_dot}");
    println!("// ===== Figure 1, right panel: group graph G =====");
    println!("// (red groups carry the paper's \"B\" marker; dashed edges are");
    println!("//  all-to-all links between good members of neighboring groups)");
    println!("{g_dot}");

    let red = (0..gg.len()).filter(|&i| gg.is_red(i)).count();
    eprintln!("n = {} groups, {} red; search initiated at group {from}", gg.len(), red);
}
