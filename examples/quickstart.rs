//! Quickstart: build a tiny-groups system, route securely, measure
//! robustness.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 2 000-ID system at `β = 5%` with `Θ(log log n)` groups over
//! Chord, runs a batch of searches with full message accounting, and
//! prints the Theorem-3 quantities.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::core::{
    build_initial_graph, measure_robustness, GroupGraphView, Params, Population,
};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;

fn main() {
    let seed = 42;
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. A population: 1 900 good IDs and 100 Byzantine ones (β = 5%),
    //    all u.a.r. on the unit ring — the placement §IV's proof-of-work
    //    enforces (see examples/pow_identity.rs for the minting side).
    let pop = Population::uniform(1900, 100, &mut rng);
    let n = pop.len();

    // 2. The group graph: one Θ(log log n)-size group per ID over a
    //    Chord input graph, membership assigned by the random oracle.
    let params = Params::paper_defaults();
    let fam = OracleFamily::new(seed);
    let gg = build_initial_graph(pop, GraphKind::Chord, fam.h1, &params);
    println!("n = {n} IDs, β = 5%");
    println!(
        "group size: {:.1} members (ln ln n = {:.2})",
        gg.mean_group_size(),
        (n as f64).ln().ln()
    );

    // 3. Robustness: sample searches from random groups to random keys.
    let rep = measure_robustness(&gg, &params, 2000, &mut rng);
    println!("groups with good majority: {:.2}%", 100.0 * rep.frac_good_majority);
    println!("red (bad ∪ confused) groups: {:.2}%", 100.0 * rep.frac_red);
    println!("search success rate: {:.2}%", 100.0 * rep.search_success);
    println!("mean groups per search: {:.1}", rep.mean_hops);
    println!("mean messages per search: {:.0} (all-to-all hops)", rep.mean_msgs);

    // 4. A single concrete search, end to end.
    let from = rng.gen_range(0..gg.len());
    let key = Id(rng.gen());
    let mut metrics = tiny_groups::sim::Metrics::new();
    let outcome = tiny_groups::core::search_path(&gg, from, key, &mut metrics);
    println!("\nsearch from group {from} for key {key}: {:?}", outcome);
}
