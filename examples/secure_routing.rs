//! Message-level secure routing vs the no-groups strawman.
//!
//! ```text
//! cargo run --release --example secure_routing
//! ```
//!
//! Carries an actual payload hop by hop — every member of each group on
//! the route claims a value to every member of the next group, receivers
//! majority-filter, Byzantine members equivocate — and contrasts the
//! delivery rate with single-ID routing over the same population
//! (§I-A's "is this trivial?" argument).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_groups::ba::AdversaryMode;
use tiny_groups::baselines::measure_single_id_routing;
use tiny_groups::core::routing::secure_route_verified;
use tiny_groups::core::{build_initial_graph, GroupGraphView, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::idspace::Id;
use tiny_groups::overlay::GraphKind;
use tiny_groups::sim::Metrics;

fn main() {
    let seed = 11;
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::uniform(1900, 100, &mut rng); // β = 5%
    let params = Params::paper_defaults();
    let gg =
        build_initial_graph(pop.clone(), GraphKind::Chord, OracleFamily::new(seed).h1, &params);

    let payload = 0xCAFEBABEu64;
    let trials = 400;
    let mut delivered = 0usize;
    let mut sound = 0usize;
    let mut metrics = Metrics::new();
    for _ in 0..trials {
        let from = rng.gen_range(0..gg.len());
        let key = Id(rng.gen());
        let out = secure_route_verified(
            &gg,
            from,
            key,
            payload,
            AdversaryMode::Equivocate { seed: 5 },
            &mut metrics,
        );
        if out.correct {
            delivered += 1;
        }
        if out.abstraction_sound {
            sound += 1;
        }
    }
    println!(
        "tiny groups (|G| ≈ {:.0}), message-level all-to-all + majority filtering:",
        gg.mean_group_size()
    );
    println!(
        "  payload delivered intact: {}/{trials} ({:.1}%)",
        delivered,
        100.0 * delivered as f64 / trials as f64
    );
    println!("  group-level abstraction sound in {sound}/{trials} runs");
    println!("  messages per search: {:.0}", metrics.routing_msgs as f64 / trials as f64);

    // The strawman: same population, same topology, no groups.
    let graph = GraphKind::Chord.build(pop.ring().clone());
    let single = measure_single_id_routing(&pop, graph.as_ref(), trials, &mut rng);
    println!("\nsingle-ID routing over the same population:");
    println!(
        "  success: {:.1}% (predicted (1−β)^D = {:.1}%)",
        100.0 * single.success_rate,
        100.0 * single.predicted
    );
    println!("  — cheap ({:.1} messages ≈ hops) but broken; groups buy correctness with |G|² messages per hop.", single.mean_route_len);
}
