//! Groups as reliable processors: in-group Byzantine agreement.
//!
//! ```text
//! cargo run --release --example group_computation
//! ```
//!
//! The paper's second pillar (§I): every group executes tasks via
//! Byzantine agreement, so a good-majority group acts like one reliable
//! machine. This example takes real groups out of a built group graph
//! and runs Phase King and EIG inside them, with the group's actual
//! Byzantine members misbehaving — and shows the Corollary-1 message
//! contrast against `Θ(log n)`-size groups.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tiny_groups::ba::{eig_agreement, phase_king, AdversaryMode};
use tiny_groups::core::{build_initial_graph, GroupGraphView, Params, Population};
use tiny_groups::crypto::OracleFamily;
use tiny_groups::overlay::GraphKind;

fn group_masks(gg: &tiny_groups::core::GroupGraph, gi: usize) -> (Vec<u64>, Vec<bool>) {
    let bad: Vec<bool> = gg.group_members(gi).iter().map(|&m| gg.pool.is_bad(m as usize)).collect();
    // Task: agree on a checkpoint value; good members propose 7.
    let inputs: Vec<u64> = bad.iter().map(|&b| if b { 999 } else { 7 }).collect();
    (inputs, bad)
}

fn main() {
    let seed = 5;
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::uniform(1900, 100, &mut rng);
    let fam = OracleFamily::new(seed);

    let tiny =
        build_initial_graph(pop.clone(), GraphKind::Chord, fam.h1, &Params::paper_defaults());
    let classic = build_initial_graph(
        pop,
        GraphKind::Chord,
        fam.h1,
        &Params::paper_defaults().with_classic_groups(1.5),
    );

    for (label, gg) in [("tiny Θ(log log n)", &tiny), ("classic Θ(log n)", &classic)] {
        // Pick a group with at least one Byzantine member.
        let gi = (0..gg.len())
            .find(|&i| gg.group_bad_count(i) >= 1 && gg.has_good_majority(i))
            .expect("some infiltrated-but-good group exists");
        let (inputs, bad) = group_masks(gg, gi);
        let m = inputs.len();
        let t = bad.iter().filter(|&&b| b).count();
        println!("== {label} groups: G_{gi} has {m} members, {t} Byzantine ==");

        let pk = phase_king(&inputs, &bad, AdversaryMode::Equivocate { seed: 1 });
        println!(
            "  Phase King : decided {:?} in {} msgs, {} rounds",
            pk.agreed_value(),
            pk.msgs,
            pk.rounds
        );

        if m <= 12 && t <= 2 {
            let eig = eig_agreement(&inputs, &bad, AdversaryMode::Collude { value: 999 });
            println!(
                "  EIG        : decided {:?} in {} msgs, {} rounds",
                eig.agreed_value(),
                eig.msgs,
                eig.rounds
            );
        } else {
            println!(
                "  EIG        : skipped (exponential relay size at |G| = {m} — the log n problem!)"
            );
        }

        println!();
    }
    println!("The per-operation message gap above is Corollary 1: group");
    println!("communication scales with |G|², so shrinking |G| from Θ(log n)");
    println!("to Θ(log log n) cuts every group task's cost quadratically.");
}
