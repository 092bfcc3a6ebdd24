//! Property tests for the string flood: on random small systems and
//! adversaries the Lemma 12 bounds that do not depend on luck hold, and
//! the run is a pure function of its seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tg_core::{build_initial_graph, GroupGraph, GroupGraphView, Params, Population};
use tg_crypto::OracleFamily;
use tg_overlay::GraphKind;
use tg_pow::{run_string_protocol, StringAdversary, StringParams};

fn graph(n: usize, beta: f64, seed: u64) -> GroupGraph {
    let n_bad = (n as f64 * beta) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::uniform(n - n_bad, n_bad, &mut rng);
    build_initial_graph(
        pop,
        GraphKind::Chord,
        OracleFamily::new(seed).h1,
        &Params::paper_defaults(),
    )
}

fn adversary(tag: u8, strings: usize, release_frac: f64) -> StringAdversary {
    match tag % 3 {
        0 => StringAdversary::None,
        1 => StringAdversary::DelayedRelease { strings, release_frac, units: 1.0 + strings as f64 },
        _ => StringAdversary::ForcedRecords { strings, release_frac },
    }
}

/// Links between blue groups — a superset of the giant component's.
fn blue_links(gg: &GroupGraph) -> u64 {
    (0..gg.len())
        .filter(|&i| !gg.is_red(i))
        .flat_map(|i| gg.topology().neighbor_indices(i))
        .filter(|&u| !gg.is_red(u))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounds_hold_and_runs_repeat(
        n in 24usize..160,
        beta in 0.0f64..0.3,
        seed in any::<u64>(),
        tag in any::<u8>(),
        strings in 0usize..12,
        release_frac in 0.0f64..1.0,
    ) {
        let gg = graph(n, beta, seed);
        let params = StringParams::default();
        let adv = adversary(tag, strings, release_frac);
        let run = || run_string_protocol(&gg, &params, adv, &mut StdRng::seed_from_u64(seed ^ 1));
        let out = run();

        // Lemma 12 (ii): |R_w| ≤ ⌈d0·ln n⌉.
        let ln_n = (n as f64).ln();
        let rmax = (params.d0 * ln_n).ceil();
        prop_assert!(out.solution_set_sizes.max <= rmax, "max |R| {}", out.solution_set_sizes.max);

        // Lemma 12 (iii): a node forwards at most `cap` strings per bin,
        // each over its out-links.
        let num_bins = (params.bins_factor * (n as f64 * params.t_epoch as f64).ln()).ceil() as u64;
        let cap = (params.c0 * ln_n).ceil() as u64;
        prop_assert!(out.forwards <= blue_links(&gg) * num_bins * cap, "forwards {}", out.forwards);
        // A forward between non-empty groups is at least one message.
        prop_assert!(out.messages >= out.forwards);

        // Same seed, same run — field by field.
        let again = run();
        prop_assert_eq!(format!("{out:?}"), format!("{again:?}"));
    }
}
