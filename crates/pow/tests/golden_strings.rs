//! Golden snapshot of [`run_string_protocol`]: `{:?}` of the whole
//! `StringOutcome` *and the next `rng.gen::<u64>()`* after the call, so
//! both what the flood computes and how many draws it takes are pinned.
//! The flood's delivery order is observable (a bin's forward counter
//! caps what is forwarded in arrival order), so any rewrite of its data
//! structures must replay these bytes exactly.
//!
//! Static rows run on `build_initial_graph`; the two `arena` rows go
//! through `DynamicSystem::graphs().side(0)` after two churned epochs,
//! which covers the CSR `group_size`/`is_red` path the full system uses.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-pow --test golden_strings
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use tg_core::dynamic::{BuildMode, DynamicSystem, UniformProvider};
use tg_core::{build_initial_graph, GroupGraphView, Params, Population};
use tg_crypto::OracleFamily;
use tg_overlay::GraphKind;
use tg_pow::{run_string_protocol, StringAdversary, StringParams};

const ADVERSARIES: [(&str, StringAdversary); 4] = [
    ("none", StringAdversary::None),
    (
        "delayed@0.49",
        StringAdversary::DelayedRelease { strings: 6, release_frac: 0.49, units: 25.0 },
    ),
    ("records@0.49", StringAdversary::ForcedRecords { strings: 6, release_frac: 0.49 }),
    ("records@0.95", StringAdversary::ForcedRecords { strings: 6, release_frac: 0.95 }),
];

fn row<G: GroupGraphView>(
    out: &mut String,
    tag: &str,
    gg: &G,
    params: &StringParams,
    adv: StringAdversary,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = run_string_protocol(gg, params, adv, &mut rng);
    writeln!(out, "{tag} | {outcome:?} | next={}", rng.gen::<u64>()).expect("write to String");
}

#[test]
fn string_outcomes_match_golden() {
    let mut snapshot = String::new();
    let defaults = StringParams::default();
    // Starved constants (short phases, few forwards per bin, tiny
    // solution sets): Lemma 12 (i) fails, so `missing_pairs` — counted
    // with multiplicity over the rmax-prefix — is pinned at non-zero
    // values too.
    let starved = StringParams { dprime: 0.4, c0: 0.3, d0: 0.4, ..defaults };
    for n in [300usize, 700, 1200] {
        for n_bad in [0, n / 20] {
            for seed in 42..45u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let pop = Population::uniform(n - n_bad, n_bad, &mut rng);
                let gg = build_initial_graph(
                    pop,
                    GraphKind::Chord,
                    OracleFamily::new(seed).h1,
                    &Params::paper_defaults(),
                );
                for (label, adv) in ADVERSARIES {
                    let tag = format!("static n={n} bad={n_bad} seed={seed} adv={label}");
                    row(&mut snapshot, &tag, &gg, &defaults, adv, 1000 + seed);
                    if n == 700 && seed == 42 {
                        let tag = format!("starved n={n} bad={n_bad} seed={seed} adv={label}");
                        row(&mut snapshot, &tag, &gg, &starved, adv, 1000 + seed);
                    }
                }
            }
        }
    }

    let mut params = Params::paper_defaults();
    params.churn_rate = 0.15;
    params.attack_requests_per_id = 1;
    let mut provider = UniformProvider { n_good: 570, n_bad: 30 };
    let mut sys =
        DynamicSystem::new(params, GraphKind::Chord, BuildMode::DualGraph, &mut provider, 42);
    sys.set_searches_per_epoch(50);
    for _ in 0..2 {
        sys.advance_epoch(&mut provider);
    }
    let side0 = sys.graphs().side(0);
    for (label, adv) in [ADVERSARIES[0], ADVERSARIES[2]] {
        row(
            &mut snapshot,
            &format!("arena n=600 bad=30 epochs=2 adv={label}"),
            &side0,
            &defaults,
            adv,
            42,
        );
    }

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/strings_seed42.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, snapshot).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        snapshot, expected,
        "StringOutcome (or the RNG draw count) drifted from its golden snapshot; if the change \
         is intentional, regenerate with GOLDEN_REGEN=1 and commit the diff"
    );
}
