//! Golden snapshot of the §III fields of the per-epoch record
//! (`EpochObservation`) — full float precision (Debug prints
//! shortest-roundtrip), including the construction counters and message
//! metrics the experiment CSVs round away. The snapshot was recorded
//! when these eleven fields formed a struct of their own, and it keeps
//! that struct's name and field order (see [`Section3`]). This pins the
//! dynamic-layer *implementation* (the bytes predate the scenario API
//! and must keep reproducing), so it lives with the impl rather than in
//! the experiments crate, whose suites construct systems only through
//! `ScenarioSpec`/`EpochDriver`.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-core --test golden_epoch_report
//! ```

use std::fmt;
use tg_core::dynamic::{BuildMode, DynamicSystem, EpochObservation, UniformProvider};
use tg_core::Params;
use tg_overlay::GraphKind;

/// Debug-prints the record's §III fields in the snapshot's recorded
/// format.
struct Section3<'a>(&'a EpochObservation);

impl fmt::Debug for Section3<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        f.debug_struct("EpochReport")
            .field("epoch", &o.epoch)
            .field("frac_red", &o.frac_red)
            .field("frac_good_majority", &o.frac_good_majority)
            .field("frac_confused", &o.frac_confused)
            .field("frac_paper_invariant", &o.frac_paper_invariant)
            .field("search_success_single", &o.search_success_single)
            .field("search_success_dual", &o.search_success_dual)
            .field("build", &o.build)
            .field("mean_memberships", &o.mean_memberships)
            .field("max_memberships", &o.max_memberships)
            .field("metrics", &o.metrics)
            .finish()
    }
}

#[test]
fn epoch_report_matches_golden() {
    let mut params = Params::paper_defaults();
    params.churn_rate = 0.1;
    params.attack_requests_per_id = 1;
    let mut provider = UniformProvider { n_good: 380, n_bad: 20 };
    let mut sys =
        DynamicSystem::new(params, GraphKind::D2B, BuildMode::DualGraph, &mut provider, 42);
    sys.set_searches_per_epoch(200);
    let mut snapshot = String::new();
    for _ in 0..2 {
        let r = sys.advance_epoch(&mut provider);
        snapshot.push_str(&format!("{:#?}\n", Section3(&r)));
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/epoch_report_seed42.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, snapshot).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        snapshot, expected,
        "the record's §III fields drifted from their golden snapshot; if the change is \
         intentional, regenerate with GOLDEN_REGEN=1 and commit the diff"
    );
}
