//! Golden snapshot of the raw `EpochReport` structure — all fields,
//! full float precision (Debug prints shortest-roundtrip), including
//! the construction counters and message metrics the experiment CSVs
//! round away. This pins the dynamic-layer *implementation* (the bytes
//! predate the scenario API and must keep reproducing), so it lives
//! with the impl rather than in the experiments crate, whose suites
//! construct systems only through `ScenarioSpec`/`EpochDriver`.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-core --test golden_epoch_report
//! ```

use tg_core::dynamic::{BuildMode, DynamicSystem, UniformProvider};
use tg_core::Params;
use tg_overlay::GraphKind;

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
        snapshot.push_str(&format!("{r:#?}\n"));
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
        "EpochReport drifted from its golden snapshot; if the change is intentional, regenerate \
         with GOLDEN_REGEN=1 and commit the diff"
    );
}
