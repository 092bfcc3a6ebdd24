//! Golden snapshot of the epoch *graphs* — finer than the report golden
//! next door: after every epoch, per side, a SHA-256 over the group
//! sizes, member columns, captured slots, confusion flags and colors,
//! plus the epoch's `BuildStats` and `Metrics`. The bytes were written by
//! the per-group `Vec<GroupGraph>` epoch loop this workspace started
//! with, the commit before that loop was deleted; the one system that is
//! left must replay them. These populations are below
//! `FAN_OUT_MIN_IDS`, so they run serially; that a fanned-out epoch
//! matches a serial one is pinned by `arena::tests` and
//! `tests/kernel_equivalence.rs::fanned_out_epochs_match_serial_ones`.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-core --test golden_epoch_graphs
//! ```

use tg_core::dynamic::{
    BuildMode, DynamicSystem, GapFilling, IdentityProvider, StrategicProvider, UniformProvider,
};
use tg_core::{GroupGraphView, Params};
use tg_crypto::sha256::Sha256;
use tg_overlay::GraphKind;

/// (name, topology, build mode, attack requests per ID, churn, gap-filling
/// adversary instead of uniform IDs). The unit test
/// `arena::tests::two_pass_build_matches_the_reference_build` walks the
/// same six.
type Config = (&'static str, GraphKind, BuildMode, usize, f64, bool);

const CONFIGS: [Config; 6] = [
    ("chord-dual", GraphKind::Chord, BuildMode::DualGraph, 1, 0.1, false),
    ("d2b-dual", GraphKind::D2B, BuildMode::DualGraph, 1, 0.1, false),
    ("d2b-single", GraphKind::D2B, BuildMode::SingleGraph, 1, 0.1, false),
    ("attack0-churn0", GraphKind::D2B, BuildMode::DualGraph, 0, 0.0, false),
    ("attack4-churn0.2", GraphKind::Chord, BuildMode::DualGraph, 4, 0.2, false),
    ("gap-filling", GraphKind::D2B, BuildMode::DualGraph, 1, 0.15, true),
];

fn side_digest<G: GroupGraphView>(g: &G) -> String {
    let mut h = Sha256::new();
    for i in 0..g.len() {
        h.update(&(g.group_members(i).len() as u32).to_le_bytes());
    }
    for i in 0..g.len() {
        for &m in g.group_members(i) {
            h.update(&m.to_le_bytes());
        }
    }
    for i in 0..g.len() {
        h.update(&g.captured_slots(i).to_le_bytes());
    }
    for i in 0..g.len() {
        h.update(&[g.is_confused(i) as u8]);
    }
    for i in 0..g.len() {
        h.update(&[g.is_red(i) as u8]);
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn snapshot() -> String {
    let mut out = String::new();
    for &(name, kind, mode, attack, churn, gap_filling) in &CONFIGS {
        let mut params = Params::paper_defaults();
        params.attack_requests_per_id = attack;
        params.churn_rate = churn;
        let mut provider: Box<dyn IdentityProvider> = if gap_filling {
            Box::new(StrategicProvider::new(220, 24, GapFilling))
        } else {
            Box::new(UniformProvider { n_good: 220, n_bad: 12 })
        };
        let mut sys = DynamicSystem::new(params, kind, mode, provider.as_mut(), 42);
        sys.set_searches_per_epoch(50);
        out.push_str(&format!("# {name}\n"));
        for _ in 0..3 {
            let r = sys.advance_epoch(provider.as_mut());
            for (s, side) in sys.graphs().iter().enumerate() {
                out.push_str(&format!(
                    "epoch {} side {s} groups {} sha256 {}\n",
                    r.epoch,
                    side.len(),
                    side_digest(&side)
                ));
            }
            out.push_str(&format!("epoch {} {:?}\n", r.epoch, r.build));
            out.push_str(&format!("epoch {} {:?}\n", r.epoch, r.metrics));
        }
    }
    out
}

#[test]
fn epoch_graphs_match_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/epoch_graphs_seed42.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, snapshot()).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        snapshot(),
        expected,
        "epoch graphs drifted from their golden snapshot; if the change is intentional, \
         regenerate with GOLDEN_REGEN=1 and commit the diff"
    );
}
