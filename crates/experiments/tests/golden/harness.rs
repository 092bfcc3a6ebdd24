//! The one golden-replay harness: pinned-seed runs of the experiments
//! compared byte-for-byte against the committed snapshots in this
//! directory, through every row of the configuration matrix.
//!
//! Every experiment is a pure function of its seed (labelled RNG
//! streams, order-preserving parallel sweeps, no iteration-order
//! dependence), so refactors to the sim kernels must reproduce these
//! files *exactly* — a silent numerical drift in construction, routing,
//! or measurement fails here even when every statistical bound still
//! holds. The snapshots were written by the [`BASELINE`] row (no
//! network, unchecked); every other row of the matrix turns one or more
//! axes that are observation-free by contract, so it must reproduce the
//! same bytes:
//!
//! * `runtime=actor` — a perfect transport delivers everything, in send
//!   order, drawing no RNG,
//! * `transport=socket` — loopback TCP applies the same pure fault
//!   fates as the in-memory transport, and the adaptive phase window
//!   sits at its zero-latency fixpoint,
//! * `--check-invariants` — the `tg_verify` checker probes from its own
//!   labelled streams (and runs strict: a violation panics with its
//!   reproduction line, so a green checked row is also zero violations).
//!
//! `e14_async` is the one snapshot with faults on (drops and a
//! partition): it pins `DynamicDriver` with a lossy net. Its CSV carries
//! a `transport` column, so it replays on the `mem` rows only.
//!
//! The test binaries `golden.rs`, `golden_actor.rs`, `golden_socket.rs`
//! and `golden_checked.rs` hold one named test per (experiment × row)
//! and nothing else — a failure names the corner
//! that drifted, and the test names are stable across PRs.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-experiments --test golden
//! ```
//!
//! and commit the diff alongside the change that explains it. Only the
//! baseline row writes; the others skip while `GOLDEN_REGEN` is set.

// Each test binary drives a subset of the rows and experiments.
#![allow(dead_code)]

use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::TransportChoice;
use tg_experiments::exp::{
    e10_adversaries, e11_frontier, e12_refine, e14_async, e1_robustness, e4_epochs, e7_strings,
};
use tg_experiments::{Exec, Options};

/// One corner of the runtime × transport × checked matrix.
pub struct Row {
    pub name: &'static str,
    pub runtime: RuntimeChoice,
    pub transport: TransportChoice,
    pub check_invariants: bool,
}

use RuntimeChoice::{Actor, Sync};
use TransportChoice::{Mem, Socket};

const fn row(
    name: &'static str,
    runtime: RuntimeChoice,
    transport: TransportChoice,
    check_invariants: bool,
) -> Row {
    Row { name, runtime, transport, check_invariants }
}

// The matrix. Sockets need the actor runtime, so one loopback-TCP row
// per checked setting covers the transport axis.

/// The row that wrote the snapshots (and the only one that rewrites
/// them).
pub const BASELINE: Row = row("baseline", Sync, Mem, false);
pub const ACTOR: Row = row("actor", Actor, Mem, false);
pub const SOCKET: Row = row("socket", Actor, Socket, false);
pub const CHECKED: [Row; 3] = [
    row("checked", Sync, Mem, true),
    row("checked-actor", Actor, Mem, true),
    row("checked-socket", Actor, Socket, true),
];

fn options(row: &Row) -> Options {
    let exec = Exec {
        runtime: row.runtime,
        transport: row.transport,
        check_invariants: row.check_invariants,
        ..Exec::default()
    };
    Options { seed: 42, out_dir: "/tmp".into(), quiet: true, exec, ..Options::default() }
}

/// What one pinned experiment produced: snapshot file name → bytes.
type Artefacts = Vec<(&'static str, String)>;

/// The static robustness sweep. It never steps an epoch, so on every
/// non-baseline row it pins that the knobs leak nowhere outside the
/// epoch path.
pub fn e1(o: &Options) -> Artefacts {
    vec![("e1_robustness.csv", e1_robustness::run(o).to_csv())]
}

/// Honest dynamic epochs + ablations.
pub fn e4(o: &Options) -> Artefacts {
    vec![("e4_epochs.csv", e4_epochs::run(o).to_csv())]
}

/// The §IV-B string flood under all six adversary timings, on a static
/// graph. Like `e1` it never steps an epoch (baseline row only); it pins
/// the flood's delivery order through `forwards_per_node` and `messages`.
pub fn e7(o: &Options) -> Artefacts {
    vec![("e7_strings.csv", e7_strings::run(o).to_csv())]
}

/// Every (strategy × pipeline) cell plus the §IV-B hoard table. Cells
/// run inside `parallel_map`, so the socket rows also pin that
/// concurrent socket scenarios cannot corrupt each other's frames.
pub fn e10(o: &Options) -> Artefacts {
    let tables = e10_adversaries::run(o);
    vec![("e10_adversaries.csv", tables[0].to_csv()), ("e10_hoard.csv", tables[1].to_csv())]
}

/// The full 3×3 (β × d₂) frontier grid over the strategic `FullSystem`
/// pipeline: cells, frontier map, text heatmaps.
pub fn e11(o: &Options) -> Artefacts {
    let out = e11_frontier::run(o);
    vec![
        ("e11_frontier.csv", out.cells.to_csv()),
        ("e11_frontier_map.csv", out.frontier.to_csv()),
        ("e11_frontier_heatmap.txt", out.heatmaps),
    ]
}

/// The adaptive refinement. Beyond numerical drift this freezes the
/// *trajectory*: bisection order, bracket bookkeeping, extra-seed
/// policy.
pub fn e12(o: &Options) -> Artefacts {
    let out = e12_refine::run(o);
    vec![
        ("e12_refine_cells.csv", out.cells.to_csv()),
        ("e12_refine_map.csv", out.frontier.to_csv()),
        ("e12_refine_cost.csv", out.cost.to_csv()),
    ]
}

/// The quick drop × partition fault grid, `mem` rows only (see the
/// module docs).
pub fn e14(o: &Options) -> Artefacts {
    vec![("e14_async.csv", e14_async::run(o).to_csv())]
}

/// Run `experiment` on `row` and compare every artefact with its
/// committed snapshot (or, on the baseline row under `GOLDEN_REGEN`,
/// rewrite the snapshots).
pub fn replay(experiment: fn(&Options) -> Artefacts, row: &Row) {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    if regen && row.name != BASELINE.name {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (file, actual) in experiment(&options(row)) {
        let path = dir.join(file);
        if regen {
            std::fs::write(&path, actual).expect("write golden file");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {file} ({e}); run the baseline row with GOLDEN_REGEN=1")
        });
        assert_eq!(
            actual,
            expected,
            "{file} drifted from its golden snapshot on row `{}` (runtime={}, transport={}, \
             checked={}). On the baseline row, if the change is intentional, \
             regenerate with GOLDEN_REGEN=1 and commit the diff; on any other row that axis \
             leaked into the observations — fix it, do not regenerate",
            row.name,
            row.runtime.label(),
            row.transport.label(),
            row.check_invariants,
        );
    }
}
