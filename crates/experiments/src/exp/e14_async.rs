//! **E14 — protocol degradation under an unreliable network** (the
//! actor-runtime fault sweep).
//!
//! Every other experiment drives the synchronous epoch drivers, where
//! each epoch's messages all arrive. This one runs the same dynamic
//! scenario through the **actor runtime** ([`tg_core::runtime`]): the
//! epoch step decomposed into per-node actors exchanging typed protocol
//! messages over an in-memory transport with seeded fault injection.
//! The sweep crosses **drop rate × partition length** at a fixed β and
//! measures what an unreliable network does to the paper's guarantees:
//!
//! * dropped *membership announcements* silently shrink the delivered
//!   good population — the adversary's insiders bypass the overlay
//!   (worst case), so the *effective* β each epoch rises with the drop
//!   rate and captured groups rise with it,
//! * dropped or partition-cut *routing probes* lose search responses,
//!   so dual-search success degrades even where the graphs are healthy,
//! * transient partitions cut cross-partition traffic for the first
//!   ticks of each phase window, compounding both effects.
//!
//! Faults are pure hash derivations per (epoch, phase, link, seq) — no
//! RNG stream is consumed — so every cell of the sweep shares the same
//! kernel randomness and the dropped-message set grows monotonically
//! with the drop rate. The `drop = 0, part = 0` row doubles as a live
//! conformance check: it must match the synchronous driver byte for
//! byte (pinned separately by the equivalence suites).
//!
//! Quick mode runs a 4 × 2 grid in CI; `--full` densifies the drop axis
//! and extends the partition axis.

use crate::args::Options;
use crate::table::{f, Table};
use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::{budget_for, ScenarioSpec, StrategySpec, TransportChoice};
use tg_sim::parallel_map;

/// β of every cell: the paper default — low enough that the
/// perfect-transport row stays mostly healthy, so the capture axis has
/// headroom to rise as drops inflate the effective adversary share.
pub const ASYNC_BETA: f64 = 0.08;

/// Good population per cell (quick mode). Small enough for CI smoke,
/// large enough that capture fractions are not single-group noise.
const QUICK_N_GOOD: usize = 260;

/// Good population per cell under `--full`.
const FULL_N_GOOD: usize = 400;

/// One cell of the fault grid: a drop rate, a partition length
/// (ticks of each phase window during which a seeded bisection of the
/// node space cuts cross-partition traffic), and the transport carrying
/// the messages.
#[derive(Clone, Copy, Debug)]
pub struct FaultCell {
    /// Per-message drop probability on the injected transport.
    pub drop: f64,
    /// Partition window length in transport ticks (0 = never).
    pub part: u64,
    /// Which transport implementation moves the bytes. Both apply the
    /// identical hash-derived fault fates, so matching mem/socket rows
    /// are numerically identical — the socket rows prove the real
    /// network path, not a different physics.
    pub transport: TransportChoice,
}

/// The sweep grid for the given options: drop rate × partition length,
/// on the `--transport` choice in quick mode and on **both** transports
/// under `--full` (the socket × drop × partition axes of the nightly
/// sweep).
pub fn grid(opts: &Options) -> Vec<FaultCell> {
    let (drops, parts, transports): (Vec<f64>, Vec<u64>, Vec<TransportChoice>) = if opts.full {
        (
            (0..=7).map(|i| i as f64 / 10.0).collect(),
            vec![0, 16, 32, 48],
            vec![TransportChoice::Mem, TransportChoice::Socket],
        )
    } else {
        (vec![0.0, 0.2, 0.4, 0.6], vec![0, 24], vec![opts.exec.transport])
    };
    let mut cells = Vec::new();
    for &transport in &transports {
        for &part in &parts {
            for &drop in &drops {
                cells.push(FaultCell { drop, part, transport });
            }
        }
    }
    cells
}

/// The scenario behind one cell. Every cell shares the same master
/// seed — the kernel streams and the per-message fault hashes are
/// identical across the grid, so the only thing that varies is the
/// drop threshold and the partition window, and the capture column is
/// monotone in the drop rate by construction.
pub fn cell_spec(cell: FaultCell, opts: &Options, seed: u64) -> ScenarioSpec {
    let n_good = if opts.full { FULL_N_GOOD } else { QUICK_N_GOOD };
    let spec = ScenarioSpec::new(n_good, seed)
        .budget(budget_for(ASYNC_BETA, n_good))
        .churn(0.15)
        .strategy(StrategySpec::Uniform)
        .searches(if opts.full { 300 } else { 120 })
        .drop_rate(cell.drop)
        .partition(cell.part);
    // The runtime and the transport are this sweep's own axes.
    opts.exec.install(spec).runtime(RuntimeChoice::Actor).transport(cell.transport)
}

/// Mean observables of one cell over its epoch run.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// The fault knobs that produced the row.
    pub cell: FaultCell,
    /// Mean captured-group fraction (groups without a good majority).
    pub capture: f64,
    /// Mean red fraction on side 0.
    pub frac_red: f64,
    /// Mean dual-search success.
    pub success_dual: f64,
    /// Mean key-space share of the adversarial IDs on the ring as
    /// *announced* — before the network drops good announcements. The
    /// no-PoW driver takes its census pre-network (see
    /// `DynamicDriver::step`), so this column does not move with the
    /// drop rate; the effective, post-network share is what drives
    /// `capture`.
    pub bad_share: f64,
    /// Mean late deliveries per epoch (messages that arrived after
    /// their phase-window deadline — `NetStats.late`, per-epoch delta).
    pub late: f64,
}

/// Run one cell: `trials` independent populations (trial seeds derived
/// from the master seed), `epochs` actor-runtime epochs each,
/// observables averaged over every epoch of every trial. Within one
/// trial the per-message fault hashes are fixed, so the dropped set
/// grows with the drop rate; averaging over trials smooths the
/// feedback noise of *which* identities survive.
///
/// Each trial goes through [`crate::exec::Exec::trial`], so with a
/// result store its observation stream — keyed by its scenario label
/// (which carries the fault knobs, population, and seed) plus the epoch
/// count — replays if stored and is published if simulated. The paired
/// count says how many trials ran live, so an interrupted full sweep
/// resumes mid-grid paying only for the cells it never finished.
pub fn run_cell(
    cell: FaultCell,
    opts: &Options,
    epochs: usize,
    trials: u64,
) -> (CellResult, usize) {
    let (mut capture, mut red, mut dual, mut bad_share, mut late) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut live = 0usize;
    for trial in 0..trials {
        let seed = tg_sim::derive_seed(opts.seed, "e14-trial", trial);
        let spec = cell_spec(cell, opts, seed);
        let (rows, ran) = opts.exec.trial(&spec, epochs);
        live += ran as usize;
        for r in &rows {
            capture += r.captured_groups as f64 / r.total_groups.max(1) as f64;
            red += r.frac_red_s0;
            dual += r.search_success_dual;
            bad_share += r.bad_share;
            late += r.late as f64;
        }
    }
    let m = (epochs.max(1) as u64 * trials.max(1)) as f64;
    let result = CellResult {
        cell,
        capture: capture / m,
        frac_red: red / m,
        success_dual: dual / m,
        bad_share: bad_share / m,
        late: late / m,
    };
    (result, live)
}

/// The full sweep: one row per (partition, drop) cell, cells in grid
/// order, runs fanned out over [`parallel_map`] (each cell is driven
/// entirely by the shared master seed, so parallelism cannot perturb
/// the rows).
pub fn run(opts: &Options) -> Table {
    let (epochs, trials) = if opts.full { (8, 4) } else { (6, 3) };
    let results = parallel_map(grid(opts), |cell| run_cell(cell, opts, epochs, trials).0);
    let mut table = Table::new(
        "e14_async",
        &[
            "drop",
            "part",
            "transport",
            "epochs",
            "capture",
            "frac_red_s0",
            "success_dual",
            "bad_share",
            "late",
        ],
    );
    for r in results {
        table.push(vec![
            f(r.cell.drop),
            r.cell.part.to_string(),
            r.cell.transport.label().to_string(),
            epochs.to_string(),
            f(r.capture),
            f(r.frac_red),
            f(r.success_dual),
            f(r.bad_share),
            f(r.late),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;

    fn quick_opts() -> Options {
        Options { quiet: true, ..Default::default() }
    }

    fn cell(drop: f64, part: u64) -> FaultCell {
        FaultCell { drop, part, transport: TransportChoice::Mem }
    }

    /// The acceptance property: at fixed β, capture rises monotonically
    /// with the drop rate along each partition row of the quick grid,
    /// and the lossy end is strictly worse than the perfect end.
    #[test]
    fn capture_rises_monotonically_with_drop_rate() {
        let opts = quick_opts();
        let epochs = 6;
        for &part in &[0u64, 24] {
            let row: Vec<CellResult> = [0.0, 0.2, 0.4, 0.6]
                .iter()
                .map(|&drop| run_cell(cell(drop, part), &opts, epochs, 3).0)
                .collect();
            for w in row.windows(2) {
                assert!(
                    w[1].capture >= w[0].capture - 1e-12,
                    "capture not monotone at part={part}: drop {} -> {} gave {} -> {}",
                    w[0].cell.drop,
                    w[1].cell.drop,
                    w[0].capture,
                    w[1].capture,
                );
            }
            assert!(
                row.last().unwrap().capture > row[0].capture,
                "lossy end should strictly exceed the perfect end at part={part}",
            );
        }
    }

    /// The late column reports the per-epoch mean of the transport's
    /// late-delivery counter: exactly zero over a perfect transport
    /// (nothing misses its phase deadline), and finite — not NaN — on
    /// every cell of the quick grid.
    #[test]
    fn late_column_is_zero_on_the_perfect_transport() {
        let opts = quick_opts();
        let perfect = run_cell(cell(0.0, 0), &opts, 3, 2).0;
        assert_eq!(perfect.late, 0.0, "no faults, no late deliveries");
        let lossy = run_cell(cell(0.4, 24), &opts, 3, 2).0;
        assert!(lossy.late.is_finite() && lossy.late >= 0.0);
    }

    /// Drops hurt search success: the heavily lossy cell answers fewer
    /// dual searches than the perfect-transport cell.
    #[test]
    fn drops_degrade_dual_search_success() {
        let opts = quick_opts();
        let perfect = run_cell(cell(0.0, 0), &opts, 4, 2).0;
        let lossy = run_cell(cell(0.6, 0), &opts, 4, 2).0;
        assert!(lossy.success_dual < perfect.success_dual);
    }

    /// The transport axis is observation-free: a socket cell reproduces
    /// its in-memory twin bit for bit (shared fault fates + identical
    /// phase schedules), faults included.
    #[test]
    fn socket_cells_match_mem_cells_bit_for_bit() {
        let opts = quick_opts();
        for (drop, part) in [(0.0, 0u64), (0.4, 24)] {
            let mem = run_cell(cell(drop, part), &opts, 3, 2).0;
            let socket = FaultCell { drop, part, transport: TransportChoice::Socket };
            let sock = run_cell(socket, &opts, 3, 2).0;
            for (got, want) in [
                (sock.capture, mem.capture),
                (sock.frac_red, mem.frac_red),
                (sock.success_dual, mem.success_dual),
                (sock.bad_share, mem.bad_share),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "drop={drop} part={part}");
            }
        }
    }

    /// The acceptance sweep on real sockets: capture stays monotone in
    /// the drop rate when the cells run over loopback TCP.
    #[test]
    fn socket_capture_rises_monotonically_with_drop_rate() {
        let opts = quick_opts();
        let row: Vec<CellResult> = [0.0, 0.3, 0.6]
            .iter()
            .map(|&drop| {
                run_cell(
                    FaultCell { drop, part: 24, transport: TransportChoice::Socket },
                    &opts,
                    4,
                    2,
                )
                .0
            })
            .collect();
        for w in row.windows(2) {
            assert!(
                w[1].capture >= w[0].capture - 1e-12,
                "socket capture not monotone: drop {} -> {} gave {} -> {}",
                w[0].cell.drop,
                w[1].cell.drop,
                w[0].capture,
                w[1].capture,
            );
        }
        assert!(row.last().unwrap().capture > row[0].capture);
    }

    /// The quick grid honors `--transport socket`: every cell runs on
    /// the socket transport and the table carries the axis column.
    #[test]
    fn quick_grid_uses_the_transport_option() {
        let socket = Exec { transport: TransportChoice::Socket, ..Exec::default() };
        let opts = Options { exec: socket, ..quick_opts() };
        let cells = grid(&opts);
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().all(|c| c.transport == TransportChoice::Socket));
        let full = Options { full: true, ..quick_opts() };
        let cells = grid(&full);
        assert_eq!(cells.len(), 64, "full grid sweeps both transports");
        assert_eq!(cells.iter().filter(|c| c.transport == TransportChoice::Socket).count(), 32);
    }

    /// The grid is deterministic: the same options produce the same
    /// table twice, including under the parallel fan-out.
    #[test]
    fn sweep_is_deterministic() {
        let opts = quick_opts();
        assert_eq!(run(&opts).to_csv(), run(&opts).to_csv());
    }

    /// Store round trip: a warm cell replays every trial from its
    /// stored stream (zero live trials) and reproduces the live
    /// result bit for bit — stored sweeps are resumable without any
    /// numeric drift.
    #[test]
    fn warm_cell_replays_bit_identically() {
        let dir = std::env::temp_dir().join(format!("tg-e14-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = tg_sim::ResultStore::open(&dir).unwrap();
        let stored = Exec { store: Some(store), ..Exec::default() };
        let opts = Options { exec: stored, ..quick_opts() };
        let cell = cell(0.4, 24);
        let (bare, bare_live) = run_cell(cell, &quick_opts(), 3, 2);
        assert_eq!(bare_live, 2, "without a store every trial is live");
        let (cold, cold_live) = run_cell(cell, &opts, 3, 2);
        assert_eq!(cold_live, 2, "cold pass simulates every trial");
        let (warm, warm_live) = run_cell(cell, &opts, 3, 2);
        assert_eq!(warm_live, 0, "warm pass replays every trial");
        for (got, want) in [
            (warm.capture, cold.capture),
            (warm.frac_red, cold.frac_red),
            (warm.success_dual, cold.success_dual),
            (warm.bad_share, cold.bad_share),
            (cold.capture, bare.capture),
            (cold.bad_share, bare.bad_share),
        ] {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
