//! **E13 — epoch throughput at scale** (the million-identity sweep).
//!
//! Every other experiment asks *what* the reconstructed system computes;
//! this one asks *how fast* the epoch hot path turns identities into
//! group graphs: a ladder of population rungs drives the honest dynamic
//! scenario and measures wall clock, epochs/second and
//! identities/second per rung. The epoch picks its schedule from its
//! size ([`tg_core::dynamic::kernel`]): rungs below `FAN_OUT_MIN_IDS`
//! identities run on the calling thread, the rest fan their searches,
//! attack pass and measurements out over worker threads. Quick mode
//! climbs from 300 to 5 000 identities, across that size, so the CI
//! smoke step stays in seconds; `--full` climbs to the titular
//! 10⁶-identity rung.

use std::time::Instant;

use crate::args::Options;
use crate::exec::Exec;
use crate::table::{f, Table};
use tg_core::scenario::{budget_for, ScenarioSpec};
use tg_overlay::GraphKind;

/// β of every throughput rung (the paper default; the budget rides
/// along as `round(β/(1−β)·n_good)` so rung totals come out round).
pub const SCALE_BETA: f64 = 0.05;

/// Robustness searches per epoch on the throughput rungs — enough to
/// keep the observation pipeline honest, few enough that the timing is
/// the kernel's, not the sampler's.
const SCALE_SEARCHES: usize = 16;

/// One ladder rung: a population size for a few epochs.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Good identities per epoch (`n_bad` derives from [`SCALE_BETA`]).
    pub n_good: usize,
    /// Timed epochs (the initial build is timed separately).
    pub epochs: usize,
}

impl Rung {
    /// Total identities per epoch (good + β-derived adversary budget).
    pub fn n_total(&self) -> usize {
        self.n_good + budget_for(SCALE_BETA, self.n_good)
    }
}

/// The ladder for the given options. Quick mode puts one small rung on
/// each side of the epoch's fan-out size (CI smoke); `--full` climbs to the
/// 10⁶-identity rung (`n_good = 950 000` + 50 000 adversarial = 10⁶
/// exactly).
pub fn rungs(opts: &Options) -> Vec<Rung> {
    let rung = |n_good, epochs| Rung { n_good, epochs };
    if opts.full {
        vec![rung(9_500, 3), rung(95_000, 2), rung(285_000, 2), rung(950_000, 2)]
    } else {
        vec![rung(285, 3), rung(950, 3), rung(1_900, 3), rung(4_750, 2)]
    }
}

/// One measured rung: the configuration plus its wall-clock split.
#[derive(Clone, Copy, Debug)]
pub struct RungResult {
    /// The rung that ran.
    pub rung: Rung,
    /// Wall clock of the initial system build, milliseconds.
    pub build_ms: f64,
    /// Wall clock of the timed epoch loop, milliseconds.
    pub wall_ms: f64,
}

impl RungResult {
    /// Simulated epochs per second of the timed loop.
    pub fn epochs_per_sec(&self) -> f64 {
        self.rung.epochs as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// Identities processed per second: every epoch reconstructs the
    /// whole population, so the rate is `n_total · epochs / wall`.
    pub fn identities_per_sec(&self) -> f64 {
        (self.rung.n_total() * self.rung.epochs) as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// Mean wall milliseconds per simulated epoch.
    pub fn ms_per_epoch(&self) -> f64 {
        self.wall_ms / self.rung.epochs.max(1) as f64
    }
}

/// The scenario one rung drives: the honest dynamic system over D2B
/// (the paper's expander family — route lengths stress the kernel more
/// than Chord's).
pub fn rung_spec(rung: &Rung, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(rung.n_good, seed)
        .beta(SCALE_BETA)
        .churn(0.1)
        .attack_requests(0)
        .topology(GraphKind::D2B)
        .searches(SCALE_SEARCHES)
}

/// Store key of one rung's timing record: the rung's scenario label
/// (which pins population and seed) plus its epoch
/// count, under an `e13` tag so timing records never collide with
/// observation streams.
fn rung_store_key(rung: &Rung, seed: u64) -> String {
    format!("e13;{};epochs={}", rung_spec(rung, seed).label(), rung.epochs)
}

/// Time every rung, sequentially (each rung's epoch loop parallelizes
/// internally; running rungs back to back keeps the clocks honest),
/// consulting `exec`'s result store — if it has one — so an interrupted
/// ladder resumes mid-way: rungs whose timing record is already stored
/// are replayed (the paired flag is `true`), the rest run live and
/// publish their record. Timing records use the `t1` line codec
/// (`t1,<build_ms>,<wall_ms>`, floats via `Display` for exactness).
pub fn measure(rungs: &[Rung], seed: u64, exec: &Exec) -> Vec<(RungResult, bool)> {
    rungs
        .iter()
        .map(|&rung| {
            let key = rung_store_key(&rung, seed);
            if let Some(records) = exec.stored(&key) {
                let rec = records.first().map(String::as_str).unwrap_or("");
                let parsed: Option<(f64, f64)> = rec.strip_prefix("t1,").and_then(|body| {
                    let (b, w) = body.split_once(',')?;
                    Some((b.parse().ok()?, w.parse().ok()?))
                });
                if let Some((build_ms, wall_ms)) = parsed {
                    return (RungResult { rung, build_ms, wall_ms }, true);
                }
                eprintln!("warning: unreadable timing record for `{key}`; re-timing");
            }
            let spec = rung_spec(&rung, seed);
            let t0 = Instant::now();
            let mut driver = exec.driver(&spec);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            driver.run(rung.epochs);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            exec.publish(&key, || vec![format!("t1,{build_ms},{wall_ms}")]);
            (RungResult { rung, build_ms, wall_ms }, false)
        })
        .collect()
}

/// Run E13: time the ladder and return the throughput table.
pub fn run(opts: &Options) -> Table {
    let timed = measure(&rungs(opts), opts.seed, &opts.exec);
    let mut table = Table::new(
        "e13_scale",
        &[
            "n_identities",
            "epochs",
            "source",
            "build_ms",
            "wall_ms",
            "ms_per_epoch",
            "epochs_per_sec",
            "identities_per_sec",
        ],
    );
    for (r, cached) in &timed {
        table.push(vec![
            r.rung.n_total().to_string(),
            r.rung.epochs.to_string(),
            if *cached { "store" } else { "live" }.to_string(),
            f(r.build_ms),
            f(r.wall_ms),
            f(r.ms_per_epoch()),
            f(r.epochs_per_sec()),
            f(r.identities_per_sec()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_core::dynamic::kernel::FAN_OUT_MIN_IDS;

    fn opts(full: bool) -> Options {
        Options { full, quiet: true, ..Options::default() }
    }

    /// Quick mode stays CI-sized and pairs a serial rung with fanned-out
    /// ones, so the table always carries the contrast across
    /// [`FAN_OUT_MIN_IDS`].
    #[test]
    fn quick_ladder_is_paired_and_small() {
        let ladder = rungs(&opts(false));
        assert!(ladder.iter().all(|r| r.n_total() <= 10_000), "quick rungs stay CI-sized");
        assert!(ladder.iter().any(|r| r.n_total() < FAN_OUT_MIN_IDS), "no serial rung");
        assert!(ladder.iter().any(|r| r.n_total() >= FAN_OUT_MIN_IDS), "no fanned-out rung");
    }

    /// `--full` tops out at exactly the titular million identities.
    #[test]
    fn full_ladder_reaches_one_million_identities() {
        let ladder = rungs(&opts(true));
        let top = ladder.iter().max_by_key(|r| r.n_total()).expect("non-empty ladder");
        assert_eq!(top.n_total(), 1_000_000);
    }

    /// A warm ladder replays every stored timing record instead of
    /// re-timing — the resumable-mid-ladder property: a partial cold
    /// pass leaves records the next pass skips.
    #[test]
    fn stored_ladder_resumes_without_retiming() {
        let dir = std::env::temp_dir().join(format!("tg-e13-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec =
            Exec { store: Some(tg_sim::ResultStore::open(&dir).unwrap()), ..Exec::default() };
        let ladder = [Rung { n_good: 380, epochs: 2 }, Rung { n_good: 400, epochs: 2 }];
        // Cold half-ladder: only the first rung gets recorded.
        let cold = measure(&ladder[..1], 42, &exec);
        assert!(cold.iter().all(|(_, cached)| !cached), "first pass is all live");
        // Resumed full ladder: rung 0 replays, rung 1 runs live.
        let warm = measure(&ladder, 42, &exec);
        assert!(warm[0].1, "recorded rung is replayed");
        assert!(!warm[1].1, "new rung runs live");
        assert_eq!(warm[0].0.build_ms, cold[0].0.build_ms);
        assert_eq!(warm[0].0.wall_ms, cold[0].0.wall_ms);
    }

    /// A miniature rung actually runs through the measurement path and
    /// produces positive, consistent rates.
    #[test]
    fn measurement_produces_positive_rates() {
        let ladder = [Rung { n_good: 380, epochs: 2 }];
        let results = measure(&ladder, 42, &Exec::default());
        assert_eq!(results.len(), 1);
        let (r, cached) = &results[0];
        assert!(!cached, "no store, nothing to replay");
        assert!(r.wall_ms > 0.0 && r.build_ms > 0.0);
        assert!(r.epochs_per_sec() > 0.0);
        let ratio = r.identities_per_sec() / r.epochs_per_sec();
        assert!(
            (ratio - r.rung.n_total() as f64).abs() < 1e-6,
            "identity rate is epoch rate × population"
        );
    }
}
