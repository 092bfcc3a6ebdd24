//! Driving the program under test: one trial, one round slice.
//!
//! Everything here goes through the surface the ROADMAP keeps stable —
//! `ScenarioSpec::parse` → `tg_pow::scenario::build` →
//! `EpochDriver::step` → `ObsRow::encode_line` (and, for sweep cells,
//! `ResultStore::get`/`put`) — and times those calls from outside.

use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{labels, Shape, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use tg_core::scenario::{Defense, EpochDriver, EpochObservation, ObsRow, ScenarioSpec};
use tg_crypto::sha256;
use tg_sim::{parallel_map, ResultStore};
use tg_verify::CheckedDriver;

/// Exact work counts read off `EpochObservation.{build, metrics}` at
/// the step boundary. They repeat bit-for-bit between runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub steps: u64,
    pub ids: u64,
    pub member_slots: u64,
    pub links_required: u64,
    pub links_failed: u64,
    pub searches: u64,
    pub routing_msgs: u64,
    pub hops: u64,
    pub captured_frac_sum: f64,
    pub minted_good: u64,
    /// `tg_verify` violations (checked trials only; reported, never a
    /// failure — the n = 300 cells sit above the paper's thresholds).
    pub violations: u64,
}

impl Counts {
    fn add_step(&mut self, o: &EpochObservation, spec: &ScenarioSpec) {
        self.steps += 1;
        self.ids += (o.minted_good.unwrap_or(spec.n_good) + o.bad_ids) as u64;
        self.member_slots += o.build.member_slots;
        self.links_required += o.build.links_required;
        self.links_failed += o.build.links_failed;
        self.searches += o.metrics.searches;
        self.routing_msgs += o.metrics.routing_msgs;
        self.hops += o.metrics.hops;
        self.captured_frac_sum += o.captured_frac();
        self.minted_good += o.minted_good.unwrap_or(0) as u64;
    }

    pub fn merge(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.ids += o.ids;
        self.member_slots += o.member_slots;
        self.links_required += o.links_required;
        self.links_failed += o.links_failed;
        self.searches += o.searches;
        self.routing_msgs += o.routing_msgs;
        self.hops += o.hops;
        self.captured_frac_sum += o.captured_frac_sum;
        self.minted_good += o.minted_good;
        self.violations += o.violations;
    }
}

/// What one trial produced and cost.
#[derive(Debug, Default)]
pub struct TrialOut {
    /// Whole trial, seconds.
    pub wall_s: f64,
    /// Its `scenario.parse` + `scenario.build` part.
    pub setup_s: f64,
    /// One entry per completed `driver.step`.
    pub step_ms: Vec<f64>,
    /// The trial's observation lines (`ObsRow::encode_line`).
    pub lines: Vec<String>,
    pub counts: Counts,
    /// Steps that did not complete or broke a sanity check.
    pub failed_steps: usize,
    pub errors: Vec<String>,
}

/// What a trial runs against besides the driver.
#[derive(Clone, Copy, Default)]
pub struct TrialEnv<'a> {
    /// Consult and publish to this store, as a sweep cell does.
    pub store: Option<&'a ResultStore>,
    /// Wrap the driver in a non-strict `tg_verify::CheckedDriver`.
    pub checked: bool,
}

/// The content address a sweep cell is stored under (the
/// `frontier::trial_store_key` convention).
pub fn store_key(label: &str, epochs: usize) -> String {
    format!("{label};epochs={epochs}")
}

/// Run one trial of `epochs` epochs of `label`. Never panics: a build
/// error, a store error or a caught panic marks the steps it cost as
/// failed and says why.
pub fn run_trial(label: &str, epochs: usize, env: TrialEnv<'_>, tr: &mut Tracer) -> TrialOut {
    let mut out = TrialOut::default();
    let started = Instant::now();
    let depth = tr.open("trial");
    let body = catch_unwind(AssertUnwindSafe(|| trial_body(label, epochs, env, tr, &mut out)));
    tr.close(depth);
    out.wall_s = started.elapsed().as_secs_f64();
    match body {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.errors.push(e),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            out.errors.push(format!("panic: {msg}"));
        }
    }
    if !out.errors.is_empty() {
        // Whatever did not complete cleanly counts as failed.
        out.failed_steps = out.failed_steps.max(epochs - out.step_ms.len()).max(1);
        for e in &out.errors {
            eprintln!("FAILED `{label}`: {e}");
        }
    }
    out
}

fn trial_body(
    label: &str,
    epochs: usize,
    env: TrialEnv<'_>,
    tr: &mut Tracer,
    out: &mut TrialOut,
) -> Result<(), String> {
    let key = store_key(label, epochs);
    if let Some(store) = env.store {
        let (hit, _) = tr.time("store.get_miss", 1, || store.get(&key));
        if hit.map_err(|e| e.to_string())?.is_some() {
            return Err("store already holds this cell (expected a miss)".to_string());
        }
    }
    let (spec, t_parse) = tr.time("scenario.parse", 1, || ScenarioSpec::parse(label));
    let spec = spec.map_err(|e| e.to_string())?;
    let (driver, t_build) = tr.time("scenario.build", 1, || tg_pow::scenario::build(&spec));
    let driver = driver.map_err(|e| e.to_string())?;
    out.setup_s = t_parse + t_build;

    let mut checked = None;
    let mut plain = None;
    let driver: &mut dyn EpochDriver = if env.checked {
        checked.insert(CheckedDriver::wrap(driver, spec.clone()))
    } else {
        plain.insert(driver).as_mut()
    };

    let mut rows = Vec::with_capacity(epochs);
    let mut last_epoch = None;
    for _ in 0..epochs {
        let (row, ms) = {
            let counts = &mut out.counts;
            let (row, secs) = tr.time("driver.step", 1, || {
                let o = driver.step();
                counts.add_step(o, &spec);
                ObsRow::of(o)
            });
            (row, secs * 1e3)
        };
        out.step_ms.push(ms);
        if let Err(why) = sanity(&row, &spec, last_epoch) {
            out.failed_steps += 1;
            out.errors.push(format!("epoch {}: {why}", row.epoch));
        }
        last_epoch = Some(row.epoch);
        rows.push(row);
    }
    let (lines, _) = tr.time("obs.encode", rows.len() as u64, || {
        rows.iter().map(ObsRow::encode_line).collect::<Vec<_>>()
    });
    if let Some(store) = env.store {
        let (put, _) = tr.time("store.put", 1, || store.put(&key, &lines));
        put.map_err(|e| e.to_string())?;
    }
    out.lines = lines;
    if let Some(c) = &checked {
        out.counts.violations = c.violations().len() as u64;
    }
    // Dropping a socket-backed driver closes its lanes: charged, not
    // left as unattributed trial time.
    tr.time("driver.drop", 1, || drop((checked, plain)));
    Ok(())
}

/// The per-observation sanity checks. Injected drops and late messages
/// are not failures; an observation that cannot be true is.
fn sanity(row: &ObsRow, spec: &ScenarioSpec, last_epoch: Option<u64>) -> Result<(), String> {
    if row.captured_groups > row.total_groups {
        return Err(format!("captured {} > total {}", row.captured_groups, row.total_groups));
    }
    for (name, v) in [("single", row.search_success_single), ("dual", row.search_success_dual)] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("search_success_{name} = {v} outside [0, 1]"));
        }
    }
    if last_epoch.is_some_and(|prev| row.epoch <= prev) {
        return Err(format!("epoch {} does not follow {last_epoch:?}", row.epoch));
    }
    // Under PoW the budget is compute, and the minted count is a draw
    // around it; without PoW it is a hard cap on identities.
    if spec.defense == Defense::NoPow && row.bad_ids as usize > spec.n_bad {
        return Err(format!("bad_ids {} > budget {}", row.bad_ids, spec.n_bad));
    }
    Ok(())
}

/// Every line must survive `decode_line` → `encode_line` unchanged.
/// Returns the number of lines that did not.
fn decode_mismatches(lines: &[String], tr: &mut Tracer) -> usize {
    let (bad, _) = tr.time("obs.decode", lines.len() as u64, || {
        lines
            .iter()
            .filter(|l| ObsRow::decode_line(l).map(|r| r.encode_line()).as_ref() != Ok(*l))
            .count()
    });
    bad
}

/// One round of one workload: what the end-to-end metrics are built
/// from.
#[derive(Debug, Default)]
pub struct Slice {
    pub round: u32,
    /// Parse + build (+ store open) time, seconds.
    pub setup_s: f64,
    /// Wall seconds the ops took. Scenario shape: trial time minus its
    /// setup. Sweep shape: the `parallel_map` call, construction
    /// included — a cell *is* mostly construction.
    pub timed_s: f64,
    /// Process user + system CPU over the whole slice.
    pub cpu_s: f64,
    /// `VmHWM` after the slice.
    pub rss_mib: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Wall time of each completed op, ms.
    pub op_ms: Vec<f64>,
    /// First step of each trial and all later steps, ms.
    pub first_step_ms: Vec<f64>,
    pub later_step_ms: Vec<f64>,
    pub counts: Counts,
    /// SHA-256 (hex) of the round's observation lines in trial order.
    pub digest: String,
    /// Sweep shape only: stored bytes per stream and warm hits.
    pub store_bytes: u64,
    pub warm_hits: usize,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Run round `round` of `w` at `seed`. `scratch` is a directory the
/// sweep may create its store under; it is removed again.
pub fn run_slice(w: &Workload, seed: u64, round: u32, scratch: &Path, tr: &mut Tracer) -> Slice {
    let mut s = Slice { round, attempted: w.ops_per_round(), ..Slice::default() };
    let labels = labels(w, seed, round);
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds();
    tr.tag(w.name, round, 0);
    let depth = tr.open("round");
    let trials = match w.shape {
        Shape::Scenario => {
            let mut trials = Vec::with_capacity(labels.len());
            for (t, label) in labels.iter().enumerate() {
                tr.tag(w.name, round, t as u32);
                let out = run_trial(label, w.epochs, TrialEnv::default(), tr);
                s.setup_s += out.setup_s;
                s.timed_s += out.wall_s - out.setup_s;
                s.op_ms.extend_from_slice(&out.step_ms);
                trials.push(out);
            }
            trials
        }
        Shape::Sweep => sweep_round(w, &labels, scratch, tr, &mut s),
    };
    s.cpu_s = sys::cpu_seconds() - cpu0;
    s.rss_mib = sys::peak_rss_mib();

    // Untimed from here on: checks and the digest.
    let mut all_lines = Vec::new();
    for (t, out) in trials.iter().enumerate() {
        tr.tag(w.name, round, t as u32);
        let broken = decode_mismatches(&out.lines, tr);
        if broken > 0 {
            eprintln!("FAILED {} r{round} t{t}: {broken} line(s) do not round-trip", w.name);
        }
        s.failed += match w.shape {
            Shape::Scenario => (out.failed_steps + broken).min(w.epochs),
            Shape::Sweep => usize::from(out.failed_steps + broken > 0),
        };
        if let Some((first, later)) = out.step_ms.split_first() {
            s.first_step_ms.push(*first);
            s.later_step_ms.extend_from_slice(later);
        }
        s.counts.merge(&out.counts);
        all_lines.extend(out.lines.iter().map(String::as_str));
    }
    tr.close(depth);
    let mut text = all_lines.join("\n");
    text.push('\n');
    s.digest = hex(&sha256(text.as_bytes()));
    s
}

/// The sweep shape: open a store, fan the cells out exactly as
/// `run_frontier` does, then replay the round warm and compare bytes.
fn sweep_round(
    w: &Workload,
    labels: &[String],
    scratch: &Path,
    tr: &mut Tracer,
    s: &mut Slice,
) -> Vec<TrialOut> {
    let dir = scratch.join(format!("store-{}-r{}", std::process::id(), s.round));
    let (store, t_open) = tr.time("store.open", 1, || ResultStore::open(&dir));
    let store = match store {
        Ok(store) => store,
        Err(e) => {
            eprintln!("FAILED {}: cannot open store {}: {e}", w.name, dir.display());
            s.failed = s.attempted;
            return Vec::new();
        }
    };
    let cells: Vec<(usize, &String)> = labels.iter().enumerate().collect();
    let fan = tr.open("sweep.map");
    let (results, t_map) = {
        let (store, tr_ref, round) = (&store, &*tr, s.round);
        let started = Instant::now();
        let results = parallel_map(cells, |(t, label)| {
            let mut local = tr_ref.fork();
            local.tag(w.name, round, t as u32);
            let env = TrialEnv { store: Some(store), checked: false };
            (run_trial(label, w.epochs, env, &mut local), local)
        });
        (results, started.elapsed().as_secs_f64())
    };
    let mut trials = Vec::with_capacity(results.len());
    for (out, local) in results {
        tr.absorb(local);
        // Construction is inside the op here; it is reported as setup
        // as well so that a build-time regression is attributable.
        s.setup_s += out.setup_s;
        s.op_ms.push(out.wall_s * 1e3);
        trials.push(out);
    }
    tr.close(fan);
    s.setup_s += t_open;
    s.timed_s = t_map;

    // Warm replay, untimed: every cell must now hit, byte for byte.
    let replay = tr.open("sweep.replay");
    for (t, (label, out)) in labels.iter().zip(&mut trials).enumerate() {
        tr.tag(w.name, s.round, t as u32);
        let key = store_key(label, w.epochs);
        let (warm, _) = tr.time("store.get", 1, || store.get(&key));
        match warm {
            Ok(Some(lines)) if lines == out.lines => {
                s.warm_hits += 1;
                s.store_bytes += std::fs::metadata(store.path_for(&key)).map_or(0, |m| m.len());
            }
            other => {
                out.failed_steps += 1;
                eprintln!("FAILED `{label}`: warm replay differs from the live rows: {other:?}");
            }
        }
    }
    tr.close(replay);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("warning: could not remove {}: {e}", dir.display());
    }
    trials
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> (ObsRow, ScenarioSpec) {
        let spec = ScenarioSpec::new(100, 1);
        let row = ObsRow {
            epoch: 2,
            search_success_single: 0.9,
            search_success_dual: 1.0,
            frac_red_s0: 0.0,
            captured_groups: 1,
            total_groups: 200,
            bad_ids: spec.n_bad as u32,
            bad_share: 0.05,
            mean_memberships: 4.0,
            minted_good: f64::NAN,
            good_misses: f64::NAN,
            late: 3,
        };
        (row, spec)
    }

    #[test]
    fn sanity_accepts_a_plausible_row_and_names_each_breach() {
        let (ok, spec) = row();
        assert_eq!(sanity(&ok, &spec, Some(1)), Ok(()));
        assert_eq!(sanity(&ok, &spec, None), Ok(()));
        let breach = |edit: fn(&mut ObsRow), prev| {
            let (mut r, spec) = row();
            edit(&mut r);
            sanity(&r, &spec, prev).unwrap_err()
        };
        assert!(breach(|r| r.captured_groups = 201, None).contains("captured"));
        assert!(breach(|r| r.search_success_dual = 1.5, None).contains("dual"));
        assert!(breach(|r| r.search_success_single = f64::NAN, None).contains("single"));
        assert!(breach(|r| r.bad_ids += 1, None).contains("budget"));
        assert!(breach(|_| (), Some(2)).contains("does not follow"));
    }

    /// A label that does not build is a failed trial with a reason, not
    /// a crash — and a trial that panics is caught the same way.
    #[test]
    fn a_trial_that_cannot_run_fails_all_its_steps() {
        let mut tr = Tracer::new(true);
        let out = run_trial("tg1;nonsense", 3, TrialEnv::default(), &mut tr);
        assert_eq!((out.failed_steps, out.step_ms.len()), (3, 0));
        assert!(out.errors[0].contains("parse"), "{:?}", out.errors);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_small_trial_runs_checks_and_counts() {
        let label = crate::workloads::labels(crate::workloads::find("net_faulty").unwrap(), 5, 0)
            [0]
        .replace(";transport=socket", "");
        let mut tr = Tracer::new(true);
        let out = run_trial(&label, 2, TrialEnv::default(), &mut tr);
        assert_eq!((out.failed_steps, out.step_ms.len(), out.lines.len()), (0, 2, 2));
        assert_eq!(out.counts.steps, 2);
        assert!(out.counts.member_slots > 0 && out.counts.searches > 0);
        assert_eq!(decode_mismatches(&out.lines, &mut tr), 0);
        assert_eq!(decode_mismatches(&["o2;garbage".to_string()], &mut tr), 1);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        for want in ["trial", "scenario.parse", "scenario.build", "driver.step", "obs.encode"] {
            assert!(names.contains(&want), "missing span {want}: {names:?}");
        }
        assert!(crate::trace::max_unattributed_frac(tr.spans(), "") < 0.5);
    }
}
