//! The one **execution context**: *how* an experiment turns a
//! [`ScenarioSpec`] into observations, as opposed to *what* it
//! simulates. The four run-wide switches of `run_all` (`--runtime`,
//! `--transport`, `--check-invariants`, `--store`) are the fields of
//! [`Exec`]; [`crate::args`] fills them in and nothing else in
//! the crate reads them. Experiments get three calls instead:
//!
//! * [`Exec::install`] — put the runtime/transport axes on a spec,
//! * [`Exec::driver`] — build the spec's (possibly checked) driver,
//! * [`Exec::trial`] — run a whole trial store-warm,
//!
//! and `run_all` calls [`Exec::write_index`] once at the end. A new
//! run-wide switch is a field here, a flag in `args.rs`, and no edit to
//! any experiment.

use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::{EpochDriver, ObsRow, ScenarioSpec, TransportChoice};
use tg_sim::ResultStore;
use tg_verify::CheckedDriver;

/// How every scenario of a run is executed. The default is the
/// configuration that wrote the goldens: no network, unchecked, nothing
/// stored. Every field is observation-free over a perfect network, so no
/// CSV moves with any of them.
#[derive(Clone, Debug, Default)]
pub struct Exec {
    /// Which epoch runtime advances them (synchronous in-process vs
    /// actor message passing).
    pub runtime: RuntimeChoice,
    /// Which transport carries the actor runtime's protocol messages
    /// (in-memory vs loopback TCP). Only meaningful with the actor
    /// runtime; the socket/sync combination is rejected at build time.
    /// Elided from labels at the default, so store keys stay stable.
    pub transport: TransportChoice,
    /// Wrap every driver in a strict [`tg_verify::CheckedDriver`]: the
    /// invariant registry is evaluated after every epoch and the first
    /// violation panics with a reproduction line. Checks draw from their
    /// own RNG streams, so observations are unchanged, only checked.
    pub check_invariants: bool,
    /// The content-addressed result store ([`tg_sim::store`]). When set,
    /// [`trial`](Self::trial) replays any observation stream already
    /// stored and publishes the ones it simulates — warm re-runs and
    /// resumed ladders skip the work already on disk. `None` runs
    /// everything live.
    pub store: Option<ResultStore>,
}

impl Exec {
    /// `spec` with this run's runtime and transport axes set.
    pub fn install(&self, spec: ScenarioSpec) -> ScenarioSpec {
        spec.runtime(self.runtime).transport(self.transport)
    }

    /// Build `spec`'s driver: exactly `tg_pow::scenario::build`, or —
    /// with [`check_invariants`](Self::check_invariants) — that driver
    /// wrapped in a strict [`tg_verify::CheckedDriver`], which panics with
    /// a reproduction line (invariant ID, scenario label, epoch) on the
    /// first violated paper invariant. The wrapper samples from its own
    /// labelled streams, so both build byte-identical observations.
    ///
    /// # Panics
    /// Panics if the spec is unbuildable (experiment specs are
    /// constructed, not parsed, so that is a harness bug), or — when
    /// checking — on the first invariant violation.
    pub fn driver(&self, spec: &ScenarioSpec) -> Box<dyn EpochDriver> {
        if self.check_invariants {
            let checked = CheckedDriver::build(spec)
                .unwrap_or_else(|e| panic!("scenario `{}` must build: {e:?}", spec.label()));
            Box::new(checked.strict())
        } else {
            tg_pow::scenario::build(spec)
                .unwrap_or_else(|e| panic!("scenario `{}` must build: {e:?}", spec.label()))
        }
    }

    /// The records stored under `key`: `None` on a miss or without a
    /// store. A stream that exists but does not verify panics — tampered
    /// results must never silently feed a sweep.
    pub fn stored(&self, key: &str) -> Option<Vec<String>> {
        self.store.as_ref()?.get(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Publish `records()` as the stream for `key`, if a store is
    /// configured. A publish failure degrades the cache, not the sweep.
    pub fn publish(&self, key: &str, records: impl FnOnce() -> Vec<String>) {
        if let Some(store) = &self.store {
            if let Err(e) = store.put(key, &records()) {
                eprintln!("warning: {e}");
            }
        }
    }

    /// One trial's observation rows, store-warm: build `spec`'s driver
    /// and run it for `epochs` epochs — unless the store already holds
    /// the trial's stream, which is then replayed instead; a stream
    /// simulated with a store configured is published to it. The
    /// returned flag says whether the trial ran **live**.
    ///
    /// # Panics
    /// Panics naming the key if the stored stream is corrupt, has the
    /// wrong record count, or holds a record that does not decode.
    pub fn trial(&self, spec: &ScenarioSpec, epochs: usize) -> (Vec<ObsRow>, bool) {
        let key = trial_store_key(spec, epochs);
        if let Some(records) = self.stored(&key) {
            assert_eq!(
                records.len(),
                epochs,
                "stored stream for `{key}` has the wrong epoch count"
            );
            let decode = |(i, rec): (usize, &String)| {
                ObsRow::decode_line(rec)
                    .unwrap_or_else(|e| panic!("store record {i} for `{key}` does not decode: {e}"))
            };
            return (records.iter().enumerate().map(decode).collect(), false);
        }
        let rows = self.driver(spec).run(epochs);
        self.publish(&key, || rows.iter().map(ObsRow::encode_line).collect());
        (rows, true)
    }

    /// Rebuild the store's human-readable `index.tsv`, if a store is
    /// configured — the one epilogue of a stored run.
    pub fn write_index(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.write_index() {
                eprintln!("warning: could not write store index: {e}");
            }
        }
    }
}

/// The store key of one trial's observation stream: the trial's full
/// scenario label (which already carries seed, axes, runtime)
/// plus the epoch count the stream covers.
fn trial_store_key(spec: &ScenarioSpec, epochs: usize) -> String {
    format!("{};epochs={epochs}", spec.label())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context over a fresh store, a small spec, and the spec's key.
    fn fixture(name: &str) -> (Exec, ScenarioSpec, String) {
        let dir = std::env::temp_dir().join(format!("tg-exec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("temp store opens");
        let spec = ScenarioSpec::new(60, 42).searches(20);
        let key = trial_store_key(&spec, 2);
        (Exec { store: Some(store), ..Exec::default() }, spec, key)
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload.downcast_ref::<String>().cloned().expect("formatted panic message")
    }

    #[test]
    fn checked_and_unchecked_drivers_agree() {
        let spec = ScenarioSpec::new(60, 42).searches(40);
        let mut plain = Exec::default().driver(&spec);
        let mut checked = Exec { check_invariants: true, ..Exec::default() }.driver(&spec);
        for _ in 0..3 {
            assert_eq!(
                format!("{:?}", plain.step()),
                format!("{:?}", checked.step()),
                "the checked wrapper must not perturb observations"
            );
        }
    }

    #[test]
    fn live_then_warm_returns_identical_rows() {
        let (exec, spec, key) = fixture("warm");
        let (live_rows, live) = exec.trial(&spec, 2);
        assert!(live, "an empty store cannot serve the trial");
        assert_eq!(exec.stored(&key).expect("the live trial published").len(), 2);
        let (warm_rows, live) = exec.trial(&spec, 2);
        assert!(!live, "the second pass replays");
        let lines = |rows: &[ObsRow]| rows.iter().map(ObsRow::encode_line).collect::<Vec<_>>();
        assert_eq!(lines(&warm_rows), lines(&live_rows));
        let (bare_rows, live) = Exec::default().trial(&spec, 2);
        assert!(live, "without a store every trial is live");
        assert_eq!(lines(&bare_rows), lines(&live_rows), "the store is a cache, never an input");
    }

    #[test]
    fn tampered_record_panics_naming_the_key() {
        let (exec, spec, key) = fixture("tamper");
        exec.trial(&spec, 2);
        let path = exec.store.as_ref().unwrap().path_for(&key);
        let text = std::fs::read_to_string(&path).unwrap();
        let digit = text.rfind(|c: char| c.is_ascii_digit()).expect("records carry numbers");
        let flipped = if &text[digit..=digit] == "7" { "8" } else { "7" };
        std::fs::write(&path, format!("{}{flipped}{}", &text[..digit], &text[digit + 1..]))
            .unwrap();
        let msg = panic_message(|| drop(exec.trial(&spec, 2)));
        assert!(msg.contains(&key), "`{msg}` must name `{key}`");

        // A stream that verifies but is not an observation stream.
        exec.publish(&key, || vec!["o1;not-a-row".to_string(); 2]);
        let msg = panic_message(|| drop(exec.trial(&spec, 2)));
        assert!(msg.contains(&key) && msg.contains("does not decode"), "{msg}");
    }

    #[test]
    fn wrong_record_count_panics() {
        let (exec, spec, key) = fixture("count");
        let (rows, _) = exec.trial(&spec, 2);
        exec.publish(&key, || vec![rows[0].encode_line()]);
        let msg = panic_message(|| drop(exec.trial(&spec, 2)));
        assert!(msg.contains(&key) && msg.contains("wrong epoch count"), "{msg}");
    }
}
