//! Minimal CLI option parsing for the `run_all` binary.
//!
//! Supported flags (all optional):
//! `--seed <u64>` (default 42), `--full` (paper-scale parameters),
//! `--out <dir>` (default `results/`), `--quiet` (suppress the table),
//! `--only e10,e11,e12` (run a subset), `--list` (print the
//! experiment registry and exit), and the four **run-wide switches**,
//! which say *how* scenarios are executed and never change what they
//! observe: `--runtime sync|actor`, `--transport mem|socket`,
//! `--store <dir>` and `--check-invariants`; `--transport socket`
//! without `--runtime actor` exits 2, as its label would not parse.
//! Those four are parsed here into [`Options::exec`] and documented,
//! field by field, on [`crate::exec::Exec`] — the only module that
//! reads them. A new run-wide switch is a field there and a flag here.

use crate::exec::Exec;
use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::TransportChoice;
use tg_sim::ResultStore;

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Master seed for the experiment's randomness streams.
    pub seed: u64,
    /// Run the larger, paper-scale configuration.
    pub full: bool,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Suppress stdout tables.
    pub quiet: bool,
    /// Restrict `run_all` to the named experiments (`e1`…`e15`,
    /// `figure1`). `None` runs everything.
    pub only: Option<Vec<String>>,
    /// Print the experiment registry (name + one-line description) and
    /// exit 0 instead of running anything (`run_all --list`).
    pub list: bool,
    /// How every scenario is executed: the run-wide switches.
    pub exec: Exec,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            full: false,
            out_dir: "results".to_string(),
            quiet: false,
            only: None,
            list: false,
            exec: Exec::default(),
        }
    }
}

impl Options {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// # Panics
    /// Panics with a usage message on unknown flags or malformed values —
    /// `run_all` is a developer tool, failing loudly is the feature.
    pub fn parse(args: impl Iterator<Item = String>) -> Options {
        let mut opts = Options::default();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    opts.seed = v.parse().unwrap_or_else(|_| usage("--seed must be a u64"));
                }
                "--full" => opts.full = true,
                "--quiet" => opts.quiet = true,
                "--list" => opts.list = true,
                "--out" => {
                    opts.out_dir = it.next().unwrap_or_else(|| usage("--out needs a value"));
                }
                "--only" => {
                    let v = it.next().unwrap_or_else(|| usage("--only needs a value"));
                    let names: Vec<String> = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if names.is_empty() {
                        usage("--only needs a comma-separated experiment list");
                    }
                    opts.only = Some(names);
                }
                "--runtime" => {
                    let v = it.next().unwrap_or_else(|| usage("--runtime needs a value"));
                    opts.exec.runtime = RuntimeChoice::parse(&v)
                        .unwrap_or_else(|| usage("--runtime must be sync or actor"));
                }
                "--transport" => {
                    let v = it.next().unwrap_or_else(|| usage("--transport needs a value"));
                    opts.exec.transport = TransportChoice::parse(&v)
                        .unwrap_or_else(|| usage("--transport must be mem or socket"));
                }
                "--store" => {
                    let dir = it.next().unwrap_or_else(|| usage("--store needs a value"));
                    opts.exec.store = open_store(&dir);
                }
                "--check-invariants" => opts.exec.check_invariants = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        // The pairing rule `ScenarioSpec::check_transport` applies to
        // labels: a socket has nobody to move bytes for without actors.
        if opts.exec.transport == TransportChoice::Socket
            && opts.exec.runtime != RuntimeChoice::Actor
        {
            usage("--transport socket needs the actor runtime: add --runtime actor");
        }
        opts
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Options {
        Options::parse(std::env::args().skip(1))
    }

    /// Whether `run_all` should run the experiment with this stem name
    /// (`"e10"`, `"figure1"`, …). Everything is selected when no
    /// `--only` filter was given.
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_ref().is_none_or(|names| names.iter().any(|n| n == name))
    }
}

/// Open the result store named by `--store`. A store directory that
/// cannot be created degrades to a live run with a warning — caching is
/// an accelerator, never a prerequisite.
fn open_store(dir: &str) -> Option<ResultStore> {
    ResultStore::open(dir)
        .inspect_err(|e| eprintln!("warning: could not open result store at {dir}: {e}"))
        .ok()
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: run_all [--seed N] [--full] [--out DIR] [--quiet] [--only e10,e11,e12] \
         [--list] [--runtime sync|actor] [--transport mem|socket] \
         [--store DIR] [--check-invariants]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Options {
        Options::parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.seed, 42);
        assert!(!o.full);
        assert_eq!(o.out_dir, "results");
        assert!(o.only.is_none());
    }

    #[test]
    fn flags() {
        let o = parse(&["--seed", "7", "--full", "--out", "/tmp/x", "--quiet"]);
        assert_eq!(o.seed, 7);
        assert!(o.full);
        assert_eq!(o.out_dir, "/tmp/x");
        assert!(o.quiet);
    }

    #[test]
    fn list_flag_parses() {
        assert!(parse(&["--list"]).list);
        assert!(!parse(&[]).list);
    }

    #[test]
    fn runtime_flag_parses() {
        assert_eq!(parse(&[]).exec.runtime, RuntimeChoice::Sync);
        assert_eq!(parse(&["--runtime", "actor"]).exec.runtime, RuntimeChoice::Actor);
        assert_eq!(parse(&["--runtime", "sync"]).exec.runtime, RuntimeChoice::Sync);
    }

    #[test]
    fn transport_flag_parses() {
        assert_eq!(parse(&[]).exec.transport, TransportChoice::Mem);
        let socket = parse(&["--transport", "socket", "--runtime", "actor"]);
        assert_eq!(socket.exec.transport, TransportChoice::Socket);
        assert_eq!(parse(&["--transport", "mem"]).exec.transport, TransportChoice::Mem);
    }

    #[test]
    fn store_flag_parses_and_opens() {
        assert!(parse(&[]).exec.store.is_none(), "no flag, no store");
        let dir = std::env::temp_dir().join(format!("tg-args-store-{}", std::process::id()));
        let o = parse(&["--store", dir.to_str().expect("utf-8 temp path")]);
        assert_eq!(o.exec.store.expect("a creatable directory opens").dir(), dir);
    }

    #[test]
    fn check_invariants_flag_parses() {
        assert!(!parse(&[]).exec.check_invariants);
        assert!(parse(&["--check-invariants"]).exec.check_invariants);
    }

    #[test]
    fn only_filters_experiments() {
        let o = parse(&["--only", "e10, e12"]);
        assert!(o.selected("e10"));
        assert!(o.selected("e12"));
        assert!(!o.selected("e11"));
        assert!(!o.selected("figure1"));
        // No filter selects everything.
        assert!(parse(&[]).selected("e11"));
    }
}
