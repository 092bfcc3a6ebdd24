//! CLI contract of the `run_all` binary: `--list` prints the registry
//! and exits 0 without running anything; `--only` validates its names
//! against the same registry (exit 2 on an unknown name) and runs the
//! selected rows end to end. Driven
//! through the real binary (`CARGO_BIN_EXE_run_all`), not a re-parse of
//! the flags, so drift between the registry and the CLI surfaces here.

use std::process::Command;
use tg_experiments::exp::REGISTRY;

fn run_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_all")).args(args).output().expect("spawn run_all")
}

#[test]
fn list_prints_the_registry_and_exits_zero() {
    let out = run_all(&["--list"]);
    assert!(out.status.success(), "--list must exit 0: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    for e in REGISTRY {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(e.name))
            .unwrap_or_else(|| panic!("--list is missing {}:\n{stdout}", e.name));
        assert!(line.contains(e.description), "{} line lacks its description: {line}", e.name);
    }
    assert_eq!(stdout.lines().count(), REGISTRY.len(), "one line per experiment");
}

#[test]
fn unknown_only_selection_exits_two_with_the_known_list() {
    let out = run_all(&["--only", "e99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 diagnostics");
    assert!(stderr.contains("e99"), "diagnostic names the offender: {stderr}");
    for e in REGISTRY {
        assert!(
            stderr.contains(&format!("\"{}\"", e.name)),
            "diagnostic must list every valid selection; missing {}: {stderr}",
            e.name
        );
    }
}

#[test]
fn empty_selection_exits_two() {
    // Valid name set, nothing selected is impossible through --only
    // (unknown names already exit 2), so the nothing-selected guard is
    // only reachable when the filter is empty after trimming — which the
    // parser rejects. Exercise the parser path.
    let out = run_all(&["--only", " , "]);
    assert_eq!(out.status.code(), Some(2));
}

/// `--transport socket` without `--runtime actor` is refused when the
/// flags are parsed — exit 2 with a hint to add the runtime — rather
/// than panicking when the first scenario is built: the pairing rule a
/// `tg1;…` label obeys too.
#[test]
fn socket_transport_without_actor_runtime_exits_two() {
    let out_dir = scratch("socket-sync");
    let out_arg = out_dir.to_str().expect("utf-8 temp path");
    let out = run_all(&["--only", "e4", "--quiet", "--transport", "socket", "--out", out_arg]);
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 diagnostics");
    assert!(!stderr.contains("panicked"), "a refusal, not a panic: {stderr}");
    assert!(stderr.contains("--runtime actor"), "the hint names the fix: {stderr}");
}

/// A scratch `--out` directory, unique to this process and test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tg-run-all-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The path every experiment takes: select one row, run it, write its
/// CSV, exit 0 — and under `--quiet` put nothing on stdout.
#[test]
fn only_runs_one_experiment_end_to_end() {
    let dir = scratch("e9");
    let out = run_all(&["--only", "e9", "--quiet", "--out", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "--only e9 must exit 0: {out:?}");
    assert!(out.stdout.is_empty(), "--quiet keeps stdout empty: {out:?}");
    let csv = std::fs::read_to_string(dir.join("e9_precompute.csv")).expect("CSV written");
    let mut lines = csv.lines();
    assert!(lines.next().is_some_and(|h| h.contains(',')), "header row: {csv}");
    assert!(lines.next().is_some(), "at least one data row: {csv}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "only the selected row ran");
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--quiet` the selected experiment's table lands on stdout.
#[test]
fn unquiet_run_prints_the_table() {
    let dir = scratch("figure1");
    let out = run_all(&["--only", "figure1", "--out", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "--only figure1 must exit 0: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let csv = std::fs::read_to_string(dir.join("figure1.csv")).expect("CSV written");
    for header in csv.lines().next().expect("header row").split(',') {
        assert!(stdout.contains(header), "table on stdout lacks column `{header}`:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
