//! `--compare A.json B.json`: one row per workload × end-to-end
//! metric, judged by the registry's bounds and the rounds' own spread.
//! The tool for "two sets of runs agree" now and for every
//! before/after later.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::stats::iqr_over_median;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound and the noise.
    Better,
    /// Within the bound either way.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// Moved by more than the bound, but the rounds' own spread is
    /// wider than the bound: not shown either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`. `noise` is the larger `harness.round_spread`
/// of the two runs.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, noise: f64) -> Verdict {
    if a == 0.0 || !a.is_finite() || !b.is_finite() {
        return Verdict::Unresolved;
    }
    let change = (b - a) / a.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    match () {
        () if worsening.abs() <= bound => Verdict::Ok,
        () if noise > bound => Verdict::Unresolved,
        () if worsening > 0.0 => Verdict::Worse,
        () => Verdict::Better,
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

fn spread(w: &Value) -> f64 {
    let rounds: Vec<f64> = w
        .get("round_ops_per_s")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    iqr_over_median(&rounds)
}

/// Print the comparison; `Ok(true)` when no row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "spread"
    );
    for wa in a.get("workloads").ok_or("A has no `workloads`")?.as_arr() {
        let name = wa.get("name").and_then(Value::as_str).ok_or("workload without a name")?;
        let Some(wb) = workload(&b, name) else {
            println!("{name:<14} missing from B");
            clean = false;
            continue;
        };
        let noise = spread(wa).max(spread(wb));
        for def in &END_TO_END {
            let path = ["end_to_end", def.name, "value"];
            let (Some(x), Some(y)) = (num(wa, &path), num(wb, &path)) else {
                println!("{name:<14} {:<14} missing", def.name);
                clean = false;
                continue;
            };
            let verdict = judge(x, y, def.better, def.bound, noise);
            clean &= verdict != Verdict::Worse;
            println!(
                "{name:<14} {:<14} {x:>12.4} {y:>12.4} {:>+7.1}% {:>5.0}% {:>6.1}%  {}",
                def.name,
                (y - x) / x * 100.0,
                def.bound * 100.0,
                noise * 100.0,
                verdict.label()
            );
        }
        // Failures are counts, not timings: any increase is a regression.
        let frac = |w: &Value| {
            num(w, &["failed"]).unwrap_or(0.0) / num(w, &["attempted"]).unwrap_or(1.0).max(1.0)
        };
        let (fa, fb) = (frac(wa), frac(wb));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        clean &= verdict != Verdict::Worse;
        println!("{name:<14} {:<14} {fa:>12.4} {fb:>12.4} {:>32}", "failed_frac", verdict.label());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 108.0, Lower, 0.10, 0.02), Verdict::Ok);
        assert_eq!(judge(100.0, 112.0, Lower, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 85.0, Lower, 0.10, 0.02), Verdict::Better);
        assert_eq!(judge(100.0, 85.0, Higher, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, Higher, 0.10, 0.02), Verdict::Better);
        // A move past the bound on a host noisier than the bound shows
        // nothing either way.
        assert_eq!(judge(100.0, 112.0, Lower, 0.10, 0.16), Verdict::Unresolved);
        assert_eq!(judge(100.0, 85.0, Lower, 0.10, 0.16), Verdict::Unresolved);
        assert_eq!(judge(0.0, 1.0, Lower, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(judge(1.0, f64::NAN, Lower, 0.10, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_two_result_documents() {
        let doc = |ops: f64, failed: f64| {
            Value::obj([(
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("name", Value::str("scale_honest")),
                    ("attempted", Value::Num(40.0)),
                    ("failed", Value::Num(failed)),
                    ("round_ops_per_s", Value::nums(&[ops, ops * 1.01, ops * 0.99])),
                    (
                        "end_to_end",
                        Value::obj(END_TO_END.iter().map(|d| {
                            (
                                d.name,
                                Value::obj([
                                    ("value", Value::Num(ops)),
                                    ("unit", Value::str(d.unit)),
                                ]),
                            )
                        })),
                    ),
                ])]),
            )])
        };
        let dir = crate::home().join(format!("out/compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, v: &Value| {
            let p = dir.join(name);
            std::fs::write(&p, v.render_pretty()).unwrap();
            p
        };
        let a = write("a.json", &doc(2.0, 0.0));
        assert_eq!(run(&a, &a), Ok(true), "a run agrees with itself");
        // Every metric doubled: the lower-is-better ones are worse.
        assert_eq!(run(&a, &write("b.json", &doc(4.0, 0.0))), Ok(false));
        assert_eq!(run(&a, &write("c.json", &doc(2.0, 1.0))), Ok(false), "a new failure");
        assert!(run(&a, &dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
