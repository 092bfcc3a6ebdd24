//! From round slices and spans to the named metrics, and their
//! printing. End-to-end numbers come from untraced rounds only.

use crate::json::Value;
use crate::metrics::{Layer, END_TO_END, NOMINAL_ROUNDS, PER_LAYER};
use crate::probes::{Uses, Values};
use crate::run::{Counts, Slice};
use crate::stats::{iqr_over_median, median, percentile};
use crate::trace::{max_unattributed_frac, Span};
use crate::workloads::{Shape, Workload};

/// Everything measured for one workload in one run of the benchmark.
pub struct WorkloadRun {
    pub w: &'static Workload,
    pub untraced: Vec<Slice>,
    pub traced: Vec<Slice>,
    /// Seed-42 digests compared equal (vacuously true at other seeds).
    pub digests_ok: bool,
    /// Probe self-checks and twin equivalences held.
    pub probes_ok: bool,
}

impl WorkloadRun {
    pub fn new(w: &'static Workload) -> WorkloadRun {
        WorkloadRun {
            w,
            untraced: Vec::new(),
            traced: Vec::new(),
            digests_ok: true,
            probes_ok: true,
        }
    }

    fn slices(&self) -> impl Iterator<Item = &Slice> {
        self.untraced.iter().chain(&self.traced)
    }

    pub fn attempted(&self) -> usize {
        self.slices().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.slices().map(|s| s.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.digests_ok && self.probes_ok
    }

    /// Membership slots (one `hash_id_index` each) per epoch stepped.
    pub fn member_slots_per_step(&self) -> f64 {
        let (slots, steps) =
            self.slices().fold((0, 0), |(m, n), s| (m + s.counts.member_slots, n + s.counts.steps));
        slots as f64 / steps.max(1) as f64
    }

    /// Ops pooled into `op_ms_p50`.
    pub fn samples(&self) -> usize {
        self.untraced.iter().map(|s| s.op_ms.len()).sum()
    }

    /// Throughput of each untraced round — what `harness.round_spread`
    /// and `--compare` judge the noise by.
    pub fn round_ops_per_s(&self) -> Vec<f64> {
        self.untraced.iter().filter(|s| s.timed_s > 0.0).map(ops_per_s).collect()
    }
}

fn ops_per_s(s: &Slice) -> f64 {
    s.op_ms.len() as f64 / s.timed_s
}

fn secs_per_op(s: &Slice) -> f64 {
    s.timed_s / s.op_ms.len().max(1) as f64
}

/// The end-to-end metrics, in registry order.
pub fn end_to_end(run: &WorkloadRun) -> Values {
    let rounds = &run.untraced;
    let per_round = |f: fn(&Slice) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let pooled: Vec<f64> = rounds.iter().flat_map(|s| s.op_ms.iter().copied()).collect();
    Values::from([
        ("ops_per_s", median(&run.round_ops_per_s())),
        ("op_ms_p50", median(&pooled)),
        ("cpu_ms_per_op", median(&per_round(|s| s.cpu_s * 1e3 / s.op_ms.len().max(1) as f64))),
        ("peak_rss_mb", median(&per_round(|s| s.rss_mib))),
        ("setup_s", NOMINAL_ROUNDS as f64 * median(&per_round(|s| s.setup_s))),
    ])
}

/// Durations (seconds) of `w`'s spans called `name`, and their summed
/// operation count.
fn durations(spans: &[Span], workload: &str, name: &str) -> (Vec<f64>, u64) {
    let hits = spans.iter().filter(|s| s.workload == workload && s.name == name);
    let (mut secs, mut count) = (Vec::new(), 0);
    for s in hits {
        secs.push(s.secs());
        count += s.count;
    }
    (secs, count)
}

/// The per-layer metrics that come from the rounds themselves: harness
/// spans, exact counts, and the harness's own noise figures.
pub fn layer_from_rounds(run: &WorkloadRun, spans: &[Span]) -> Values {
    let name = run.w.name;
    let mut v = Values::new();
    let median_of = |span: &str, scale: f64| median(&durations(spans, name, span).0) * scale;
    let per_count = |span: &str, scale: f64| {
        let (secs, count) = durations(spans, name, span);
        secs.iter().sum::<f64>() * scale / count.max(1) as f64
    };
    v.insert("scenario.parse_us", median_of("scenario.parse", 1e6));
    v.insert("scenario.build_ms", median_of("scenario.build", 1e3));
    let (steps, _) = durations(spans, name, "driver.step");
    v.insert("driver.step_ms_p50", median(&steps) * 1e3);
    // The highest percentile with ten samples beyond it needs 100.
    v.insert(
        "driver.step_ms_p90",
        if steps.len() >= 100 { percentile(&steps, 0.9) * 1e3 } else { 0.0 },
    );
    v.insert("obs.encode_us_per_row", per_count("obs.encode", 1e6));
    v.insert("obs.decode_us_per_row", per_count("obs.decode", 1e6));
    v.insert("store.put_ms_per_stream", median_of("store.put", 1e3));
    v.insert("store.get_us_per_stream", median_of("store.get", 1e6));

    let traced = &run.traced;
    let pool = |f: fn(&Slice) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let (first, later) = (pool(|s| &s.first_step_ms), pool(|s| &s.later_step_ms));
    let later_ms = median(&later);
    v.insert(
        "driver.first_step_ratio",
        if later_ms > 0.0 { median(&first) / later_ms } else { 0.0 },
    );

    // Exact counts, read at the step boundary.
    let mut c = Counts::default();
    traced.iter().for_each(|s| c.merge(&s.counts));
    let ops = traced.iter().map(|s| s.op_ms.len()).sum::<usize>().max(1) as f64;
    let step_s = first.iter().chain(&later).sum::<f64>() / 1e3;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    v.insert("kernel.ids_per_op", c.ids as f64 / ops);
    v.insert("kernel.member_slots_per_op", c.member_slots as f64 / ops);
    v.insert("kernel.links_required_per_op", c.links_required as f64 / ops);
    v.insert("kernel.links_failed_per_op", c.links_failed as f64 / ops);
    v.insert("kernel.captured_frac_mean", per(c.captured_frac_sum, c.steps as f64));
    v.insert("kernel.us_per_id", per(step_s * 1e6, c.ids as f64));
    v.insert("kernel.ids_per_s", per(c.ids as f64, step_s));
    v.insert("routing.searches_per_op", c.searches as f64 / ops);
    v.insert("routing.msgs_per_search", per(c.routing_msgs as f64, c.searches as f64));
    v.insert("routing.hops_per_search", per(c.hops as f64, c.searches as f64));
    v.insert("tg_pow.minted_good_per_op", c.minted_good as f64 / ops);

    let cells: usize = traced.iter().map(|s| s.attempted).sum();
    let hits: usize = traced.iter().map(|s| s.warm_hits).sum();
    let bytes: u64 = traced.iter().map(|s| s.store_bytes).sum();
    v.insert("store.bytes_per_stream", per(bytes as f64, hits as f64));
    v.insert("store.warm_hit_frac", per(hits as f64, cells as f64));
    let speedups: Vec<f64> =
        traced.iter().map(|s| per(s.op_ms.iter().sum::<f64>() / 1e3, s.timed_s)).collect();
    v.insert("parallel.sweep_speedup", median(&speedups));

    v.insert("harness.round_spread", iqr_over_median(&run.round_ops_per_s()));
    // Rounds of the same index run the same inputs, traced or not; the
    // medians are over all rounds of each kind, so one slow round on
    // either side does not read as tracing overhead.
    let untraced: Vec<f64> = run.untraced.iter().map(secs_per_op).collect();
    let traced_secs: Vec<f64> = traced.iter().map(secs_per_op).collect();
    v.insert("trace.overhead_frac", per(median(&traced_secs), median(&untraced)) - 1.0);
    v.insert("trace.unattributed_frac", max_unattributed_frac(spans, name));
    v
}

/// All per-layer metrics of one workload, in registry order: measured
/// values where the workload exercises the layer, `0` where it does
/// not. A name nobody measured is a bug in the harness.
pub fn per_layer(run: &WorkloadRun, uses: Uses, measured: &Values) -> Result<Values, String> {
    let mut out = Values::new();
    for def in &PER_LAYER {
        let exercised = match def.layer {
            Layer::Pow => uses.pow,
            Layer::Net => uses.net,
            Layer::Store => run.w.shape == Shape::Sweep,
            _ => true,
        };
        let value = match (exercised, measured.get(def.name)) {
            (false, _) => 0.0,
            (true, Some(&v)) => v,
            (true, None) => {
                return Err(format!("per-layer metric `{}` was not measured", def.name))
            }
        };
        out.insert(def.name, value);
    }
    Ok(out)
}

/// `{"name": {"value": v, "unit": u}, …}` in registry order.
pub fn metrics_json(
    values: &Values,
    units: impl Iterator<Item = (&'static str, &'static str)>,
) -> Value {
    Value::obj(units.filter_map(|(name, unit)| {
        let v = values.get(name)?;
        Some((name, Value::obj([("value", Value::Num(*v)), ("unit", Value::str(unit))])))
    }))
}

pub fn end_to_end_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|e| (e.name, e.unit))
}

pub fn per_layer_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|p| (p.name, p.unit))
}

/// Print one workload's metrics by name, with units.
pub fn print_workload(run: &WorkloadRun, e2e: &Values, layer: Option<&Values>) {
    let w = run.w;
    println!(
        "\n== {} — {} round(s), {} ops attempted, {} failed, {} ==",
        w.name,
        run.untraced.len(),
        run.attempted(),
        run.failed(),
        if run.correct() { "correct" } else { "INCORRECT" }
    );
    for def in &END_TO_END {
        let note = if def.name == "op_ms_p50" {
            format!("  ({} samples)", run.samples())
        } else {
            String::new()
        };
        println!("  {:<34} {:>14.4} {}{}", def.name, e2e[def.name], def.unit, note);
    }
    println!(
        "  {:<34} {:>14.4} ratio  ({} of {})",
        "failed_frac",
        run.failed() as f64 / run.attempted().max(1) as f64,
        run.failed(),
        run.attempted()
    );
    let spread = iqr_over_median(&run.round_ops_per_s());
    if spread > 0.15 {
        println!("  warning: harness.round_spread {spread:.3} > 0.15 — noisy host, repeat the run");
    }
    if let Some(layer) = layer {
        for def in &PER_LAYER {
            println!("    {:<36} {:>14.4} {}", def.name, layer[def.name], def.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn slice(round: u32, op_ms: &[f64], timed_s: f64, setup_s: f64, cpu_s: f64, rss: f64) -> Slice {
        Slice {
            round,
            setup_s,
            timed_s,
            cpu_s,
            rss_mib: rss,
            attempted: op_ms.len(),
            op_ms: op_ms.to_vec(),
            ..Slice::default()
        }
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_rounds() {
        let mut run = WorkloadRun::new(&WORKLOADS[0]);
        run.untraced = vec![
            slice(0, &[10.0, 10.0], 0.020, 0.5, 0.030, 40.0),
            slice(1, &[20.0, 20.0], 0.040, 0.7, 0.050, 44.0),
            slice(2, &[10.0, 12.0], 0.022, 0.6, 0.036, 42.0),
        ];
        let e = end_to_end(&run);
        assert!((e["ops_per_s"] - 2.0 / 0.022).abs() < 1e-9, "median of 100, 50, 90.9");
        assert_eq!(e["op_ms_p50"], 11.0, "pooled over all six ops");
        assert_eq!(e["cpu_ms_per_op"], 18.0);
        assert_eq!(e["peak_rss_mb"], 42.0);
        assert!((e["setup_s"] - 8.0 * 0.6).abs() < 1e-12);
        assert_eq!((run.samples(), run.attempted(), run.failed()), (6, 6, 0));
        assert!(run.correct());
        run.untraced[1].failed = 1;
        assert!(!run.correct());
    }

    #[test]
    fn per_layer_zeroes_layers_the_workload_does_not_exercise() {
        let run = WorkloadRun::new(&WORKLOADS[0]);
        let measured: Values = PER_LAYER.iter().map(|p| (p.name, 7.0)).collect();
        let out = per_layer(&run, Uses::default(), &measured).unwrap();
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out["tg_pow.attempt_ns"], 0.0);
        assert_eq!(out["net.socket.connect_ms"], 0.0);
        assert_eq!(out["store.put_ms_per_stream"], 0.0);
        assert_eq!(out["kernel.us_per_id"], 7.0);
        let all = per_layer(&run, Uses { pow: true, net: true }, &measured).unwrap();
        assert_eq!(all["tg_pow.attempt_ns"], 7.0);
        let mut partial = measured.clone();
        partial.remove("kernel.us_per_id");
        assert!(per_layer(&run, Uses::default(), &partial)
            .unwrap_err()
            .contains("kernel.us_per_id"));
    }
}
