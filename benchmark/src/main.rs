//! The repository benchmark: four label-driven workloads run in
//! interleaved rounds, end-to-end metrics from untraced rounds, and —
//! with `--trace` — a span-recorded round plus direct layer probes for
//! the per-layer ladder. See `benchmark/README.md`.

mod compare;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Value;
use report::WorkloadRun;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: benchmark [--seed N] [--rounds R] [--trace] [--out FILE] [--bless]
       benchmark --workload NAME --seed N --seconds S --trace 0|1
       benchmark --compare A.json B.json
       benchmark --list

  (no --workload)  all four workloads in R interleaved rounds (default 8);
                   --trace adds a span-recorded round and the layer probes
  --workload NAME  one workload, rounds until S seconds are used; the last
                   line of stdout is one JSON object (end-to-end metrics
                   with --trace 0, per-layer metrics with --trace 1)
  --out FILE       write the result document (what --compare reads)
  --bless          rewrite benchmark/expected/*.sha256 (seed 42, >= 8 rounds)
  --compare A B    one row per workload x end-to-end metric; exit 1 on `worse`
  --list           the registry: workloads and metrics with unit, direction,
                   bound, and what each should move";

/// The seed whose observation digests are committed.
const PINNED_SEED: u64 = 42;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    rounds: usize,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: PINNED_SEED,
            rounds: metrics::NOMINAL_ROUNDS,
            seconds: None,
            trace: false,
            out: None,
            bless: false,
            compare: None,
            list: false,
        };
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    a.workload = Some(workloads::find(&name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}` (known: {})", known.join(", "))
                    })?);
                }
                "--seed" => {
                    a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--rounds" => {
                    a.rounds = value("a number")?.parse().map_err(|e| format!("--rounds: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 =
                        value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    a.seconds = Some(s);
                }
                "--trace" => {
                    // Bare `--trace` switches it on; the driver passes 0 or 1.
                    a.trace = match argv.next_if(|v| v == "0" || v == "1") {
                        Some(v) => v == "1",
                        None => true,
                    };
                }
                "--out" => a.out = Some(value("a file")?.into()),
                "--bless" => a.bless = true,
                "--compare" => {
                    a.compare = Some((value("two files")?.into(), value("two files")?.into()))
                }
                "--list" => a.list = true,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if a.rounds == 0 || a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
            return Err("--rounds and --seconds must be positive".to_string());
        }
        if a.seconds.is_some() != a.workload.is_some() {
            return Err("--workload and --seconds go together".to_string());
        }
        if a.bless
            && (a.seed != PINNED_SEED || a.workload.is_some() || a.rounds < metrics::NOMINAL_ROUNDS)
        {
            return Err(format!("--bless needs a full pass at seed {PINNED_SEED}"));
        }
        Ok(a)
    }
}

/// The benchmark's own directory (`benchmark/` of the checkout it was
/// built in): expected digests are read from it, and `out/` under it
/// is the only place the benchmark writes.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn expected_path(w: &Workload) -> PathBuf {
    home().join("expected").join(format!("{}.sha256", w.name))
}

/// Run the rounds: `for r in rounds { for w in plan { slice r of w } }`
/// — round-robin, so a slow minute on a shared host lands on every
/// workload instead of one.
fn measure(plan: &[&'static Workload], args: &Args, scratch: &Path) -> (Vec<WorkloadRun>, Tracer) {
    let mut runs: Vec<WorkloadRun> = plan.iter().map(|w| WorkloadRun::new(w)).collect();
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    // A timed run keeps 40 % of its budget for the probes when tracing.
    let budget = args.seconds.map(|s| if args.trace { 0.6 * s } else { s });
    // A full pass traces one round per workload; a timed run pairs every
    // untraced round with a traced one.
    let max_rounds = if budget.is_some() { 64 } else { args.rounds };
    let traced_rounds = match (args.trace, budget) {
        (false, _) => 0,
        (true, Some(_)) => max_rounds,
        (true, None) => 1,
    };
    let started = Instant::now();
    for r in 0..max_rounds {
        for run in &mut runs {
            run.untraced.push(run::run_slice(run.w, args.seed, r as u32, scratch, &mut off));
        }
        if r < traced_rounds {
            for run in &mut runs {
                run.traced.push(run::run_slice(run.w, args.seed, r as u32, scratch, &mut on));
            }
        }
        if let Some(budget) = budget {
            let elapsed = started.elapsed().as_secs_f64();
            if r >= 1 && elapsed + elapsed / (r + 1) as f64 > budget {
                break;
            }
        }
    }
    (runs, on)
}

/// Compare (or, with `--bless`, rewrite) the committed seed-42 digests:
/// one line per round. Other seeds have nothing to compare against.
fn check_digests(run: &mut WorkloadRun, args: &Args) {
    if args.seed != PINNED_SEED {
        return;
    }
    let path = expected_path(run.w);
    if args.bless {
        let text: String = run
            .untraced
            .iter()
            .take(metrics::NOMINAL_ROUNDS)
            .map(|s| format!("{}\n", s.digest))
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create benchmark/expected");
        }
        std::fs::write(&path, text).expect("write expected digests");
        println!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    let expected: Vec<&str> = expected.lines().collect();
    if expected.is_empty() {
        eprintln!("FAILED {}: no committed digests at {}", run.w.name, path.display());
        run.digests_ok = false;
    }
    for s in run.untraced.iter().chain(&run.traced) {
        if expected.get(s.round as usize).is_some_and(|want| *want != s.digest) {
            eprintln!(
                "FAILED {} round {}: observation digest {} differs from the committed {}",
                run.w.name, s.round, s.digest, expected[s.round as usize]
            );
            run.digests_ok = false;
        }
    }
}

/// Print the registry: every workload and metric the benchmark knows.
fn list() {
    println!("workloads (one op = one epoch; sweep_cells: one cell):");
    for w in &WORKLOADS {
        println!(
            "  {:<14} {} trial(s) x {} epoch(s) per round — {}",
            w.name, w.trials, w.epochs, w.why
        );
    }
    println!("\nend-to-end metrics (per workload; bound = allowed worsening):");
    for e in &metrics::END_TO_END {
        let (unit, better, bound) = (e.unit, e.better.label(), e.bound * 100.0);
        println!("  {:<14} {unit:<6} {better:<6} {bound:>3.0}%  {}", e.name, e.what);
    }
    println!("\nper-layer metrics (traced run; no bound) -> what each should move:");
    for p in &metrics::PER_LAYER {
        println!(
            "  {:<36} {:<6} {:<6} [{:?}] {}",
            p.name,
            p.unit,
            p.better.label(),
            p.layer,
            p.moves
        );
    }
}

/// The per-layer metrics of one traced workload: spans and counts from
/// its rounds, the probes at its size, and the process-wide fixed probes.
fn layer_metrics(
    run: &mut WorkloadRun,
    seed: u64,
    (fixed, fixed_ok): &(probes::Values, bool),
    tracer: &mut Tracer,
) -> Result<probes::Values, String> {
    let labels = workloads::labels(run.w, seed, 0);
    let uses = probes::uses(&labels);
    let mut measured = report::layer_from_rounds(run, tracer.spans());
    let step_ms = measured["driver.step_ms_p50"];
    let (sized, sized_ok) = probes::sized(run.w, &labels, uses, step_ms, tracer);
    run.probes_ok = *fixed_ok && sized_ok;
    measured.extend(fixed.iter().chain(&sized).map(|(k, v)| (*k, *v)));
    // One `hash_id_index` per membership slot: the share of a step the
    // oracle accounts for, computed rather than timed.
    let hash_ns = run.member_slots_per_step() * measured["tg_crypto.oracle_hash_id_index_ns"];
    measured.insert("kernel.hash_share_computed", hash_ns / (step_ms * 1e6).max(1.0));
    report::per_layer(run, uses, &measured)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(why) => {
                eprintln!("error: {why}");
                ExitCode::from(2)
            }
        };
    }

    let plan: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let scratch = home().join("out");
    let started = Instant::now();
    let (mut runs, mut tracer) = measure(&plan, &args, &scratch);
    let fixed = args.trace.then(|| probes::fixed(args.seed, &scratch, &mut tracer));

    let mut docs = Vec::new();
    let mut last_line = None;
    let mut all_correct = true;
    for run in &mut runs {
        check_digests(run, &args);
        let e2e = report::end_to_end(run);
        let layer = match &fixed {
            None => None,
            Some(fixed) => match layer_metrics(run, args.seed, fixed, &mut tracer) {
                Ok(layer) => Some(layer),
                Err(why) => {
                    eprintln!("error: {why}");
                    return ExitCode::from(3);
                }
            },
        };
        report::print_workload(run, &e2e, layer.as_ref());
        all_correct &= run.correct();

        let e2e_json = report::metrics_json(&e2e, report::end_to_end_units());
        let layer_json = layer.as_ref().map(|l| report::metrics_json(l, report::per_layer_units()));
        let head = [
            ("correct", Value::Bool(run.correct())),
            ("attempted", Value::Num(run.attempted() as f64)),
            ("failed", Value::Num(run.failed() as f64)),
        ];
        // What the driver reads: end-to-end metrics untraced, per-layer
        // metrics traced.
        let shown = if args.trace { layer_json.clone() } else { Some(e2e_json.clone()) };
        last_line = shown.map(|m| Value::obj(head.clone().into_iter().chain([("metrics", m)])));
        let mut doc = vec![("name", Value::str(run.w.name))];
        doc.extend(head);
        doc.extend([
            ("rounds", Value::Num(run.untraced.len() as f64)),
            ("samples", Value::Num(run.samples() as f64)),
            ("round_ops_per_s", Value::nums(&run.round_ops_per_s())),
            ("end_to_end", e2e_json),
        ]);
        doc.extend(layer_json.map(|l| ("per_layer", l)));
        docs.push(Value::obj(doc));
    }

    if args.trace {
        let path = scratch.join("trace.jsonl");
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("\n{} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{} workload(s), seed {}, {} worker thread(s), {:.1} s",
        runs.len(),
        args.seed,
        sys::nproc(),
        started.elapsed().as_secs_f64()
    );
    if let Some(out) = &args.out {
        let doc = Value::obj([
            ("schema", Value::str("tg-benchmark/1")),
            ("seed", Value::Num(args.seed as f64)),
            ("traced", Value::Bool(args.trace)),
            ("machine", sys::machine_json()),
            ("workloads", Value::Arr(docs)),
        ]);
        if let Err(e) = std::fs::write(out, doc.render_pretty()) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("result document written to {}", out.display());
    }
    if let (Some(_), Some(line)) = (args.workload, last_line) {
        println!("{}", line.render());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a digest, twin equivalence, warm replay or sanity check failed");
        ExitCode::from(1)
    }
}
