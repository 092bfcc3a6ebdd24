//! The layer ladder underneath the workloads: each layer's public
//! functions timed directly, at the size of the workload being traced,
//! plus the equivalence twins (the same trial run two ways, whose
//! observations must agree). Every probe is a span with its operation
//! count, so the trace file carries the ladder too.

use crate::run::{run_trial, TrialEnv, TrialOut};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{edit_label, ladder_label, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use tg_core::dynamic::EpochIds;
use tg_core::routing::dual_search;
use tg_core::runtime::{EpochNet, ProtocolMsg};
use tg_core::scenario::{Defense, RuntimeChoice, ScenarioSpec};
use tg_core::GroupGraphView;
use tg_crypto::{sha256, Oracle, OracleFamily};
use tg_idspace::{Id, SortedRing};
use tg_overlay::GraphKind;
use tg_pow::puzzle::{attempt, PuzzleParams};
use tg_pow::{run_string_protocol, verify_batch, StringAdversary, StringParams};
use tg_sim::net::{NetStats, Wire};
use tg_sim::{derive_seed, parallel_map, stream_rng, Metrics, ResultStore};
use tg_verify::{run_model, ModelConfig};

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// Seconds per iteration of `f`: the median of three timed batches of
/// `iters` calls, each batch one span.
fn micro<R>(tr: &mut Tracer, name: &'static str, iters: u64, mut f: impl FnMut(u64) -> R) -> f64 {
    let batches: Vec<f64> = (0..3)
        .map(|_| {
            let ((), secs) = tr.time(name, iters, || {
                for i in 0..iters {
                    black_box(f(black_box(i)));
                }
            });
            secs / iters as f64
        })
        .collect();
    median(&batches)
}

/// `n` distinct pseudo-random ring points (an oracle, so no RNG crate).
fn ring_ids(n: usize) -> Vec<Id> {
    let oracle = Oracle::new(0x7269_6e67, 1);
    (0..n as u64).map(|i| oracle.hash_u64(i)).collect()
}

/// The probes that do not depend on the workload: computed once per
/// process. Returns the values and whether every self-check held.
pub fn fixed(seed: u64, scratch: &Path, tr: &mut Tracer) -> (Values, bool) {
    let mut v = Values::new();
    let mut ok = true;
    tr.tag("probe", 0, 0);
    let depth = tr.open("probes.fixed");

    // tg_crypto: the compression function and the five oracle shapes.
    let block = [0x5au8; 64];
    v.insert(
        "tg_crypto.sha256_64b_ns",
        1e9 * micro(tr, "probe.sha256_64b", 20_000, |i| {
            let mut b = block;
            b[0] = i as u8;
            sha256(&b)
        }),
    );
    let page = vec![0xa5u8; 4096];
    let per_page = micro(tr, "probe.sha256_4kib", 1_000, |_| sha256(black_box(&page)));
    v.insert("tg_crypto.sha256_4kib_mb_per_s", 4096.0 / per_page / 1e6);
    let oracle = Oracle::new(seed, 0x6831);
    v.insert(
        "tg_crypto.oracle_hash_id_ns",
        1e9 * micro(tr, "probe.oracle.hash_id", 20_000, |i| oracle.hash_id(Id(i))),
    );
    v.insert(
        "tg_crypto.oracle_hash_id_index_ns",
        1e9 * micro(tr, "probe.oracle.hash_id_index", 20_000, |i| {
            oracle.hash_id_index(Id(i), i as u32)
        }),
    );
    v.insert(
        "tg_crypto.oracle_hash_u64_pair_ns",
        1e9 * micro(tr, "probe.oracle.hash_u64_pair", 20_000, |i| oracle.hash_u64_pair(i, !i)),
    );
    v.insert(
        "tg_crypto.oracle_hash_u64_ns",
        1e9 * micro(tr, "probe.oracle.hash_u64", 20_000, |i| oracle.hash_u64(i)),
    );
    let word = [0x3cu8; 32];
    v.insert(
        "tg_crypto.oracle_hash_bytes_32b_ns",
        1e9 * micro(tr, "probe.oracle.hash_bytes", 20_000, |i| {
            let mut b = word;
            b[0] = i as u8;
            oracle.hash_bytes(&b)
        }),
    );

    // tg_idspace: sorting a population into a ring (clone included).
    for (name, span, n, iters) in [
        ("tg_idspace.ring_build_us_n5000", "probe.ring_build_n5000", 5000, 40),
        ("tg_idspace.ring_build_us_n316", "probe.ring_build_n316", 316, 600),
    ] {
        let ids = ring_ids(n);
        v.insert(name, 1e6 * micro(tr, span, iters, |_| SortedRing::new(ids.clone())));
    }

    // tg_pow: one puzzle attempt; one batch of 4 096 claims verified.
    let fam = OracleFamily::new(seed);
    let hard = PuzzleParams::calibrated(16, 2048);
    v.insert(
        "tg_pow.attempt_ns",
        1e9 * micro(tr, "probe.pow.attempt", 20_000, |i| attempt(&fam, &hard, (i, !i), 7)),
    );
    let easy = PuzzleParams { tau: Id::from_f64(0.5), ..hard };
    let claims: Vec<_> =
        (0u64..).filter_map(|i| attempt(&fam, &easy, (i, !i), 7)).take(4096).collect();
    let per_batch = micro(tr, "probe.pow.verify_batch", 3, |_| {
        verify_batch(&fam, &easy, &claims, 7).iter().filter(|&&good| good).count()
    });
    v.insert("tg_pow.verify_batch_ns_per_claim", 1e9 * per_batch / claims.len() as f64);
    ok &= check(verify_batch(&fam, &easy, &claims, 7).iter().all(|&g| g), "verify_batch rejects");

    // tg_core::runtime: the wire codec.
    let mut buf = Vec::with_capacity(16);
    let mut decoded = 0u64;
    v.insert(
        "runtime.wire_roundtrip_ns",
        1e9 * micro(tr, "probe.wire_roundtrip", 50_000, |i| {
            buf.clear();
            ProtocolMsg::Probe { search: i as u32, hop: 1 }.encode(&mut buf);
            decoded += u64::from(ProtocolMsg::decode(&buf).is_some());
        }),
    );
    ok &= check(decoded == 3 * 50_000, "ProtocolMsg does not round-trip");

    // tg_sim::parallel: spawning and joining the workers for nothing.
    let items = crate::sys::nproc().max(2);
    v.insert(
        "parallel.map_overhead_us",
        1e6 * micro(tr, "probe.parallel_map", 200, |i| parallel_map(vec![i; items], |x| x + 1)),
    );

    // tg_sim::store: the O(n) republish a per-epoch trace would hit.
    let dir = scratch.join(format!("store-{}-probe", std::process::id()));
    let appended = ResultStore::open(&dir).map_err(|e| e.to_string()).and_then(|store| {
        let line = "o2;1,0.95,1,0,0,632,16,0.05,4.1,NaN,NaN,0".to_string();
        store.put("probe", &vec![line.clone(); 64]).map_err(|e| e.to_string())?;
        let mut secs = Vec::new();
        for _ in 0..5 {
            // Back to 64 records, so every append republishes 65.
            store.put("probe", &vec![line.clone(); 64]).map_err(|e| e.to_string())?;
            let (r, t) = tr.time("probe.store.append", 1, || {
                store.append("probe", std::slice::from_ref(&line))
            });
            r.map_err(|e| e.to_string())?;
            secs.push(t);
        }
        Ok(median(&secs))
    });
    let _ = std::fs::remove_dir_all(&dir);
    match appended {
        Ok(secs) => v.insert("store.append_ms_at_64_records", secs * 1e3),
        Err(e) => {
            ok = check(false, &format!("store probe: {e}"));
            v.insert("store.append_ms_at_64_records", 0.0)
        }
    };

    // tg_verify: the tiny exhaustive model.
    let (report, secs) = tr.time("probe.model_tiny", 1, || run_model(&ModelConfig::tiny()));
    v.insert("tg_verify.model_tiny_ms", secs * 1e3);
    ok &= check(report.hard_violations() == 0, "the tiny model has hard violations");

    // The kernel ladder: one 3-epoch honest arena trial per size.
    for (name, n) in [
        ("kernel.us_per_id_n1000", 1000usize),
        ("kernel.us_per_id_n2000", 2000),
        ("kernel.us_per_id_n5000", 5000),
    ] {
        let label = ladder_label(n, derive_seed(seed, "probe-ladder", n as u64));
        let out = run_trial(&label, 3, TrialEnv::default(), tr);
        ok &= check(out.failed_steps == 0, "a ladder trial failed");
        let ids_per_step = out.counts.ids as f64 / out.counts.steps.max(1) as f64;
        v.insert(name, median(&out.step_ms) * 1e3 / ids_per_step.max(1.0));
    }
    tr.close(depth);
    (v, ok)
}

fn check(cond: bool, what: &str) -> bool {
    if !cond {
        eprintln!("FAILED probe check: {what}");
    }
    cond
}

/// Which optional layers a workload's labels exercise — read off the
/// parsed specs, never off the workload's name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Uses {
    pub pow: bool,
    pub net: bool,
}

pub fn uses(labels: &[String]) -> Uses {
    Uses { pow: labels.iter().any(|l| is_pow(l)), net: labels.iter().any(|l| is_actor(l)) }
}

fn is_pow(label: &str) -> bool {
    ScenarioSpec::parse(label).is_ok_and(|s| s.defense != Defense::NoPow)
}

fn is_actor(label: &str) -> bool {
    ScenarioSpec::parse(label).is_ok_and(|s| s.runtime == RuntimeChoice::Actor)
}

/// One trial run two ways.
struct Twin {
    /// Summed `driver.step` seconds of each variant.
    a_s: f64,
    b_s: f64,
    steps: usize,
    /// No step of either variant failed.
    clean: bool,
    /// The two variants' observation lines agreed in every pair.
    same: bool,
    violations: u64,
}

/// How a twin derives its two variants from a workload label.
struct Variant<'a> {
    edits: &'a [(&'a str, Option<&'a str>)],
    checked: bool,
}

impl Variant<'_> {
    fn run(&self, label: &str, epochs: usize, tr: &mut Tracer) -> TrialOut {
        let label = self.edits.iter().fold(label.to_string(), |l, (k, v)| edit_label(&l, k, *v));
        run_trial(&label, epochs, TrialEnv { store: None, checked: self.checked }, tr)
    }
}

fn twin(
    labels: &[&String],
    (a, b): (&Variant<'_>, &Variant<'_>),
    epochs: usize,
    reps: usize,
    tr: &mut Tracer,
) -> Twin {
    let mut t = Twin { a_s: 0.0, b_s: 0.0, steps: 0, clean: true, same: true, violations: 0 };
    for rep in 0..reps {
        for label in labels {
            // Alternate which side runs first so a warm cache or a slow
            // minute does not always land on the same variant.
            let (first, second) = if rep % 2 == 0 { (a, b) } else { (b, a) };
            let x = first.run(label, epochs, tr);
            let y = second.run(label, epochs, tr);
            let (oa, ob) = if rep % 2 == 0 { (x, y) } else { (y, x) };
            t.a_s += oa.step_ms.iter().sum::<f64>() / 1e3;
            t.b_s += ob.step_ms.iter().sum::<f64>() / 1e3;
            t.steps += epochs;
            t.clean &= oa.failed_steps == 0 && ob.failed_steps == 0;
            t.same &= oa.lines == ob.lines;
            t.violations += ob.counts.violations;
        }
    }
    t
}

/// The probes sized by workload `w`, and the twins. `step_ms` is the
/// workload's median step time, used only to budget the twins.
pub fn sized(
    w: &Workload,
    labels: &[String],
    uses: Uses,
    step_ms: f64,
    tr: &mut Tracer,
) -> (Values, bool) {
    let mut v = Values::new();
    let mut ok = true;
    tr.tag(w.name, 0, 0);
    let depth = tr.open("probes.sized");
    let spec = ScenarioSpec::parse(&labels[0]).expect("workload labels parse (tested)");
    let n = spec.n_good + spec.n_bad;
    let ids = ring_ids(n);
    let ring = SortedRing::new(ids.clone());
    let keys = ring_ids(4096 + n)[n..].to_vec();

    // tg_idspace at the workload's ring size.
    v.insert(
        "tg_idspace.successor_index_ns",
        1e9 * micro(tr, "probe.ring.successor_index", 100_000, |i| {
            ring.successor_index(keys[i as usize % keys.len()])
        }),
    );
    v.insert(
        "tg_idspace.index_of_ns",
        1e9 * micro(tr, "probe.ring.index_of", 100_000, |i| ring.index_of(ids[i as usize % n])),
    );

    // tg_overlay at the workload's ring size.
    for (name, span, kind) in [
        ("tg_overlay.chord_build_ms", "probe.overlay.chord_build", GraphKind::Chord),
        ("tg_overlay.d2b_build_ms", "probe.overlay.d2b_build", GraphKind::D2B),
    ] {
        v.insert(name, 1e3 * micro(tr, span, 3, |_| kind.build(ring.clone())));
    }
    let graph = spec.kind.build(ring.clone());
    v.insert(
        "tg_overlay.neighbors_ns",
        1e9 * micro(tr, "probe.overlay.neighbors", 5_000, |i| {
            graph.neighbors(ring.at(i as usize % n))
        }),
    );

    // A stepped driver's graphs, for the routing and string probes: the
    // first PoW trial if the workload has one.
    let pow_label = labels.iter().find(|l| is_pow(l));
    let stepped_label = pow_label.unwrap_or(&labels[0]);
    let stepped = ScenarioSpec::parse(stepped_label).and_then(|s| tg_pow::scenario::build(&s));
    match stepped {
        Ok(mut driver) => {
            driver.step();
            let graphs = driver.graphs();
            let (s0, s1) = (graphs.side(0), graphs.side(1));
            let groups = s0.len().max(1);
            let mut metrics = Metrics::new();
            v.insert(
                "routing.dual_search_us",
                1e6 * micro(tr, "probe.routing.dual_search", 2_000, |i| {
                    let key = keys[i as usize % keys.len()];
                    dual_search([&s0, &s1], i as usize % groups, key, &mut metrics)
                }),
            );
            if uses.pow {
                let mut rng = stream_rng(spec.seed, "probe-strings", 0);
                let params = StringParams::default();
                let per_run = micro(tr, "probe.pow.string_protocol", 1, |_| {
                    run_string_protocol(&s0, &params, StringAdversary::None, &mut rng).forwards
                });
                v.insert("tg_pow.string_protocol_ms", per_run * 1e3);
            }
        }
        Err(e) => ok = check(false, &format!("stepped driver: {e}")),
    }

    // The twins. Budgeted from the step time: the first trial, plus the
    // first PoW trial where the workload mixes defenses, and repeats
    // only while a side stays under about half a second.
    let epochs = w.epochs.min(3);
    let mut first = vec![&labels[0]];
    if let Some(l) = pow_label.filter(|l| *l != &labels[0] && 2.0 * epochs as f64 * step_ms < 500.0)
    {
        first.push(l);
    }
    let side_ms = first.len() as f64 * epochs as f64 * step_ms.max(0.1);
    let reps = ((500.0 / side_ms) as usize).clamp(1, 4);
    let plain = Variant { edits: &[], checked: false };

    let arena = Variant { edits: &[("kernel", Some("arena"))], checked: false };
    let default = Variant { edits: &[("kernel", None)], checked: false };
    let t = twin(&first, (&arena, &default), epochs, reps, tr);
    ok &= check(t.clean && t.same, "arena and default kernels disagree");
    v.insert("kernel.arena_vs_default_ratio", t.a_s / t.b_s);

    let checked = Variant { edits: &[], checked: true };
    let t = twin(&first, (&plain, &checked), epochs, reps, tr);
    ok &= check(t.clean && t.same, "CheckedDriver changed the observations");
    v.insert("tg_verify.checked_overhead_frac", (t.b_s - t.a_s) / t.a_s);
    v.insert("tg_verify.violations", t.violations as f64 / reps as f64);

    if let Some(label) = pow_label {
        let synthesized = Variant { edits: &[("strings", Some("synthesized"))], checked: false };
        let t = twin(&[label], (&synthesized, &plain), epochs, reps, tr);
        ok &= check(t.clean, "a strings twin trial failed");
        v.insert("tg_pow.strings_share", 1.0 - t.a_s / t.b_s);
    }

    if uses.net {
        let no_net: [(&str, Option<&str>); 5] =
            [("runtime", None), ("drop", None), ("lat", None), ("part", None), ("transport", None)];
        let sync = Variant { edits: &no_net, checked: false };
        let mut perfect = no_net.to_vec();
        perfect[0] = ("runtime", Some("actor"));
        let actor = Variant { edits: &perfect, checked: false };
        let t = twin(&first, (&sync, &actor), epochs, reps, tr);
        ok &= check(t.clean && t.same, "actor runtime over a perfect transport differs from sync");
        v.insert("runtime.actor_overhead_ms_per_op", (t.b_s - t.a_s) * 1e3 / t.steps as f64);

        let mem = Variant { edits: &[("transport", None)], checked: false };
        let t = twin(&first, (&mem, &plain), epochs, reps, tr);
        ok &= check(
            t.clean && t.same,
            "socket and in-memory transports disagree under the same faults",
        );
        v.insert("net.socket_overhead_ms_per_op", (t.b_s - t.a_s) * 1e3 / t.steps as f64);

        let actor_label = labels.iter().find(|l| is_actor(l)).expect("uses.net");
        ok &= net_phases(actor_label, &mut v, tr);
    }

    tr.close(depth);
    (v, ok)
}

/// Microseconds per sent message of one protocol phase.
fn phase(
    tr: &mut Tracer,
    net: &mut EpochNet,
    name: &'static str,
    f: impl FnOnce(&mut EpochNet),
) -> f64 {
    let sent = net.stats().sent;
    let ((), secs) = tr.time(name, 1, || f(net));
    secs * 1e6 / (net.stats().sent - sent).max(1) as f64
}

/// `EpochNet::for_spec`, then the three protocol phases, over the
/// in-memory and the socket transport under the workload's fault plan.
fn net_phases(label: &str, v: &mut Values, tr: &mut Tracer) -> bool {
    const EPOCHS: u64 = 5;
    let mut totals = Vec::new();
    for (transport, connect, announce, probe, string) in [
        (None, None, "net.mem.announce_us_per_msg", "net.mem.probe_us_per_msg", None),
        (
            Some("socket"),
            Some("net.socket.connect_ms"),
            "net.socket.announce_us_per_msg",
            "net.socket.probe_us_per_msg",
            Some("net.socket.string_us_per_msg"),
        ),
    ] {
        let spec = ScenarioSpec::parse(&edit_label(label, "transport", transport))
            .expect("an edited workload label parses");
        let good = ring_ids(spec.n_good);
        if let Some(name) = connect {
            let connects: Vec<f64> = (0..5)
                .map(|_| tr.time("probe.net.connect", 1, || EpochNet::for_spec(&spec)).1)
                .collect();
            v.insert(name, median(&connects) * 1e3);
        }
        let mut net = EpochNet::for_spec(&spec);
        let (mut t_announce, mut t_probe, mut t_string) = (Vec::new(), Vec::new(), Vec::new());
        for epoch in 1..=EPOCHS {
            t_announce.push(phase(tr, &mut net, "probe.net.announce", |net| {
                let mut ids = EpochIds { good: good.clone(), bad: Vec::new() };
                net.announce_phase(epoch, &mut ids);
            }));
            t_probe.push(phase(tr, &mut net, "probe.net.probe", |net| {
                black_box(net.probe_phase(epoch, spec.searches));
            }));
            t_string.push(phase(tr, &mut net, "probe.net.string", |net| {
                black_box(net.string_phase(epoch, epoch));
            }));
        }
        v.insert(announce, median(&t_announce));
        v.insert(probe, median(&t_probe));
        if let Some(name) = string {
            v.insert(name, median(&t_string));
        }
        totals.push(net.stats());
    }
    // One probe epoch = announce + probe + string phases.
    let s: NetStats = totals[0];
    let per_epoch = |count: u64| count as f64 / EPOCHS as f64;
    v.insert("net.sent_per_op", per_epoch(s.sent));
    v.insert("net.delivered_frac", s.delivery_fraction());
    v.insert("net.dropped_per_op", per_epoch(s.dropped + s.partition_cut));
    v.insert("net.late_per_op", per_epoch(s.late));
    v.insert("net.mean_latency_ticks", s.mean_latency_ticks());
    check(totals[0] == totals[1], "mem and socket NetStats differ under the same fault plan")
}
