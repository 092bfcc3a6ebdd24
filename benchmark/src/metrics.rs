//! The metric registry: every name the benchmark prints, with its unit,
//! its direction, and — for per-layer metrics — the layer it belongs to
//! and the end-to-end metric it should move. `BENCHMARK.json` lists the
//! same names; a test holds the two together.

/// The layer (module) a per-layer metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Kernel,
    Crypto,
    Idspace,
    Overlay,
    Routing,
    Pow,
    Net,
    Store,
    Parallel,
    Verify,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.2,
        what: "median over rounds of ops / timed seconds (setup excluded)",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.2,
        what: "median wall time of one op, pooled over all rounds",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.2,
        what: "median over rounds of process user+sys CPU / ops (shows a wall-clock win \
               bought by burning the second core)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        what: "median over rounds of VmHWM for the workload's slice",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "8 x median over rounds of the round's parse + build (+ store open, socket \
               connect) time",
    },
];

/// A per-layer metric. No bound: it explains, it does not gate.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: Layer,
    /// The end-to-end metric(s) it should move, and on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: Layer,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, layer, moves }
}

const KERNEL_MOVES: &str = "ops_per_s, cpu_ms_per_op, peak_rss_mb: scale_honest ~1:1, \
                            sweep_cells partly, pow_protocol <= 1/4, net_faulty <= 1/2";
const CRYPTO_MOVES: &str = "ops_per_s via kernel.hash_share_computed on scale_honest; ~0 on \
                            net_faulty";
const POW_MOVES: &str = "ops_per_s, op_ms_p50 on pow_protocol (~3/4) and the f∘g half of \
                         sweep_cells / net_faulty; 0 on scale_honest";
const NET_MOVES: &str = "ops_per_s, op_ms_p50 on net_faulty only (~1/3); 0 elsewhere";
const STORE_MOVES: &str = "put -> ops_per_s on sweep_cells; get is gate-free by design";

pub const PER_LAYER: [PerLayer; 69] = [
    // Harness spans: the benchmark's own calls, timed from outside.
    m("scenario.parse_us", "us", Lower, Layer::Harness, "setup_s (all; negligible)"),
    m("scenario.build_ms", "ms", Lower, Layer::Harness, "setup_s; ops_per_s on sweep_cells"),
    m("driver.step_ms_p50", "ms", Lower, Layer::Harness, "ops_per_s, op_ms_p50"),
    m("driver.step_ms_p90", "ms", Lower, Layer::Harness, "the tail; >= 100 ops only, else 0"),
    m("driver.first_step_ratio", "ratio", Lower, Layer::Harness, "warm-up cost hidden in step 1"),
    m("obs.encode_us_per_row", "us", Lower, Layer::Harness, "ops_per_s on sweep_cells (small)"),
    m("obs.decode_us_per_row", "us", Lower, Layer::Harness, "warm replay only; gate-free"),
    // tg_core::arena / tg_core::dynamic — the epoch kernel.
    m("kernel.ids_per_op", "count", Higher, Layer::Kernel, "sizes the op; exact"),
    m("kernel.member_slots_per_op", "count", Lower, Layer::Kernel, KERNEL_MOVES),
    m("kernel.links_required_per_op", "count", Lower, Layer::Kernel, KERNEL_MOVES),
    m("kernel.links_failed_per_op", "count", Lower, Layer::Kernel, "correctness drift; exact"),
    m("kernel.captured_frac_mean", "ratio", Lower, Layer::Kernel, "regime guard; exact"),
    m("kernel.us_per_id", "us", Lower, Layer::Kernel, KERNEL_MOVES),
    m("kernel.ids_per_s", "1/s", Higher, Layer::Kernel, KERNEL_MOVES),
    m("kernel.us_per_id_n1000", "us", Lower, Layer::Kernel, "superlinearity ladder (probe)"),
    m("kernel.us_per_id_n2000", "us", Lower, Layer::Kernel, "superlinearity ladder (probe)"),
    m("kernel.us_per_id_n5000", "us", Lower, Layer::Kernel, "ops_per_s on scale_honest (probe)"),
    m("kernel.arena_vs_default_ratio", "ratio", Lower, Layer::Kernel, "arena time / default time"),
    m("kernel.hash_share_computed", "ratio", Lower, Layer::Kernel, "computed, not measured"),
    // tg_crypto.
    m("tg_crypto.sha256_64b_ns", "ns", Lower, Layer::Crypto, CRYPTO_MOVES),
    m("tg_crypto.sha256_4kib_mb_per_s", "MB/s", Higher, Layer::Crypto, CRYPTO_MOVES),
    m("tg_crypto.oracle_hash_id_ns", "ns", Lower, Layer::Crypto, CRYPTO_MOVES),
    m("tg_crypto.oracle_hash_id_index_ns", "ns", Lower, Layer::Crypto, CRYPTO_MOVES),
    m("tg_crypto.oracle_hash_u64_pair_ns", "ns", Lower, Layer::Crypto, CRYPTO_MOVES),
    m("tg_crypto.oracle_hash_u64_ns", "ns", Lower, Layer::Crypto, CRYPTO_MOVES),
    m("tg_crypto.oracle_hash_bytes_32b_ns", "ns", Lower, Layer::Crypto, CRYPTO_MOVES),
    // tg_idspace.
    m("tg_idspace.successor_index_ns", "ns", Lower, Layer::Idspace, "ops_per_s on scale_honest"),
    m("tg_idspace.index_of_ns", "ns", Lower, Layer::Idspace, "ops_per_s on scale_honest"),
    m("tg_idspace.ring_build_us_n5000", "us", Lower, Layer::Idspace, "ops_per_s on scale_honest"),
    m("tg_idspace.ring_build_us_n316", "us", Lower, Layer::Idspace, "setup_s on sweep_cells"),
    // tg_overlay.
    m(
        "tg_overlay.chord_build_ms",
        "ms",
        Lower,
        Layer::Overlay,
        "ops_per_s, setup_s: all but scale",
    ),
    m("tg_overlay.d2b_build_ms", "ms", Lower, Layer::Overlay, "ops_per_s, setup_s: scale_honest"),
    m("tg_overlay.neighbors_ns", "ns", Lower, Layer::Overlay, "ops_per_s (rebuilt per side/epoch)"),
    // tg_core::routing.
    m("routing.searches_per_op", "count", Lower, Layer::Routing, "predicted to move nothing"),
    m("routing.msgs_per_search", "count", Lower, Layer::Routing, "predicted to move nothing"),
    m("routing.hops_per_search", "count", Lower, Layer::Routing, "predicted to move nothing"),
    m(
        "routing.dual_search_us",
        "us",
        Lower,
        Layer::Routing,
        "measured negligible; kept so it stays",
    ),
    // tg_pow.
    m("tg_pow.minted_good_per_op", "count", Higher, Layer::Pow, "sizes the minting work; exact"),
    m("tg_pow.attempt_ns", "ns", Lower, Layer::Pow, POW_MOVES),
    m("tg_pow.verify_batch_ns_per_claim", "ns", Lower, Layer::Pow, POW_MOVES),
    m("tg_pow.string_protocol_ms", "ms", Lower, Layer::Pow, POW_MOVES),
    m("tg_pow.strings_share", "ratio", Lower, Layer::Pow, POW_MOVES),
    // tg_core::runtime + tg_sim::net.
    m("net.mem.announce_us_per_msg", "us", Lower, Layer::Net, NET_MOVES),
    m("net.socket.announce_us_per_msg", "us", Lower, Layer::Net, NET_MOVES),
    m("net.mem.probe_us_per_msg", "us", Lower, Layer::Net, NET_MOVES),
    m("net.socket.probe_us_per_msg", "us", Lower, Layer::Net, NET_MOVES),
    m("net.socket.string_us_per_msg", "us", Lower, Layer::Net, NET_MOVES),
    m("net.socket.connect_ms", "ms", Lower, Layer::Net, "setup_s on net_faulty"),
    m("runtime.wire_roundtrip_ns", "ns", Lower, Layer::Net, NET_MOVES),
    m("net.sent_per_op", "count", Lower, Layer::Net, NET_MOVES),
    m("net.delivered_frac", "ratio", Higher, Layer::Net, "fault plan, not speed; exact"),
    m("net.dropped_per_op", "count", Lower, Layer::Net, "fault plan, not speed; exact"),
    m("net.late_per_op", "count", Lower, Layer::Net, "fault plan, not speed; exact"),
    m("net.mean_latency_ticks", "ticks", Lower, Layer::Net, "fault plan, not speed; exact"),
    m("runtime.actor_overhead_ms_per_op", "ms", Lower, Layer::Net, NET_MOVES),
    m("net.socket_overhead_ms_per_op", "ms", Lower, Layer::Net, NET_MOVES),
    // tg_sim::store.
    m("store.put_ms_per_stream", "ms", Lower, Layer::Store, STORE_MOVES),
    m("store.get_us_per_stream", "us", Lower, Layer::Store, STORE_MOVES),
    m("store.bytes_per_stream", "bytes", Lower, Layer::Store, STORE_MOVES),
    m("store.warm_hit_frac", "ratio", Higher, Layer::Store, "must be 1"),
    m(
        "store.append_ms_at_64_records",
        "ms",
        Lower,
        Layer::Store,
        "what a per-epoch trace would hit",
    ),
    // tg_sim::parallel.
    m("parallel.sweep_speedup", "ratio", Higher, Layer::Parallel, "ops_per_s vs cpu_ms_per_op"),
    m("parallel.map_overhead_us", "us", Lower, Layer::Parallel, "ops_per_s on sweep_cells"),
    // tg_verify.
    m("tg_verify.checked_overhead_frac", "ratio", Lower, Layer::Verify, "nothing (checks are off)"),
    m("tg_verify.violations", "count", Lower, Layer::Verify, "reported, not a failure"),
    m("tg_verify.model_tiny_ms", "ms", Lower, Layer::Verify, "nothing; guards aim-3 work"),
    // The harness itself.
    m("harness.round_spread", "ratio", Lower, Layer::Harness, "IQR / median of round throughputs"),
    m("trace.overhead_frac", "ratio", Lower, Layer::Harness, "traced rounds vs untraced median"),
    m("trace.unattributed_frac", "ratio", Lower, Layer::Harness, "trial time no span accounts for"),
];

/// Nominal rounds of a full pass; `setup_s` is scaled to this many so
/// it reads the same whether a run measured 4 rounds or 8.
pub const NOMINAL_ROUNDS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("`{key}` missing in {v:?}"))
    }

    /// `BENCHMARK.json` and the harness must name the same things.
    #[test]
    fn benchmark_json_equals_the_registry() {
        let doc = benchmark_json();
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, want);

        let e2e = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.label(), "{}", want.name);
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound), "{}", want.name);
        }

        let layers = doc.get("per_layer").expect("per_layer").as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.label(), "{}", want.name);
        }
    }

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        {
            assert!(ok_name(name), "bad metric name `{name}`");
            assert!(ok_unit(unit), "bad unit `{unit}` on {name}");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() >= 2);
    }
}
