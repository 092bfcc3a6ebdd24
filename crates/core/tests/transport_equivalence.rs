//! End-to-end transport equivalence through the actor runtime: a
//! scenario stepped over the loopback-TCP transport must produce the
//! same observation stream as the identical scenario over the
//! in-memory transport — under a perfect network *and* under every
//! fault-plan shape the e14 sweep exercises, and from inside a
//! `parallel_map` fan-out where many socket scenarios race.
//!
//! Both transports share `FaultPlan::fate`, so a given (seed, epoch,
//! phase, src, dst, seq) loses the same frames on the wire as in the
//! heap; the actor runtime on top therefore sees identical delivery
//! streams, and every capture/search/coverage observation follows.

use tg_core::scenario::{ObsRow, RuntimeChoice, ScenarioSpec, TransportChoice};
use tg_sim::parallel_map;

/// A small strategic scenario on the actor runtime with the given
/// fault knobs.
fn spec(drop: f64, lat: u64, part: u64) -> ScenarioSpec {
    ScenarioSpec::new(200, 42)
        .beta(0.12)
        .churn(0.15)
        .attack_requests(0)
        .searches(60)
        .runtime(RuntimeChoice::Actor)
        .drop_rate(drop)
        .latency(lat)
        .partition(part)
}

/// Step `epochs` epochs and return the observation rows in their
/// bit-exact encoded form (`ObsRow` has NaN-bearing optional columns,
/// so the encoded line — not a float compare — is the identity).
fn rows(spec: &ScenarioSpec, epochs: usize) -> Vec<String> {
    let mut driver = spec.build().expect("actor scenarios build");
    (0..epochs).map(|_| ObsRow::of(driver.step()).encode_line()).collect()
}

fn assert_observation_identical(drop: f64, lat: u64, part: u64) {
    let mem = rows(&spec(drop, lat, part).transport(TransportChoice::Mem), 3);
    let sock = rows(&spec(drop, lat, part).transport(TransportChoice::Socket), 3);
    assert_eq!(
        mem, sock,
        "actor observations diverged between transports at drop={drop} lat={lat} part={part}"
    );
}

/// Perfect network: the socket path must be byte-identical to the
/// in-memory path (which is itself pinned byte-identical to the
/// synchronous runtime by the golden suites).
#[test]
fn socket_actor_run_matches_mem_actor_run_on_perfect_network() {
    assert_observation_identical(0.0, 0, 0);
}

/// Every fault axis the e14 sweep drives, one at a time and combined.
#[test]
fn socket_actor_run_matches_mem_actor_run_under_faults() {
    assert_observation_identical(0.3, 0, 0);
    assert_observation_identical(0.0, 6, 0);
    assert_observation_identical(0.0, 0, 16);
    assert_observation_identical(0.4, 5, 24);
}

/// The same equivalence from inside a thread fan-out: one socket
/// scenario per worker, all binding loopback connections concurrently, each
/// compared against its single-threaded in-memory twin.
#[test]
fn equivalence_holds_inside_parallel_map() {
    let cells = vec![(0.0, 0, 0), (0.3, 0, 0), (0.4, 5, 24), (0.2, 3, 8)];
    let expected: Vec<Vec<String>> = cells
        .iter()
        .map(|&(d, l, p)| rows(&spec(d, l, p).transport(TransportChoice::Mem), 2))
        .collect();
    let got =
        parallel_map(cells, |(d, l, p)| rows(&spec(d, l, p).transport(TransportChoice::Socket), 2));
    assert_eq!(got, expected, "socket scenarios diverged under concurrency");
}
