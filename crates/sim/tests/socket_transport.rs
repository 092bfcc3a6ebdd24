//! Transport fault-equivalence suite: the loopback-TCP transport must
//! report the same `NetStats` shape and deliver the same envelope
//! stream as the in-memory transport under any matching [`FaultPlan`],
//! and it must do so *at any thread count* — every worker of a
//! `parallel_map` fan-out owns its own socket pair, so concurrent
//! transports cannot interfere with each other's counters.
//!
//! The socket transport wraps the in-memory one and shares its
//! admission step, so the equivalence is by construction; these tests
//! pin it from outside the crate, through the public API only, the way
//! the actor runtime uses it.

use tg_sim::{
    parallel_map, Envelope, FaultPlan, InMemoryTransport, NetStats, SocketTransport, Transport,
    NO_DEADLINE,
};

const NODES: u64 = 48;

/// The fault axes the e14 sweep exercises, plus the perfect plan.
fn plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::perfect(),
        FaultPlan { drop_rate: 0.25, latency_max: 0, partition_ticks: 0 },
        FaultPlan { drop_rate: 0.0, latency_max: 9, partition_ticks: 0 },
        FaultPlan { drop_rate: 0.4, latency_max: 7, partition_ticks: 5 },
    ]
}

/// Every delivery in order, and the final counters.
type Outcome = (Vec<Envelope<u64>>, NetStats);

/// Drive one transport through three phases of all-to-aggregator plus
/// scatter traffic and collect (deliveries, stats). After every drained
/// phase each sent message is accounted for exactly once.
fn drive(t: &mut dyn Transport<u64>, window: u64) -> Outcome {
    let mut out = Vec::new();
    for epoch in 0..2 {
        for phase in 0..3 {
            t.begin_phase(epoch, phase, window);
            for src in 0..NODES {
                t.send(src, 0, src % 11, epoch << 32 | phase << 16 | src);
                t.send(0, src, (src * 3) % 11, src);
            }
            while let Some(env) = t.recv() {
                out.push(env);
            }
            let s = t.stats();
            assert_eq!(s.sent, s.delivered + s.dropped + s.partition_cut + s.late, "{s:?}");
        }
    }
    (out, t.stats())
}

/// Hops a relayed message travels before its chain ends.
const RELAY_HOPS: u64 = 3;

/// Drive one transport through relay chains, the shape of the actor
/// runtime's probe phase: every delivery of hop `h < RELAY_HOPS`
/// forwards hop `h + 1` from inside the `recv` loop, sent at its own
/// delivery tick. Collects (deliveries, stats) like [`drive`].
fn relay(t: &mut dyn Transport<u64>, window: u64) -> Outcome {
    let mut out = Vec::new();
    for epoch in 0..2 {
        for phase in 0..3 {
            t.begin_phase(epoch, phase, window);
            for src in 1..NODES {
                t.send(src, (src * 7) % NODES, src % 11, src << 8);
            }
            while let Some(env) = t.recv() {
                let hop = env.msg & 0xFF;
                if hop < RELAY_HOPS {
                    let next = (env.dst * 5 + 1) % NODES;
                    t.send(env.dst, next, env.deliver_tick, env.msg + 1);
                }
                out.push(env);
            }
            let s = t.stats();
            assert_eq!(s.sent, s.delivered + s.dropped + s.partition_cut + s.late, "{s:?}");
        }
    }
    (out, t.stats())
}

/// One (plan, seed, window) cell of the `run` schedule ([`drive`] or
/// [`relay`]) compared mem-vs-socket.
fn assert_equivalent(
    run: fn(&mut dyn Transport<u64>, u64) -> Outcome,
    plan: FaultPlan,
    seed: u64,
    window: u64,
) {
    let (mem_env, mem_stats) = run(&mut InMemoryTransport::new(plan, seed), window);
    let mut socket =
        SocketTransport::connect(plan, seed).expect("loopback connects in the test net");
    let (sock_env, sock_stats) = run(&mut socket, window);
    assert_eq!(mem_stats, sock_stats, "NetStats diverged for {plan:?} seed {seed}");
    assert_eq!(mem_env.len(), sock_env.len(), "delivery count diverged for {plan:?}");
    for (m, s) in mem_env.iter().zip(&sock_env) {
        assert_eq!(
            (m.src, m.dst, m.sent_tick, m.deliver_tick, m.msg),
            (s.src, s.dst, s.sent_tick, s.deliver_tick, s.msg),
            "envelope stream diverged for {plan:?}"
        );
    }
}

/// Single-threaded equivalence across every fault plan, with both an
/// unbounded phase and a tight deadline that forces late-drops.
#[test]
fn socket_reports_in_memory_stats_under_all_fault_plans() {
    for (i, plan) in plans().into_iter().enumerate() {
        assert_equivalent(drive, plan, 42 + i as u64, NO_DEADLINE);
        assert_equivalent(drive, plan, 42 + i as u64, 6);
    }
}

/// Follow-up sends from inside the `recv` loop: a frame sent mid-drain
/// may belong before messages already queued, and the socket must still
/// deliver the in-memory order.
#[test]
fn relayed_sends_inside_recv_keep_the_in_memory_order() {
    for (i, plan) in plans().into_iter().enumerate() {
        assert_equivalent(relay, plan, 7 + i as u64, NO_DEADLINE);
        assert_equivalent(relay, plan, 7 + i as u64, 9);
    }
}

/// The same cells fanned out across worker threads: `parallel_map`
/// spawns one thread per cell, so several socket transports run their
/// loopback connections concurrently. Stats must match the single-threaded
/// in-memory run for every cell regardless of interleaving.
#[test]
fn equivalence_holds_across_concurrent_transports() {
    let cells: Vec<(FaultPlan, u64)> =
        plans().into_iter().enumerate().map(|(i, p)| (p, 100 + i as u64)).collect();
    let expected: Vec<NetStats> =
        cells.iter().map(|&(p, s)| drive(&mut InMemoryTransport::new(p, s), 9).1).collect();
    // Two socket transports per plan, racing each other and the other
    // plans' connections.
    let doubled: Vec<(FaultPlan, u64)> = cells.iter().chain(cells.iter()).copied().collect();
    let got = parallel_map(doubled, |(plan, seed)| {
        let mut t = SocketTransport::connect(plan, seed).expect("loopback connects");
        drive(&mut t, 9).1
    });
    for (i, stats) in got.iter().enumerate() {
        assert_eq!(*stats, expected[i % expected.len()], "cell {i} diverged under concurrency");
    }
}

/// Capture-relevant monotonicity at the stats level: raising the drop
/// rate with everything else fixed never delivers more messages on
/// either transport, and the two transports agree on the count.
#[test]
fn delivery_falls_monotonically_with_drop_rate_on_both_transports() {
    let mut last_mem = u64::MAX;
    let mut last_sock = u64::MAX;
    for (i, drop) in [0.0, 0.2, 0.5, 0.8].into_iter().enumerate() {
        let plan = FaultPlan { drop_rate: drop, latency_max: 3, partition_ticks: 2 };
        let mem = drive(&mut InMemoryTransport::new(plan, 7), NO_DEADLINE).1;
        let mut socket = SocketTransport::connect(plan, 7).expect("loopback connects");
        let sock = drive(&mut socket, NO_DEADLINE).1;
        assert_eq!(mem, sock, "rung {i}: transports disagree");
        assert!(mem.delivered <= last_mem, "mem delivery rose with drop rate");
        assert!(sock.delivered <= last_sock, "socket delivery rose with drop rate");
        last_mem = mem.delivered;
        last_sock = sock.delivered;
    }
}
