//! Injectable message transport with deterministic fault injection.
//!
//! The actor runtime (`tg_core::runtime`) splits an epoch into per-node
//! actors that exchange typed protocol messages instead of advancing as
//! one synchronous in-process step. This module provides the network
//! those actors talk over:
//!
//! * [`Transport`] — the injectable trait,
//! * [`InMemoryTransport`] — the one delivery core: a deterministic
//!   in-memory network with seeded fault injection (per-link latency,
//!   reordering as a consequence of unequal latency, drops, and
//!   epoch-scoped partitions),
//! * [`SocketTransport`] — a carrier around that core: admitted
//!   messages travel over a real localhost TCP connection as
//!   length-prefixed frames batched into non-blocking writes (see
//!   [`socket`]),
//! * [`FaultPlan`] — the fault knobs, all derived from a seed via
//!   [`crate::rng::derive_seed_nd`] so runs are reproducible,
//! * [`NetStats`] — delivery counters for observability.
//!
//! ## Determinism contract
//!
//! The transport draws **no RNG state**: every per-message fault
//! decision (drop, latency, partition side) is a pure hash of
//! `(seed, epoch, phase, src, dst, link_seq)` through
//! [`crate::rng::derive_seed_nd`], centralized in [`FaultPlan::fate`]
//! and consulted from one site — the in-memory transport's admission
//! step, which the socket transport calls too — so both drop, delay
//! and cut exactly the same frames. Identical seeds therefore yield
//! identical message schedules regardless of thread count or call
//! interleaving, and — crucially — the simulation kernels' own RNG
//! streams (`"epoch"`, `"churn"`, `"measure"`, …) are untouched, which
//! is what lets the actor runtime over a *perfect* transport reproduce
//! the synchronous driver's observations byte-identically.
//!
//! ## Delivery order and phase deadlines
//!
//! Messages are delivered in ascending `(deliver_tick, send_seq)`
//! order. A perfect transport (zero latency, no drops, no partition)
//! with monotone send ticks therefore delivers in exact send order.
//!
//! Each phase carries a **tick deadline** (the `window` argument of
//! [`Transport::begin_phase`]): a message whose hash-drawn delivery
//! tick lands past the deadline is *late* and surfaces exactly like an
//! injected fault — never delivered, counted in [`NetStats::late`].
//! The actor runtime sizes the deadline adaptively from the observed
//! per-phase delivery latency (see `tg_sim::clock::PhaseWindow`); pass
//! [`NO_DEADLINE`] to opt out.

use crate::rng::derive_seed_nd;
use std::collections::BinaryHeap;

pub mod socket;

pub use socket::{RetryPolicy, SocketTransport, Wire};

/// A virtual network endpoint. The actor runtime maps protocol
/// participants (IDs, aggregators) onto a small set of nodes.
pub type NodeId = u64;

/// A phase deadline that never declares a message late.
pub const NO_DEADLINE: u64 = u64::MAX;

/// Fault knobs for a transport. All zeros ([`FaultPlan::perfect`],
/// also `Default`) is the perfect network: zero latency, lossless, never
/// partitioned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Per-message independent drop probability in `[0, 1]`.
    pub drop_rate: f64,
    /// Per-message latency is hash-drawn uniformly from `0..=latency_max`
    /// ticks. Unequal latency on different messages reorders them.
    pub latency_max: u64,
    /// For the first `partition_ticks` ticks of every phase the node set
    /// is split into two halves (a hash-derived bisection, re-drawn each
    /// epoch); messages sent across the cut during the window are
    /// dropped. The partition heals for the remainder of the phase.
    pub partition_ticks: u64,
}

/// The fate of one message under a [`FaultPlan`] — the pure hash
/// decision [`InMemoryTransport`]'s admission step applies on behalf of
/// both transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Delivered at the given tick (`sent_tick` + hash-drawn latency).
    Deliver {
        /// The delivery tick.
        deliver_tick: u64,
    },
    /// Lost to the random-loss knob.
    Dropped,
    /// Lost crossing the active partition cut.
    Cut,
}

impl FaultPlan {
    /// The fault-free plan: zero latency, no drops, no partitions.
    pub fn perfect() -> Self {
        FaultPlan { drop_rate: 0.0, latency_max: 0, partition_ticks: 0 }
    }

    /// Which side of the epoch's partition bisection `node` is on.
    pub fn partition_side(&self, seed: u64, epoch: u64, node: NodeId) -> u64 {
        derive_seed_nd(seed, "net-part", &[epoch, node]) & 1
    }

    /// Decide the fate of the message with the given coordinates: cut by
    /// the partition, dropped by random loss, or delivered at
    /// `sent_tick` + hash-drawn latency. Pure — no RNG stream is
    /// consumed, and the decision depends only on the coordinates.
    #[allow(clippy::too_many_arguments)] // the message coordinates are the hash input
    pub fn fate(
        &self,
        seed: u64,
        epoch: u64,
        phase: u64,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        sent_tick: u64,
    ) -> Fate {
        // Partition: during the first `partition_ticks` ticks of the
        // phase, messages crossing the hash-derived bisection are lost.
        if self.partition_ticks > 0
            && sent_tick < self.partition_ticks
            && src != dst
            && self.partition_side(seed, epoch, src) != self.partition_side(seed, epoch, dst)
        {
            return Fate::Cut;
        }
        // Random loss: a pure hash of the message coordinates.
        if self.drop_rate > 0.0 {
            let h = derive_seed_nd(seed, "net-drop", &[epoch, phase, src, dst, seq]);
            if unit_f64(h) < self.drop_rate {
                return Fate::Dropped;
            }
        }
        // Latency: uniform in 0..=latency_max, again hash-derived. At
        // `u64::MAX` the range is all of u64 and the divisor wraps to 0.
        let latency = if self.latency_max > 0 {
            let h = derive_seed_nd(seed, "net-lat", &[epoch, phase, src, dst, seq]);
            h.checked_rem(self.latency_max.wrapping_add(1)).unwrap_or(h)
        } else {
            0
        };
        Fate::Deliver { deliver_tick: sent_tick.saturating_add(latency) }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::perfect()
    }
}

/// Which [`Transport`] implementation carries a scenario's protocol
/// messages. Orthogonal to the fault plan: both transports share one
/// admission step, so the choice moves bytes differently but never
/// moves an observation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportChoice {
    /// The deterministic in-memory network (the default).
    #[default]
    Mem,
    /// A real localhost TCP connection with length-prefixed framing
    /// ([`socket::SocketTransport`]).
    Socket,
}

impl TransportChoice {
    /// Stable codec token (`mem` / `socket`).
    pub fn label(self) -> &'static str {
        match self {
            TransportChoice::Mem => "mem",
            TransportChoice::Socket => "socket",
        }
    }

    /// Parse a codec token.
    pub fn parse(s: &str) -> Option<TransportChoice> {
        match s {
            "mem" => Some(TransportChoice::Mem),
            "socket" => Some(TransportChoice::Socket),
            _ => None,
        }
    }
}

/// A delivered message with its envelope metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Tick at which the message was sent.
    pub sent_tick: u64,
    /// Tick at which the message was delivered (`sent_tick` + latency).
    pub deliver_tick: u64,
    /// The payload.
    pub msg: M,
}

/// Delivery counters. Monotone over the transport's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`Transport::send`].
    pub sent: u64,
    /// Messages returned from [`Transport::recv`].
    pub delivered: u64,
    /// Messages dropped by the random-loss knob — plus, on a real
    /// transport, frames lost to the wire itself (a frame a flush could
    /// not write out, an undecodable frame, a receive timeout): graceful
    /// degradation makes a wire fault surface exactly like an injected
    /// one.
    pub dropped: u64,
    /// Messages dropped because they crossed an active partition cut.
    pub partition_cut: u64,
    /// Messages whose delivery tick fell past the phase deadline (the
    /// `window` argument of [`Transport::begin_phase`]).
    pub late: u64,
    /// Sum of per-message delivery latency (`deliver_tick − sent_tick`)
    /// over all delivered messages, saturating at `u64::MAX` — the
    /// observation the adaptive phase window feeds on.
    pub lat_ticks: u64,
}

impl NetStats {
    /// Fraction of sent messages that were (or will be) delivered.
    /// `1.0` when nothing has been sent — a zero-message phase must
    /// never turn into `NaN` downstream.
    pub fn delivery_fraction(&self) -> f64 {
        if self.sent == 0 {
            return 1.0;
        }
        (self.sent - self.dropped - self.partition_cut - self.late) as f64 / self.sent as f64
    }

    /// Mean delivery latency in ticks over delivered messages. `0.0`
    /// when nothing has been delivered (same no-`NaN` guard as
    /// [`NetStats::delivery_fraction`]).
    pub fn mean_latency_ticks(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.lat_ticks as f64 / self.delivered as f64
    }
}

/// An injectable message-passing network.
///
/// The actor runtime drives one `Transport` per scenario: each protocol
/// phase calls [`begin_phase`](Transport::begin_phase), enqueues its
/// sends, then pumps [`recv`](Transport::recv) to quiescence,
/// dispatching each delivery to the destination actor (which may send
/// follow-up messages at its delivery tick).
pub trait Transport<M> {
    /// Start a new `(epoch, phase)` tick space with the given tick
    /// deadline. Ticks restart at zero; undelivered messages from the
    /// previous phase are discarded (a phase is a synchronization
    /// barrier, mirroring the paper's round structure). Messages whose
    /// delivery tick lands past `window` are late — never delivered,
    /// counted in [`NetStats::late`]. Pass [`NO_DEADLINE`] for an
    /// unbounded phase.
    fn begin_phase(&mut self, epoch: u64, phase: u64, window: u64);
    /// Enqueue a message sent at `sent_tick` of the current phase.
    fn send(&mut self, src: NodeId, dst: NodeId, sent_tick: u64, msg: M);
    /// Deliver the next message in `(deliver_tick, send_seq)` order, or
    /// `None` when the network is quiescent.
    fn recv(&mut self) -> Option<Envelope<M>>;
    /// Lifetime delivery counters.
    fn stats(&self) -> NetStats;
}

/// Heap entry ordered by `(deliver_tick, seq)`, smallest first (stored
/// through `std::cmp::Reverse` in a max-heap). The payload does not
/// participate in the ordering, so `M` needs no `Ord`.
struct Queued<M> {
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Queued<M> {
    /// The delivery-order key.
    fn key(&self) -> (u64, u64) {
        (self.env.deliver_tick, self.seq)
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic in-memory transport with seeded fault injection.
///
/// See the [module docs](self) for the determinism contract. All fault
/// decisions derive from `seed` and the message coordinates; the
/// transport holds no RNG.
pub struct InMemoryTransport<M> {
    plan: FaultPlan,
    seed: u64,
    epoch: u64,
    phase: u64,
    window: u64,
    /// Per-phase send sequence number; the total-order tiebreak.
    seq: u64,
    queue: BinaryHeap<std::cmp::Reverse<Queued<M>>>,
    stats: NetStats,
}

/// Map a derived 64-bit hash onto `[0, 1)` with 53 bits of precision.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl<M> InMemoryTransport<M> {
    /// A transport with the given fault plan, all faults derived from
    /// `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        InMemoryTransport {
            plan,
            seed,
            epoch: 0,
            phase: 0,
            window: NO_DEADLINE,
            seq: 0,
            queue: BinaryHeap::new(),
            stats: NetStats::default(),
        }
    }

    /// A perfect (fault-free) transport; the seed is irrelevant but kept
    /// for uniform construction.
    pub fn perfect(seed: u64) -> Self {
        InMemoryTransport::new(FaultPlan::perfect(), seed)
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The `(epoch, phase)` opened by the last `begin_phase`.
    pub(crate) fn phase_id(&self) -> (u64, u64) {
        (self.epoch, self.phase)
    }

    /// First half of a send — the one place a message's fate is decided:
    /// take the next `seq`, count it `sent`, and either count it
    /// `partition_cut` / `dropped` / `late` or hand back `(seq,
    /// deliver_tick)` for a message that lands inside the window.
    pub(crate) fn admit(&mut self, src: NodeId, dst: NodeId, sent_tick: u64) -> Option<(u64, u64)> {
        let seq = self.seq;
        self.seq += 1;
        self.stats.sent += 1;
        match self.plan.fate(self.seed, self.epoch, self.phase, src, dst, seq, sent_tick) {
            Fate::Cut => self.stats.partition_cut += 1,
            Fate::Dropped => self.stats.dropped += 1,
            Fate::Deliver { deliver_tick } if deliver_tick > self.window => self.stats.late += 1,
            Fate::Deliver { deliver_tick } => return Some((seq, deliver_tick)),
        }
        None
    }

    /// Second half of a send: queue an admitted message for delivery
    /// in `(deliver_tick, seq)` order.
    pub(crate) fn enqueue(&mut self, seq: u64, env: Envelope<M>) {
        self.queue.push(std::cmp::Reverse(Queued { seq, env }));
    }

    /// The `(deliver_tick, seq)` key of the next delivery, if any.
    pub(crate) fn peek_key(&self) -> Option<(u64, u64)> {
        self.queue.peek().map(|q| q.0.key())
    }

    /// Count `frames` admitted messages the carrier lost after admission
    /// (see [`NetStats::dropped`]).
    pub(crate) fn wire_lost(&mut self, frames: u64) {
        self.stats.dropped += frames;
    }
}

impl<M> Transport<M> for InMemoryTransport<M> {
    fn begin_phase(&mut self, epoch: u64, phase: u64, window: u64) {
        self.epoch = epoch;
        self.phase = phase;
        self.window = window;
        self.seq = 0;
        self.queue.clear();
    }

    fn send(&mut self, src: NodeId, dst: NodeId, sent_tick: u64, msg: M) {
        if let Some((seq, deliver_tick)) = self.admit(src, dst, sent_tick) {
            self.enqueue(seq, Envelope { src, dst, sent_tick, deliver_tick, msg });
        }
    }

    fn recv(&mut self) -> Option<Envelope<M>> {
        let q = self.queue.pop()?.0;
        self.stats.delivered += 1;
        // A window pinned at `u64::MAX` admits latencies up to
        // `u64::MAX`, and two of those would overflow the sum.
        self.stats.lat_ticks =
            self.stats.lat_ticks.saturating_add(q.env.deliver_tick - q.env.sent_tick);
        Some(q.env)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(t: &mut InMemoryTransport<u32>) -> Vec<Envelope<u32>> {
        let mut out = Vec::new();
        while let Some(env) = t.recv() {
            out.push(env);
        }
        out
    }

    #[test]
    fn perfect_transport_delivers_all_in_send_order() {
        let mut t = InMemoryTransport::perfect(42);
        t.begin_phase(3, 1, NO_DEADLINE);
        for i in 0..100u32 {
            // Monotone non-decreasing send ticks, as the runtime uses.
            t.send(i as u64 % 7, 0, i as u64 / 10, i);
        }
        let got: Vec<u32> = drain(&mut t).into_iter().map(|e| e.msg).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        let s = t.stats();
        assert_eq!((s.sent, s.delivered, s.dropped, s.partition_cut), (100, 100, 0, 0));
        assert_eq!((s.late, s.lat_ticks), (0, 0));
        assert_eq!(s.delivery_fraction(), 1.0);
        assert_eq!(s.mean_latency_ticks(), 0.0);
    }

    #[test]
    fn drops_are_deterministic_and_seed_sensitive() {
        let run = |seed: u64| {
            let mut t =
                InMemoryTransport::new(FaultPlan { drop_rate: 0.5, ..FaultPlan::perfect() }, seed);
            t.begin_phase(0, 0, NO_DEADLINE);
            for i in 0..200u32 {
                t.send(1, 2, i as u64, i);
            }
            drain(&mut t).into_iter().map(|e| e.msg).collect::<Vec<u32>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "identical seeds give identical schedules");
        assert!(!a.is_empty() && a.len() < 200, "rate 0.5 drops some but not all");
        let c = run(8);
        assert_ne!(a, c, "different seeds give different drop patterns");
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let mut t = InMemoryTransport::new(FaultPlan { drop_rate: 1.0, ..FaultPlan::perfect() }, 1);
        t.begin_phase(0, 0, NO_DEADLINE);
        for i in 0..50u32 {
            t.send(0, 1, 0, i);
        }
        assert!(drain(&mut t).is_empty());
        assert_eq!(t.stats().dropped, 50);
    }

    #[test]
    fn partition_cuts_cross_messages_only_during_window() {
        let plan = FaultPlan { partition_ticks: 10, ..FaultPlan::perfect() };
        let mut t = InMemoryTransport::<u32>::new(plan, 42);
        t.begin_phase(0, 0, NO_DEADLINE);
        // Find two nodes on opposite sides of the epoch-0 bisection.
        let side0 = plan.partition_side(42, 0, 0);
        let other = (1..64)
            .find(|&n| plan.partition_side(42, 0, n) != side0)
            .expect("both sides inhabited");
        // Same-side traffic always goes through.
        t.send(0, 0, 0, 1);
        // Cross-cut during the window: lost.
        t.send(0, other, 5, 2);
        // Cross-cut after the partition heals: delivered.
        t.send(0, other, 10, 3);
        let got: Vec<u32> = drain(&mut t).into_iter().map(|e| e.msg).collect();
        assert_eq!(got, vec![1, 3]);
        assert_eq!(t.stats().partition_cut, 1);
    }

    #[test]
    fn latency_reorders_but_keeps_total_order_deterministic() {
        let plan = FaultPlan { latency_max: 16, ..FaultPlan::perfect() };
        let run = || {
            let mut t = InMemoryTransport::new(plan, 99);
            t.begin_phase(2, 1, NO_DEADLINE);
            for i in 0..64u32 {
                t.send(i as u64 % 5, 0, 0, i);
            }
            drain(&mut t)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "schedule is a pure function of the seed");
        let order: Vec<u32> = a.iter().map(|e| e.msg).collect();
        assert_ne!(order, (0..64).collect::<Vec<u32>>(), "latency reorders");
        // Delivery ticks are non-decreasing and all messages arrive.
        assert!(a.windows(2).all(|w| w[0].deliver_tick <= w[1].deliver_tick));
        assert_eq!(a.len(), 64);
    }

    /// A finite phase deadline declares exactly the past-deadline
    /// messages late; tightening the deadline can only grow the late
    /// set, and the delivery fraction accounts for it.
    #[test]
    fn deadline_declares_past_window_messages_late() {
        let plan = FaultPlan { latency_max: 32, ..FaultPlan::perfect() };
        let late_at = |window: u64| {
            let mut t = InMemoryTransport::<u32>::new(plan, 11);
            t.begin_phase(4, 1, window);
            for i in 0..128u32 {
                t.send(i as u64 % 9, 0, 0, i);
            }
            let delivered = drain(&mut t);
            assert!(delivered.iter().all(|e| e.deliver_tick <= window));
            let s = t.stats();
            assert_eq!(s.delivered + s.late, s.sent, "every message is delivered or late");
            let expect = (s.sent - s.late) as f64 / s.sent as f64;
            assert_eq!(s.delivery_fraction(), expect);
            s.late
        };
        let generous = late_at(NO_DEADLINE);
        let tight = late_at(8);
        assert_eq!(generous, 0, "an unbounded phase has no late messages");
        assert!(tight > 0, "a tick-8 deadline under latency 32 loses messages");
    }

    /// The NaN/inf bugfix contract: a phase in which nothing was sent
    /// (or nothing delivered) reports finite, well-defined fractions.
    #[test]
    fn zero_message_phase_reports_finite_fractions() {
        let s = NetStats::default();
        assert_eq!(s.delivery_fraction(), 1.0);
        assert_eq!(s.mean_latency_ticks(), 0.0);
        assert!(s.delivery_fraction().is_finite());
        assert!(s.mean_latency_ticks().is_finite());
        // All-dropped phase: delivered == 0 but sent > 0.
        let s = NetStats { sent: 10, dropped: 10, ..NetStats::default() };
        assert_eq!(s.delivery_fraction(), 0.0);
        assert_eq!(s.mean_latency_ticks(), 0.0);
    }

    #[test]
    fn begin_phase_resets_tick_space_and_discards_stragglers() {
        let mut t = InMemoryTransport::perfect(0);
        t.begin_phase(0, 0, NO_DEADLINE);
        t.send(1, 2, 0, 10u32);
        t.begin_phase(0, 1, NO_DEADLINE);
        assert!(t.recv().is_none(), "phase barrier discards undelivered messages");
        t.send(1, 2, 0, 11);
        assert_eq!(t.recv().expect("delivered").msg, 11);
    }

    #[test]
    fn fault_decisions_are_coordinate_local() {
        // Dropping message k does not change the fate of message k+1:
        // decisions depend on (epoch, phase, src, dst, seq) only, not on
        // queue state. Send the same stream twice with one extra prefix
        // message the second time — suffix fates must coincide once seqs
        // align.
        let plan = FaultPlan { drop_rate: 0.4, ..FaultPlan::perfect() };
        let fate = |seq: u64| {
            let mut t = InMemoryTransport::<u32>::new(plan, 5);
            t.begin_phase(1, 0, NO_DEADLINE);
            for _ in 0..seq {
                t.send(3, 4, 0, 0);
            }
            let before = t.stats().dropped;
            t.send(3, 4, 0, 1);
            t.stats().dropped == before
        };
        for seq in 0..32 {
            assert_eq!(fate(seq), fate(seq), "fate of seq {seq} is stable");
        }
    }

    /// The extracted [`FaultPlan::fate`] is exactly what the transport
    /// applies: replaying the coordinates through the pure function
    /// predicts every counter.
    #[test]
    fn fate_function_predicts_transport_counters() {
        let plan = FaultPlan { drop_rate: 0.3, latency_max: 8, partition_ticks: 6 };
        let mut t = InMemoryTransport::<u32>::new(plan, 77);
        t.begin_phase(2, 1, NO_DEADLINE);
        let (mut cut, mut dropped) = (0u64, 0u64);
        for i in 0..256u64 {
            let (src, dst, tick) = (i % 11, (i * 7) % 13, i / 4);
            match plan.fate(77, 2, 1, src, dst, i, tick) {
                Fate::Cut => cut += 1,
                Fate::Dropped => dropped += 1,
                Fate::Deliver { .. } => {}
            }
            t.send(src, dst, tick, i as u32);
        }
        let s = t.stats();
        assert_eq!((s.partition_cut, s.dropped), (cut, dropped));
        assert_eq!(s.sent, 256);
    }

    /// The admission step is the whole accounting: over a lossy,
    /// partitioned, tight-window plan every send takes the next `seq`,
    /// counts `sent`, and moves exactly one of {enqueued, `dropped`,
    /// `partition_cut`, `late`}.
    #[test]
    fn admission_accounts_for_every_send_exactly_once() {
        let plan = FaultPlan { drop_rate: 0.3, latency_max: 12, partition_ticks: 6 };
        let mut t = InMemoryTransport::<u32>::new(plan, 21);
        t.begin_phase(5, 2, 10);
        let mut enqueued = 0u64;
        for i in 0..512u64 {
            let before = t.stats();
            let (src, dst, tick) = (i % 13, (i * 5) % 17, i / 40);
            let admitted = t.admit(src, dst, tick);
            let after = t.stats();
            assert_eq!((t.seq, after.sent), (i + 1, i + 1));
            if let Some((seq, deliver_tick)) = admitted {
                assert_eq!(seq, i);
                assert!((tick..=10).contains(&deliver_tick));
                t.enqueue(seq, Envelope { src, dst, sent_tick: tick, deliver_tick, msg: 0 });
                enqueued += 1;
            }
            let moved = [
                u64::from(admitted.is_some()),
                after.dropped - before.dropped,
                after.partition_cut - before.partition_cut,
                after.late - before.late,
            ];
            assert_eq!(moved.iter().sum::<u64>(), 1, "send {i} moved {moved:?}");
        }
        let s = t.stats();
        assert!(s.dropped > 0 && s.partition_cut > 0 && s.late > 0 && enqueued > 0, "{s:?}");
        assert_eq!(drain(&mut t).len() as u64, enqueued);
    }

    #[test]
    fn transport_choice_round_trips() {
        for c in [TransportChoice::Mem, TransportChoice::Socket] {
            assert_eq!(TransportChoice::parse(c.label()), Some(c));
        }
        assert_eq!(TransportChoice::parse("tcp"), None);
        assert_eq!(TransportChoice::default(), TransportChoice::Mem);
    }
}
