//! The **actor epoch runtime**: per-node message passing over an
//! injectable transport.
//!
//! There is one epoch driver per layer —
//! [`DynamicDriver`](crate::scenario::DynamicDriver) for §III alone,
//! `tg_pow`'s `FullSystem` with §IV on top — and each carries an
//! optional [`EpochNet`]. `runtime=sync` means *no net*: the
//! epoch advances as one in-process step, the right fast path for the
//! paper's synchronous-rounds model, but silent about everything the
//! model assumes away: delivery timing, loss, and partitions.
//! `runtime=actor` attaches the net, which splits the epoch into
//! protocol *phases* whose participants are per-node actors exchanging
//! typed [`ProtocolMsg`]s over a [`Transport`] (`tg_sim::net`), so a
//! scenario can run against an imperfect network:
//!
//! * **String dissemination** — the freshly agreed epoch string is
//!   broadcast to every node; nodes the broadcast misses cannot verify
//!   peers, scaling the PoW pipeline's `verification_coverage`.
//! * **Membership announcement** — every good identity announces itself
//!   as a [`ProtocolMsg::Join`] from its home node to the aggregator;
//!   announcements the network loses never enter the epoch's ring. The
//!   adversary is modelled as a *network insider*: its identities bypass
//!   the transport entirely (the worst case — faults only ever weaken
//!   the good population, so capture grows with the fault rates).
//! * **Routing probes** — each robustness search issues a two-hop probe
//!   chain (source → relay → aggregator); the measured search success is
//!   scaled by the fraction of probe chains the network completes.
//!
//! The genesis build is trusted bootstrap (never filtered) — the network
//! exists from the first *advanced* epoch on, mirroring the paper's
//! assumption of a correct initial configuration.
//!
//! ## Equivalence with no net
//!
//! Over a *perfect* transport (zero latency, lossless, never
//! partitioned) every phase delivers all messages in send order, all
//! delivered fractions are exactly `1.0`, and no observation field is
//! rescaled — a driver with a net reproduces the [`EpochObservation`]s
//! of the same driver without one **byte-identically** (the conformance
//! suite and the golden replays pin this). The transport draws no RNG,
//! so the kernels' seeded streams are untouched whatever the fault
//! plan; see `tg_sim::net` for the determinism contract.
//!
//! ## Schedule
//!
//! The phases run on the transport in one order per epoch: strings,
//! then announcements (a statement of the driver's mint step, inside
//! [`DynamicSystem::mint_epoch`]), then probes.
//! The probe phase reads no graph and draws no kernel RNG, so
//! [`build_epoch`] runs it beside the epoch's build and measurement:
//! the caller builds while `tg_sim`'s spare thread probes
//! ([`scheduled_beside`]). That holds for a generation below
//! [`FAN_OUT_MIN_IDS`](crate::dynamic::kernel::FAN_OUT_MIN_IDS)
//! identities, whose build is serial; a larger one fans its own
//! searches out over that thread, and probes after it. No byte can
//! move: the build and the probe share no state, the transport still
//! sees its phases in the same order, and each half is the same code
//! on either schedule.
//!
//! ## Transports and phase windows
//!
//! The network itself is injectable: `transport=mem` (default) runs the
//! deterministic in-memory transport, `transport=socket` the real
//! localhost-TCP [`SocketTransport`].
//! Both apply the identical hash-derived fault fates, so the choice is
//! about *how bytes move*, never about what is observed.
//!
//! Each phase hands the transport a tick deadline sized by an adaptive
//! [`PhaseWindow`]: it starts at [`PHASE_WINDOW`]
//! ticks and tracks the observed per-phase delivery latency up to
//! [`MAX_PHASE_WINDOW`], with zero latency as a fixpoint — which is why
//! perfect-transport replays (mem or socket) stay byte-identical to the
//! fixed-window goldens. A spec-level `window=` knob pins the deadline
//! for sweeps.
//!
//! Select the runtime with [`RuntimeChoice`] on a
//! [`ScenarioSpec`] (`runtime=actor` in
//! the codec, emitted only when non-default) and the fault knobs with
//! [`FaultPlan`](tg_sim::net::FaultPlan) (`drop=`, `lat=`, `part=`).

use crate::dynamic::kernel::scheduled_beside;
use crate::dynamic::provider::EpochIds;
use crate::dynamic::system::EpochObservation;
use crate::dynamic::{DynamicSystem, MintedEpoch};
use crate::scenario::ScenarioSpec;
use tg_sim::clock::PhaseWindow;
use tg_sim::net::{
    Envelope, InMemoryTransport, NetStats, NodeId, SocketTransport, Transport, TransportChoice,
    Wire,
};

/// Which execution model advances a scenario's epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RuntimeChoice {
    /// No network: one synchronous in-process step per epoch — the
    /// deterministic fast path and conformance oracle.
    #[default]
    Sync,
    /// The driver carries an [`EpochNet`]: per-node actors exchanging
    /// [`ProtocolMsg`]s over an injectable [`Transport`] with seeded
    /// fault injection.
    Actor,
}

impl RuntimeChoice {
    /// Stable codec token (`sync` / `actor`).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeChoice::Sync => "sync",
            RuntimeChoice::Actor => "actor",
        }
    }

    /// Parse a codec token.
    pub fn parse(s: &str) -> Option<RuntimeChoice> {
        match s {
            "sync" => Some(RuntimeChoice::Sync),
            "actor" => Some(RuntimeChoice::Actor),
            _ => None,
        }
    }
}

/// The typed protocol messages the per-node actors exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// A good identity announcing itself for the next epoch's ring.
    Join {
        /// The announced ring position (raw fixed-point).
        id: u64,
    },
    /// One hop of a two-hop routing probe chain.
    Probe {
        /// Which robustness search this chain belongs to.
        search: u32,
        /// Hop index: `0` source → relay, `1` relay → aggregator.
        hop: u8,
    },
    /// The freshly agreed epoch string, broadcast to every node.
    StringAnnounce {
        /// The string value minting will bind to.
        key: u64,
    },
}

/// Round-trip byte codec for the wire: a one-byte variant tag followed
/// by the variant's fields, little-endian, fixed width. `decode`
/// demands the exact length — a truncated or padded frame is malformed
/// and degrades to a transport drop.
impl Wire for ProtocolMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            ProtocolMsg::Join { id } => {
                buf.push(0);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            ProtocolMsg::Probe { search, hop } => {
                buf.push(1);
                buf.extend_from_slice(&search.to_le_bytes());
                buf.push(hop);
            }
            ProtocolMsg::StringAnnounce { key } => {
                buf.push(2);
                buf.extend_from_slice(&key.to_le_bytes());
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes.split_first()? {
            (0, rest) if rest.len() == 8 => {
                Some(ProtocolMsg::Join { id: u64::from_le_bytes(rest.try_into().ok()?) })
            }
            (1, rest) if rest.len() == 5 => Some(ProtocolMsg::Probe {
                search: u32::from_le_bytes(rest[..4].try_into().ok()?),
                hop: rest[4],
            }),
            (2, rest) if rest.len() == 8 => {
                Some(ProtocolMsg::StringAnnounce { key: u64::from_le_bytes(rest.try_into().ok()?) })
            }
            _ => None,
        }
    }
}

/// Virtual network size: protocol participants are mapped onto this
/// many nodes (node `0` doubles as the aggregator/observer).
pub const NET_NODES: u64 = 64;
/// Base (and zero-latency fixpoint) of the adaptive phase window: the
/// ticks spanned by one phase's initial sends on a quiet network. Fault
/// windows (e.g.
/// [`FaultPlan::partition_ticks`](tg_sim::net::FaultPlan::partition_ticks)) are expressed in the same unit.
pub const PHASE_WINDOW: u64 = 64;
/// Ceiling of the adaptive phase window: under heavy observed latency
/// the deadline stretches, but never beyond this.
pub const MAX_PHASE_WINDOW: u64 = 4096;

const AGGREGATOR: NodeId = 0;
const PHASE_STRINGS: u64 = 0;
const PHASE_ANNOUNCE: u64 = 1;
const PHASE_PROBE: u64 = 2;

/// The home node of a ring identity.
fn node_of_id(raw: u64) -> NodeId {
    1 + raw % (NET_NODES - 1)
}

/// Send tick of the `i`-th of `m` initial sends: spread monotonically
/// over the first `window` ticks of the phase (order-preserving under a
/// perfect transport).
fn spread_tick(i: u64, m: u64, window: u64) -> u64 {
    match i.checked_mul(window) {
        Some(product) => product.checked_div(m).unwrap_or(0),
        // A pinned `window=` near `u64::MAX`: widen. `i < m` keeps the
        // quotient below `window`, so it fits.
        None => u64::try_from(u128::from(i) * u128::from(window) / u128::from(m.max(1)))
            .unwrap_or(u64::MAX),
    }
}

/// One scenario's network: the transport plus the per-phase actor
/// protocols that run over it, under a latency-adaptive
/// [`PhaseWindow`].
pub struct EpochNet {
    transport: Box<dyn Transport<ProtocolMsg> + Send>,
    window: PhaseWindow,
    /// `NetStats.late` as of the last [`EpochNet::finish_epoch`].
    late_taken: u64,
}

impl EpochNet {
    /// A network over the given transport with the default adaptive
    /// window ([`PHASE_WINDOW`]..=[`MAX_PHASE_WINDOW`]).
    pub fn new(transport: Box<dyn Transport<ProtocolMsg> + Send>) -> EpochNet {
        EpochNet::with_window(transport, PhaseWindow::adaptive(PHASE_WINDOW, MAX_PHASE_WINDOW))
    }

    /// A network over the given transport and an explicit phase window.
    pub fn with_window(
        transport: Box<dyn Transport<ProtocolMsg> + Send>,
        window: PhaseWindow,
    ) -> EpochNet {
        EpochNet { transport, window, late_taken: 0 }
    }

    /// The network a spec asks for: the spec's transport choice and
    /// fault plan, faults seeded from the spec's master seed (via its
    /// own labelled derivation — kernel streams are untouched), and the
    /// spec's `window=` pin if set.
    ///
    /// # Panics
    /// Panics if `transport=socket` cannot establish its loopback
    /// connection (no further degradation is possible before a socket
    /// exists).
    pub fn for_spec(spec: &ScenarioSpec) -> EpochNet {
        let transport: Box<dyn Transport<ProtocolMsg> + Send> = match spec.transport {
            TransportChoice::Mem => Box::new(InMemoryTransport::new(spec.faults, spec.seed)),
            TransportChoice::Socket => {
                Box::new(SocketTransport::connect(spec.faults, spec.seed).unwrap_or_else(|e| {
                    panic!("transport=socket: cannot establish the loopback connection: {e}")
                }))
            }
        };
        let window = match spec.window {
            Some(ticks) => PhaseWindow::pinned(ticks),
            None => PhaseWindow::adaptive(PHASE_WINDOW, MAX_PHASE_WINDOW),
        };
        EpochNet::with_window(transport, window)
    }

    /// The network `spec`'s runtime asks for: none under
    /// [`RuntimeChoice::Sync`], [`EpochNet::for_spec`] under
    /// [`RuntimeChoice::Actor`].
    pub fn for_runtime(spec: &ScenarioSpec) -> Option<EpochNet> {
        match spec.runtime {
            RuntimeChoice::Sync => None,
            RuntimeChoice::Actor => Some(EpochNet::for_spec(spec)),
        }
    }

    /// Lifetime delivery counters of the underlying transport.
    pub fn stats(&self) -> NetStats {
        self.transport.stats()
    }

    /// The phase window currently in force.
    pub fn window(&self) -> &PhaseWindow {
        &self.window
    }

    /// The one phase loop. A phase is a *message schedule* — its initial
    /// `(src, dst, msg)` sends, spread in order over the window's ticks —
    /// plus a `deliver` handler that sees every delivery (and may send
    /// follow-ups through the transport it is handed); the loop owns
    /// the window, the phase barrier, the drain to quiescence and the
    /// latency observation fed back into the adaptive window.
    fn run_phase(
        &mut self,
        epoch: u64,
        phase: u64,
        sends: impl ExactSizeIterator<Item = (NodeId, NodeId, ProtocolMsg)>,
        mut deliver: impl FnMut(&mut dyn Transport<ProtocolMsg>, Envelope<ProtocolMsg>),
    ) {
        let w = self.window.current();
        let before = self.transport.stats();
        self.transport.begin_phase(epoch, phase, w);
        let m = sends.len() as u64;
        for (i, (src, dst, msg)) in sends.enumerate() {
            self.transport.send(src, dst, spread_tick(i as u64, m, w), msg);
        }
        while let Some(env) = self.transport.recv() {
            deliver(self.transport.as_mut(), env);
        }
        let after = self.transport.stats();
        self.window.observe(after.delivered - before.delivered, after.lat_ticks - before.lat_ticks);
    }

    /// **Membership announcement phase.** Every good ID in `ids` sends a
    /// [`ProtocolMsg::Join`] from its home node to the aggregator;
    /// `ids.good` is replaced by the announcements that arrived, in
    /// delivery order. Bad IDs bypass the network (insider adversary).
    ///
    /// Under a perfect transport delivery order equals send order, so
    /// `ids` comes back bit-identical.
    pub fn announce_phase(&mut self, epoch: u64, ids: &mut EpochIds) {
        let mut delivered = Vec::with_capacity(ids.good.len());
        let joins = ids
            .good
            .iter()
            .map(|id| (node_of_id(id.raw()), AGGREGATOR, ProtocolMsg::Join { id: id.raw() }));
        self.run_phase(epoch, PHASE_ANNOUNCE, joins, |_, env| {
            if let ProtocolMsg::Join { id } = env.msg {
                delivered.push(tg_idspace::Id(id));
            }
        });
        ids.good = delivered;
    }

    /// **Routing probe phase.** Each of `searches` probes runs a two-hop
    /// actor chain (source → relay, relay forwards to the aggregator at
    /// its delivery tick). Returns the fraction of chains that
    /// completed — the factor search success is scaled by. Exactly `1.0`
    /// under a perfect transport (or when `searches == 0`).
    pub fn probe_phase(&mut self, epoch: u64, searches: usize) -> f64 {
        if searches == 0 {
            return 1.0;
        }
        let first_hops = (0..searches).map(|s| {
            let src = 1 + s as u64 % (NET_NODES - 1);
            let relay = 1 + (s as u64 + NET_NODES / 2) % (NET_NODES - 1);
            (src, relay, ProtocolMsg::Probe { search: s as u32, hop: 0 })
        });
        let mut completed = 0u64;
        self.run_phase(epoch, PHASE_PROBE, first_hops, |net, env| match env.msg {
            // The relay actor forwards at its delivery tick.
            ProtocolMsg::Probe { search, hop: 0 } => net.send(
                env.dst,
                AGGREGATOR,
                env.deliver_tick,
                ProtocolMsg::Probe { search, hop: 1 },
            ),
            ProtocolMsg::Probe { hop: 1, .. } => completed += 1,
            _ => {}
        });
        completed as f64 / searches as f64
    }

    /// The network's share of a freshly built epoch's record, taken
    /// once per epoch after its [probe phase](EpochNet::probe_phase):
    /// scale the measured search success by `probed`, the fraction of
    /// probe chains the network completed (the `< 1.0` guard keeps the
    /// perfect-transport path bit-exact), then set `obs.late` to the
    /// messages that fell past a phase-window deadline since the
    /// previous call (`NetStats.late` is cumulative over the
    /// transport's lifetime).
    pub fn finish_epoch(&mut self, obs: &mut EpochObservation, probed: f64) {
        if probed < 1.0 {
            obs.search_success_single *= probed;
            obs.search_success_dual *= probed;
        }
        let late = self.transport.stats().late;
        obs.late = late - self.late_taken;
        self.late_taken = late;
    }

    /// **String dissemination phase.** The aggregator broadcasts the
    /// agreed epoch string to every other node; returns the fraction of
    /// nodes reached. Exactly `1.0` under a perfect transport.
    pub fn string_phase(&mut self, epoch: u64, key: u64) -> f64 {
        let broadcast = (1..NET_NODES as usize)
            .map(|node| (AGGREGATOR, node as NodeId, ProtocolMsg::StringAnnounce { key }));
        let mut reached = 0u64;
        self.run_phase(epoch, PHASE_STRINGS, broadcast, |_, env| {
            if matches!(env.msg, ProtocolMsg::StringAnnounce { .. }) {
                reached += 1;
            }
        });
        reached as f64 / (NET_NODES - 1) as f64
    }
}

/// The second half of an epoch over an optional network: `sys` builds,
/// measures and swaps in the generation it `minted`, and with a network
/// the probe phase runs beside that work ([`scheduled_beside`]) before
/// [`EpochNet::finish_epoch`] folds it into the record.
pub fn build_epoch(
    sys: &mut DynamicSystem,
    minted: MintedEpoch,
    net: Option<&mut EpochNet>,
) -> EpochObservation {
    let Some(net) = net else { return sys.build_epoch(minted) };
    let (epoch, searches) = (minted.epoch(), sys.searches_per_epoch());
    let (mut obs, probed) = scheduled_beside(
        minted.ids(),
        || sys.build_epoch(minted),
        || net.probe_phase(epoch, searches),
    );
    net.finish_epoch(&mut obs, probed);
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StrategySpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(240, 42)
            .beta(0.1)
            .churn(0.15)
            .searches(60)
            .strategy(StrategySpec::GapFilling)
    }

    #[test]
    fn runtime_choice_round_trips() {
        for rt in [RuntimeChoice::Sync, RuntimeChoice::Actor] {
            assert_eq!(RuntimeChoice::parse(rt.label()), Some(rt));
        }
        assert_eq!(RuntimeChoice::parse("async"), None);
        assert_eq!(RuntimeChoice::default(), RuntimeChoice::Sync);
    }

    #[test]
    fn actor_over_perfect_transport_matches_sync_driver() {
        let s = spec();
        let mut sync = s.build().expect("sync driver");
        let mut actor = s.clone().runtime(RuntimeChoice::Actor).build().expect("actor driver");
        for _ in 0..3 {
            let a = format!("{:?}", sync.step());
            let b = format!("{:?}", actor.step());
            assert_eq!(a, b, "perfect transport reproduces the sync observation");
        }
    }

    #[test]
    fn drops_lose_announcements_and_probes() {
        let s = spec().runtime(RuntimeChoice::Actor).drop_rate(0.5);
        let mut lossy = s.build().expect("lossy driver");
        let mut perfect = spec().build().expect("sync driver");
        let (mut lost_any, mut scaled_any) = (false, false);
        for _ in 0..4 {
            let (l_groups, l_success) = {
                let o = lossy.step();
                (o.total_groups, o.search_success_dual)
            };
            let p = perfect.step();
            if l_groups < p.total_groups {
                lost_any = true;
            }
            if l_success < p.search_success_dual {
                scaled_any = true;
            }
        }
        assert!(lost_any, "drop rate 0.5 loses some good announcements");
        assert!(scaled_any, "drop rate 0.5 fails some probe chains");
    }

    #[test]
    fn partition_cuts_cross_traffic() {
        let s = spec().runtime(RuntimeChoice::Actor).partition(PHASE_WINDOW);
        let mut d = s.build().expect("partitioned driver");
        d.step();
        // Can't reach the transport through the trait object; observable
        // effect: success scaled below the sync value.
        let mut sync = spec().build().expect("sync driver");
        let s0 = sync.step().search_success_dual;
        assert!(d.observation().search_success_dual < s0);
    }

    #[test]
    fn announce_phase_is_identity_under_perfect_transport() {
        let mut net = EpochNet::new(Box::new(InMemoryTransport::perfect(1)));
        let mut ids = EpochIds {
            good: (0..50u64)
                .map(|i| tg_idspace::Id(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
            bad: vec![tg_idspace::Id(3)],
        };
        let before = ids.good.clone();
        net.announce_phase(7, &mut ids);
        assert_eq!(ids.good, before);
        assert_eq!(ids.bad.len(), 1, "bad IDs bypass the network");
    }

    #[test]
    fn phases_report_perfect_fractions_on_perfect_transport() {
        let mut net = EpochNet::new(Box::new(InMemoryTransport::perfect(9)));
        assert_eq!(net.probe_phase(1, 33), 1.0);
        assert_eq!(net.string_phase(1, 0xABCD), 1.0);
        assert_eq!(net.probe_phase(2, 0), 1.0);
    }

    #[test]
    fn protocol_msg_wire_round_trips() {
        let msgs = [
            ProtocolMsg::Join { id: u64::MAX },
            ProtocolMsg::Join { id: 0 },
            ProtocolMsg::Probe { search: 12345, hop: 0 },
            ProtocolMsg::Probe { search: u32::MAX, hop: 1 },
            ProtocolMsg::StringAnnounce { key: 0xDEAD_BEEF_CAFE_F00D },
        ];
        for m in msgs {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            assert_eq!(ProtocolMsg::decode(&buf), Some(m));
        }
        // Malformed frames decode to None (degrading to a drop) rather
        // than panicking: wrong tag, truncation, trailing garbage.
        assert_eq!(ProtocolMsg::decode(&[]), None);
        assert_eq!(ProtocolMsg::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(ProtocolMsg::decode(&[0, 1, 2]), None);
        let mut buf = Vec::new();
        ProtocolMsg::Join { id: 7 }.encode(&mut buf);
        buf.push(0);
        assert_eq!(ProtocolMsg::decode(&buf), None, "padded frame is malformed");
    }

    /// The adaptive window is a zero-latency fixpoint (golden-replay
    /// safety) and stretches under observed latency.
    #[test]
    fn phase_window_adapts_to_observed_latency() {
        let mut quiet = EpochNet::new(Box::new(InMemoryTransport::perfect(3)));
        quiet.string_phase(1, 1);
        quiet.probe_phase(1, 40);
        assert_eq!(quiet.window().current(), PHASE_WINDOW, "zero latency never moves the window");

        let plan = tg_sim::net::FaultPlan { latency_max: 24, ..Default::default() };
        let mut slow = EpochNet::new(Box::new(InMemoryTransport::new(plan, 3)));
        slow.string_phase(1, 1);
        let w = slow.window().current();
        assert!(w > PHASE_WINDOW, "observed latency stretches the deadline (got {w})");
        assert!(w <= MAX_PHASE_WINDOW);
    }

    /// `window=` pins the deadline: observations cannot move it.
    #[test]
    fn spec_window_knob_pins_the_deadline() {
        let s = spec().runtime(RuntimeChoice::Actor).latency(24).window(96);
        let mut net = EpochNet::for_spec(&s);
        assert!(net.window().is_pinned());
        net.string_phase(1, 1);
        net.probe_phase(1, 40);
        assert_eq!(net.window().current(), 96);
    }

    /// The socket transport slots in through `for_spec` and reproduces
    /// the in-memory phase fractions over a perfect loopback.
    #[test]
    fn for_spec_socket_matches_mem_phases() {
        let base = spec().runtime(RuntimeChoice::Actor);
        let mut mem = EpochNet::for_spec(&base);
        let mut sock =
            EpochNet::for_spec(&base.clone().transport(tg_sim::net::TransportChoice::Socket));
        let mut ids_m = EpochIds {
            good: (0..40u64).map(|i| tg_idspace::Id(i * 0x0101_0101)).collect(),
            bad: vec![],
        };
        let mut ids_s = EpochIds { good: ids_m.good.clone(), bad: vec![] };
        mem.announce_phase(2, &mut ids_m);
        sock.announce_phase(2, &mut ids_s);
        assert_eq!(ids_m.good, ids_s.good);
        assert_eq!(mem.probe_phase(2, 50), sock.probe_phase(2, 50));
        assert_eq!(mem.string_phase(2, 0xF00), sock.string_phase(2, 0xF00));
        assert_eq!(mem.stats(), sock.stats());
    }
}
