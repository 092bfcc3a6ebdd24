//! [`SocketTransport`] — the [`Transport`] contract served over a real
//! localhost TCP connection.
//!
//! The socket transport *holds* an [`InMemoryTransport`], the one
//! delivery core: admission ([`FaultPlan::fate`] and the `sent` /
//! `partition_cut` / `dropped` / `late` counters), the
//! `(deliver_tick, seq)` heap and the delivered/latency accounting all
//! live there. This file is only the carrier: between the core's
//! *admit* and *enqueue* halves a message is framed, written to one
//! self-connected loopback stream, read back and decoded.
//!
//! ## Wire format
//!
//! Every message travels as one length-prefixed frame:
//!
//! ```text
//! [len: u32 LE] [header: 7 × u64 LE = 56 bytes] [payload: len − 56 bytes]
//!               epoch phase src dst sent_tick deliver_tick seq
//! ```
//!
//! The payload is the typed protocol message serialized through the
//! [`Wire`] trait. The header carries the full envelope plus the
//! `(epoch, phase)` the frame belongs to, so a receiver can discard
//! stragglers from an already-closed phase without any handshake: TCP
//! preserves the connection's order, so stale frames always precede
//! fresh ones.
//!
//! ## Batching
//!
//! `send` encodes each admitted frame straight onto one outbox buffer.
//! The writer is non-blocking, and one flush hands the whole outbox to
//! the kernel: when the outbox passes a fixed size, and inside every
//! pump. Only a write that would block reads the socket — the pair is
//! self-connected, so its kernel buffers empty only when this side
//! reads them.
//!
//! ## Fault semantics — graceful degradation
//!
//! Only admitted messages touch the wire: cut, dropped and late ones
//! were counted by the core and are never framed, and the delivery tick
//! is stamped into the header at send time. Both transports therefore
//! lose the identical message set by construction.
//!
//! Real wire faults degrade into the same counters instead of erroring:
//! a frame a flush could not write out whole (a hard socket error, or
//! a write still blocked after the 2 s I/O deadline), an undecodable or
//! oversized frame, and a frame still missing when a pump's deadline
//! expires all count as `dropped` in [`NetStats`] — a lost frame
//! surfaces exactly like an injected fault, which is what keeps the
//! observation layer transport-agnostic. A frame that was written stays
//! outstanding until it is read back or its pump times out. A flush that
//! gives up also closes the write side: the stream may end mid-frame, so
//! no later frame may follow it.
//!
//! ## Ordering
//!
//! [`recv`](super::Transport::recv) pops the core's heap, which orders
//! by `(deliver_tick, seq)`. A frame still *outstanding* — in the
//! outbox, on the wire or half-read — might belong before the heap's
//! top, and a pump (flush, then read until every outstanding frame has
//! landed or timed out) settles that. The sender stamped every
//! outstanding frame's key, so it keeps the smallest key sent since the
//! last pump, and `recv` pumps only when the heap is empty or that key
//! sorts before the heap's top. Otherwise every outstanding key sorts
//! after the top (keys are unique, since `seq` is), so popping the top
//! is what the in-memory transport would deliver next. Delivery order
//! over a healthy loopback is therefore the in-memory order, whatever
//! order the bytes arrive in and however a receiver interleaves its
//! follow-up sends with `recv`.

use super::{Envelope, FaultPlan, InMemoryTransport, NetStats, NodeId, Transport};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Serialization contract for messages carried by [`SocketTransport`].
///
/// Implementations must round-trip: `decode(encode(m)) == Some(m)`.
/// `decode` returns `None` on malformed bytes — the transport counts
/// such frames as dropped rather than failing.
pub trait Wire: Sized {
    /// Append this message's byte representation to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Parse a message from exactly `bytes`, or `None` if malformed.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// Connect attempts beyond the first.
const MAX_RETRIES: u32 = 5;
/// First backoff between connect attempts; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling for the exponential schedule.
const BACKOFF_CAP: Duration = Duration::from_millis(64);
/// Timeout of each connect attempt, and the deadline of one flush
/// (frames a write still blocks on past it are lost) and of one pump
/// (frames still missing past it are lost). The writer itself is
/// non-blocking and carries no write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The backoff before retry attempt `attempt` (0-based): base × 2^attempt,
/// capped.
fn backoff(attempt: u32) -> Duration {
    BACKOFF_BASE.saturating_mul(1u32 << attempt.min(16)).min(BACKOFF_CAP)
}

/// Plain scalar payloads round-trip as fixed-width LE bytes — handy
/// for harness tests that push opaque tokens through the wire.
impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Frame header length: epoch, phase, src, dst, sent_tick,
/// deliver_tick, seq — seven `u64`s.
const HEADER_LEN: usize = 56;

/// Ceiling on a single frame (header + payload). Anything larger on
/// the wire is treated as corruption.
const MAX_FRAME: usize = 1 << 20;

/// Outbox size past which `send` flushes without waiting for a pump,
/// so the outbox stays small whatever a phase sends.
const FLUSH_AT: usize = 64 << 10;

/// Bytes taken off the socket per `read`; the inbox never holds more
/// than one partial frame plus one chunk.
const READ_CHUNK: usize = 16 << 10;

/// What the head of a receive buffer holds.
#[derive(Debug, PartialEq, Eq)]
enum Split {
    /// Not yet a whole frame: wait for more bytes.
    NeedMore,
    /// A length outside `HEADER_LEN..=MAX_FRAME`: the stream can no
    /// longer be trusted.
    Corrupt,
    /// One whole frame: header + payload are `buf[4..n]`, and `n` bytes
    /// are consumed.
    Frame(usize),
}

/// Split the first frame off `buf`. Pure and total: never reads past
/// `buf`, never accepts a length above the cap.
fn split_frame(buf: &[u8]) -> Split {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Split::NeedMore;
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if !(HEADER_LEN..=MAX_FRAME).contains(&len) {
        Split::Corrupt
    } else if buf.len() < 4 + len {
        Split::NeedMore
    } else {
        Split::Frame(4 + len)
    }
}

/// TCP (localhost) carrier around the [`InMemoryTransport`] delivery
/// core.
///
/// The transport is self-connected: it binds an ephemeral loopback
/// listener, dials it once with retry/backoff and accepts the peer —
/// a real socket, real framing, real backpressure, no external process
/// required. See the [module docs](self) for wire format, batching,
/// fault semantics and ordering.
pub struct SocketTransport<M: Wire> {
    /// Admission, the delivery heap and every counter.
    core: InMemoryTransport<M>,
    writer: TcpStream,
    reader: TcpStream,
    /// Whole frames encoded by `send` and not yet handed to the kernel.
    outbox: Vec<u8>,
    /// Bytes read off the wire that do not yet form a whole frame.
    inbox: Vec<u8>,
    /// Frames of this phase not yet parsed back out: in the outbox, on
    /// the wire or in the inbox.
    outstanding: u64,
    /// The smallest `(deliver_tick, seq)` sent since the last pump — a
    /// lower bound on every outstanding frame's key; `None` when nothing
    /// was sent since, so nothing is outstanding.
    unpumped_min: Option<(u64, u64)>,
}

impl<M: Wire> SocketTransport<M> {
    /// Bind a loopback listener and establish the connection, retrying
    /// a refused connect with capped exponential backoff (1 ms doubling
    /// to 64 ms, five retries).
    pub fn connect(plan: FaultPlan, seed: u64) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let writer = connect_with_retry(listener.local_addr()?)?;
        writer.set_nodelay(true)?;
        writer.set_nonblocking(true)?;
        let (reader, _) = listener.accept()?;
        reader.set_nonblocking(true)?;
        Ok(SocketTransport {
            core: InMemoryTransport::new(plan, seed),
            writer,
            reader,
            outbox: Vec::new(),
            inbox: Vec::new(),
            outstanding: 0,
            unpumped_min: None,
        })
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        self.core.plan()
    }

    /// Read every byte currently available, one chunk at a time, and
    /// hand each complete frame to the core as soon as it is whole.
    /// Non-blocking. Called by a pump, and by a flush whose write would
    /// block: the kernel buffers of the self-connected pair empty only
    /// when this side reads them.
    fn drain_ready(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.reader.read(&mut chunk) {
                Ok(0) => return, // closed: nothing more will arrive
                Ok(n) => self.inbox.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return, // `WouldBlock`: nothing more for now
            }
            self.parse_inbox();
        }
    }

    /// Hand every whole frame at the head of the inbox to the core and
    /// keep the partial tail.
    fn parse_inbox(&mut self) {
        let inbox = std::mem::take(&mut self.inbox);
        let mut rest = &inbox[..];
        loop {
            match split_frame(rest) {
                Split::NeedMore => break,
                Split::Corrupt => {
                    // Degrade every in-flight frame to dropped and
                    // abandon the buffered bytes.
                    self.core.wire_lost(std::mem::take(&mut self.outstanding));
                    rest = &[];
                    break;
                }
                Split::Frame(n) => {
                    self.accept_frame(&rest[4..n]);
                    rest = &rest[n..];
                }
            }
        }
        let consumed = inbox.len() - rest.len();
        self.inbox = inbox;
        self.inbox.drain(..consumed);
    }

    /// Decode one complete frame (header + payload) into the core.
    fn accept_frame(&mut self, frame: &[u8]) {
        let word = |i: usize| {
            u64::from_le_bytes(frame[i * 8..i * 8 + 8].try_into().expect("HEADER_LEN checked"))
        };
        if (word(0), word(1)) != self.core.phase_id() {
            // Straggler from a closed phase: the phase barrier already
            // discarded it, silently, exactly like the in-memory queue
            // clear. It does not touch the current phase's accounting.
            return;
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        let (src, dst) = (word(2), word(3));
        let (sent_tick, deliver_tick, seq) = (word(4), word(5), word(6));
        match M::decode(&frame[HEADER_LEN..]) {
            Some(msg) => {
                self.core.enqueue(seq, Envelope { src, dst, sent_tick, deliver_tick, msg })
            }
            None => self.core.wire_lost(1),
        }
    }

    /// Hand the whole outbox to the kernel. A write that would block
    /// drains the inbound side and tries again until [`IO_TIMEOUT`]; on
    /// that deadline or a hard error the frames not written out whole
    /// count as dropped and the write side is closed.
    fn flush(&mut self) {
        let start = Instant::now();
        let mut spins = 0u32;
        let mut written = 0;
        while written < self.outbox.len() {
            match self.writer.write(&self.outbox[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock && start.elapsed() <= IO_TIMEOUT => {
                    self.drain_ready();
                    idle(&mut spins);
                }
                Err(_) => break,
            }
        }
        if written < self.outbox.len() {
            let (mut end, mut lost) = (0, 0);
            while let Split::Frame(n) = split_frame(&self.outbox[end..]) {
                end += n;
                lost += u64::from(end > written);
            }
            // A corrupt read may already have written them off.
            let lost = lost.min(self.outstanding);
            self.outstanding -= lost;
            self.core.wire_lost(lost);
            let _ = self.writer.shutdown(Shutdown::Write);
        }
        self.outbox.clear();
    }

    /// Flush, then read until every outstanding frame has been parsed
    /// or [`IO_TIMEOUT`] expires; expired frames degrade to dropped.
    fn pump(&mut self) {
        self.flush();
        self.unpumped_min = None;
        let start = Instant::now();
        let mut spins = 0u32;
        while self.outstanding > 0 {
            self.drain_ready();
            if self.outstanding == 0 {
                return;
            }
            if start.elapsed() > IO_TIMEOUT {
                self.core.wire_lost(std::mem::take(&mut self.outstanding));
                return;
            }
            idle(&mut spins);
        }
    }
}

/// One step of a deadline-bounded wait: yield for the first 256 steps
/// (on a single core the pair makes progress only that way), then
/// sleep 50 µs per step.
fn idle(spins: &mut u32) {
    if *spins < 256 {
        *spins += 1;
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Dial `addr` with capped exponential [`backoff`].
fn connect_with_retry(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut attempt = 0;
    loop {
        match TcpStream::connect_timeout(&addr, IO_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if attempt >= MAX_RETRIES {
                    return Err(e);
                }
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
        }
    }
}

impl<M: Wire> Transport<M> for SocketTransport<M> {
    fn begin_phase(&mut self, epoch: u64, phase: u64, window: u64) {
        // Unflushed frames of the closed phase are discarded here;
        // stragglers already on the wire carry their old (epoch, phase)
        // header and are discarded at parse time. Neither is
        // outstanding for anyone.
        self.outbox.clear();
        self.outstanding = 0;
        self.unpumped_min = None;
        self.core.begin_phase(epoch, phase, window);
    }

    fn send(&mut self, src: NodeId, dst: NodeId, sent_tick: u64, msg: M) {
        let Some((seq, deliver_tick)) = self.core.admit(src, dst, sent_tick) else {
            return;
        };
        let (epoch, phase) = self.core.phase_id();
        let start = self.outbox.len();
        self.outbox.extend_from_slice(&[0u8; 4]); // length backpatched below
        for w in [epoch, phase, src, dst, sent_tick, deliver_tick, seq] {
            self.outbox.extend_from_slice(&w.to_le_bytes());
        }
        msg.encode(&mut self.outbox);
        let len = self.outbox.len() - start - 4;
        if len > MAX_FRAME {
            // An unencodable payload degrades to a drop, like any other
            // wire fault.
            self.outbox.truncate(start);
            self.core.wire_lost(1);
            return;
        }
        self.outbox[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.outstanding += 1;
        let key = (deliver_tick, seq);
        self.unpumped_min = Some(self.unpumped_min.map_or(key, |min| min.min(key)));
        if self.outbox.len() > FLUSH_AT {
            self.flush();
        }
    }

    fn recv(&mut self) -> Option<Envelope<M>> {
        // Lazy pump: an outstanding frame can only precede the heap's
        // top if the smallest key sent since the last pump does (see
        // the module docs), so the (deliver_tick, seq) order stays
        // total — identical to the in-memory transport's.
        if let Some(min) = self.unpumped_min {
            if self.core.peek_key().is_none_or(|top| min < top) {
                self.pump();
            }
        }
        self.core.recv()
    }

    fn stats(&self) -> NetStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::super::NO_DEADLINE;
    use super::*;

    fn drain<T: Transport<u32>>(t: &mut T) -> Vec<Envelope<u32>> {
        let mut out = Vec::new();
        while let Some(env) = t.recv() {
            out.push(env);
        }
        out
    }

    #[test]
    fn loopback_delivers_in_send_order_when_perfect() {
        let mut t = SocketTransport::<u32>::connect(FaultPlan::perfect(), 42).expect("loopback");
        t.begin_phase(3, 1, NO_DEADLINE);
        for i in 0..100u32 {
            t.send(i as u64 % 7, 0, i as u64 / 10, i);
        }
        let got: Vec<u32> = drain(&mut t).into_iter().map(|e| e.msg).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        let s = t.stats();
        assert_eq!((s.sent, s.delivered, s.dropped, s.late), (100, 100, 0, 0));
    }

    /// The core equivalence: over any fault plan, the socket transport
    /// delivers the exact same envelope sequence as the in-memory
    /// transport with the same plan and seed.
    #[test]
    fn socket_matches_memory_under_faults() {
        let plans = [
            FaultPlan::perfect(),
            FaultPlan { drop_rate: 0.4, ..FaultPlan::perfect() },
            FaultPlan { drop_rate: 0.2, latency_max: 12, partition_ticks: 8 },
        ];
        for plan in plans {
            let mut mem = InMemoryTransport::<u32>::new(plan, 7);
            let mut sock = SocketTransport::<u32>::connect(plan, 7).expect("loopback");
            for phase in 0..3u64 {
                mem.begin_phase(1, phase, 40);
                sock.begin_phase(1, phase, 40);
                for i in 0..64u32 {
                    mem.send(i as u64 % 9, (i as u64 * 3) % 11, i as u64 / 8, i);
                    sock.send(i as u64 % 9, (i as u64 * 3) % 11, i as u64 / 8, i);
                }
                assert_eq!(drain(&mut mem), drain(&mut sock), "plan {plan:?} phase {phase}");
            }
            assert_eq!(mem.stats(), sock.stats(), "stats agree for {plan:?}");
        }
    }

    #[test]
    fn stale_phase_frames_are_discarded() {
        let mut t = SocketTransport::<u32>::connect(FaultPlan::perfect(), 0).expect("loopback");
        t.begin_phase(0, 0, NO_DEADLINE);
        t.send(1, 2, 0, 10);
        t.flush();
        // Abandon the phase while the frame is still on the wire.
        t.begin_phase(0, 1, NO_DEADLINE);
        t.send(1, 2, 0, 11);
        let got: Vec<u32> = drain(&mut t).into_iter().map(|e| e.msg).collect();
        assert_eq!(got, vec![11], "the straggler from phase 0 never surfaces");
    }

    /// The frame splitter is total over arbitrary bytes: it never
    /// panics, a `Frame` never reaches past the buffer or the cap, and
    /// each malformed shape lands in its own arm.
    #[test]
    fn split_frame_is_total_over_hostile_bytes() {
        use rand::Rng;
        let valid = |payload: usize| {
            let mut f = ((HEADER_LEN + payload) as u32).to_le_bytes().to_vec();
            f.resize(4 + HEADER_LEN + payload, 0xAB);
            f
        };
        let mut rng = crate::rng::stream_rng(42, "split-frame", 0);
        for _ in 0..20_000 {
            let mut buf = match rng.gen_range(0..4u32) {
                // Random bytes (short buffers make small lengths likely).
                0 => (0..rng.gen_range(0..96usize)).map(|_| rng.gen::<u8>()).collect(),
                // A random length prefix over a random tail.
                1 => {
                    let len: u32 = if rng.gen() { rng.gen() } else { rng.gen_range(0..200) };
                    let mut b = len.to_le_bytes().to_vec();
                    b.resize(4 + rng.gen_range(0..300usize), rng.gen());
                    b
                }
                // A valid frame, possibly truncated.
                2 => {
                    let mut f = valid(rng.gen_range(0..64));
                    f.truncate(rng.gen_range(0..=f.len()));
                    f
                }
                // A valid frame followed by garbage.
                _ => valid(rng.gen_range(0..64)),
            };
            let tail = rng.gen_range(0..8usize);
            buf.extend((0..tail).map(|_| rng.gen::<u8>()));
            match split_frame(&buf) {
                Split::Frame(n) => {
                    assert!(n <= buf.len() && (4 + HEADER_LEN..=4 + MAX_FRAME).contains(&n));
                    assert_eq!(u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize, n - 4);
                }
                Split::NeedMore => assert!(
                    buf.len() < 4
                        || buf.len()
                            < 4 + u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize
                ),
                Split::Corrupt => {
                    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
                    assert!(!(HEADER_LEN..=MAX_FRAME).contains(&len));
                }
            }
        }
        // The named shapes, pinned.
        assert_eq!(split_frame(&[]), Split::NeedMore);
        assert_eq!(split_frame(&[56, 0, 0]), Split::NeedMore);
        assert_eq!(split_frame(&55u32.to_le_bytes()), Split::Corrupt, "len < 56");
        assert_eq!(split_frame(&((MAX_FRAME + 1) as u32).to_le_bytes()), Split::Corrupt);
        assert_eq!(split_frame(&(MAX_FRAME as u32).to_le_bytes()), Split::NeedMore);
        let mut f = valid(3);
        assert_eq!(split_frame(&f[..f.len() - 1]), Split::NeedMore, "truncated");
        f.extend_from_slice(&[0xFF; 9]);
        assert_eq!(split_frame(&f), Split::Frame(4 + HEADER_LEN + 3), "garbage stays unread");
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        assert_eq!(backoff(0), Duration::from_millis(1));
        assert_eq!(backoff(3), Duration::from_millis(8));
        assert_eq!(backoff(20), BACKOFF_CAP, "schedule saturates at the cap");
    }

    /// Backpressure: far more traffic than one kernel socket buffer
    /// holds must not deadlock the self-connected pair, and nothing may
    /// be lost on a healthy loopback.
    #[test]
    fn heavy_traffic_does_not_deadlock_or_lose_frames() {
        let mut t = SocketTransport::<u32>::connect(FaultPlan::perfect(), 9).expect("loopback");
        t.begin_phase(0, 0, NO_DEADLINE);
        let n = 20_000u32;
        for i in 0..n {
            t.send(i as u64 % 64, (i as u64 * 5) % 64, 0, i);
        }
        assert_eq!(drain(&mut t).len(), n as usize);
        let s = t.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (n as u64, n as u64, 0));
    }

    /// A payload of arbitrary bytes, for frames near the size cap.
    #[derive(Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl Wire for Blob {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Blob(bytes.to_vec()))
        }
    }

    /// The backpressure branch: one phase sends more bytes than the
    /// kernel's largest receive plus send buffers hold, with no `recv`
    /// in between, so flushes must meet `WouldBlock` and drain the
    /// inbound side to make progress. Every frame still arrives, whole
    /// and in order.
    #[test]
    fn frames_beyond_the_kernel_buffers_flow_through_backpressure() {
        let mut t = SocketTransport::<Blob>::connect(FaultPlan::perfect(), 5).expect("loopback");
        t.begin_phase(0, 0, NO_DEADLINE);
        let frames = 48u64;
        let blob = |i: u64| Blob(vec![i as u8; MAX_FRAME - HEADER_LEN]);
        for i in 0..frames {
            t.send(i % 3, 0, i, blob(i));
        }
        for i in 0..frames {
            let env = t.recv().expect("every frame is delivered");
            assert_eq!((env.sent_tick, env.msg == blob(i)), (i, true), "frame {i}");
        }
        assert!(t.recv().is_none());
        let s = t.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (frames, frames, 0));
    }

    /// A connection closed mid-run degrades to drops within the I/O
    /// deadline: after a healthy phase the read side is shut down, and
    /// every send of the next phase counts as `dropped` while `recv`
    /// returns `None` once the pump deadline expires.
    #[test]
    fn connection_closed_mid_run_drops_within_the_deadline() {
        let mut t = SocketTransport::<u32>::connect(FaultPlan::perfect(), 3).expect("loopback");
        t.begin_phase(0, 0, NO_DEADLINE);
        for i in 0..50u32 {
            t.send(1, 2, i as u64, i);
        }
        assert_eq!(drain(&mut t).len(), 50, "the healthy phase delivers everything");
        t.reader.shutdown(Shutdown::Both).expect("shutdown");
        t.begin_phase(0, 1, NO_DEADLINE);
        for i in 0..50u32 {
            t.send(1, 2, i as u64, i);
        }
        let start = Instant::now();
        assert!(t.recv().is_none(), "nothing arrives over a closed connection");
        let waited = start.elapsed();
        assert!(waited < IO_TIMEOUT + Duration::from_secs(1), "waited {waited:?}");
        let s = t.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (100, 50, 50));
        assert_eq!(s.sent, s.delivered + s.dropped);
    }
}
