//! TCP: the heavyweight baseline transport.
//!
//! The paper (§3): "TCP has a high overhead and does not preserve
//! delimiters." This implementation is deliberately faithful to both
//! complaints: it delivers an undelimited byte stream (so 9P needs the
//! marshaling layer), and it recovers from loss by *blind* go-back-N
//! retransmission from the last acknowledged byte — the behavior IL's
//! query/state scheme was designed to avoid. Everything else is a
//! real, if compact, TCP: three-way handshake, sequence and cumulative
//! acknowledgment numbers, sliding window with peer-advertised window,
//! adaptive RTO from an RTT estimator, FIN/RST teardown, TIME-WAIT.
//!
//! TCP is a core and a shell, as IL is. The core, [`fsm`], is
//! `State::step(&mut self, Input, Now) -> Actions`; the shell is the one
//! that drives IL's, TCP's and URP's cores alike, `support::step::Shell`
//! (lock → step → aim → drop → perform). What [`TcpConn`] does itself is
//! TCP's: the codec, the counters and events, the segments, the
//! listener, the table, and the pump, one hold per segment so that
//! segments leave in sequence order; and it wakes readers and writers
//! after its segments leave, but before them on a timeout's give-up.

use crate::addr::IpAddr;
use crate::checksum::{internet_checksum, internet_checksum_gather};
use crate::conv::{self, initial_seq, ConnKey, ConvTable};
use crate::ip::IpStack;
use plan9_netlog::trace;
use plan9_netlog::{Counter, Facility, NetLog};
use plan9_support::buf::Bytes;
use plan9_support::copysite::Site;
use plan9_support::step::{Conv, On, Shell};
use plan9_support::time;
use plan9_ninep::NineError;
use fsm::{Actions, Input, Seg, State};
use std::sync::{Arc, Weak};
use std::time::Duration;

pub mod fsm;

/// The IP protocol number for TCP.
pub const TCP_PROTO: u8 = 6;

/// Bytes of TCP header (no options).
pub const TCP_HDR: usize = 20;

/// FIN flag.
pub const FIN: u16 = 0x01;
/// SYN flag.
pub const SYN: u16 = 0x02;
/// RST flag.
pub const RST: u16 = 0x04;
/// PSH flag.
pub const PSH: u16 = 0x08;
/// ACK flag.
pub const ACK: u16 = 0x10;

/// Send buffer bound: writers block beyond this.
const SND_BUF_MAX: usize = 64 * 1024;

/// Receive buffer bound, also the advertised window ceiling.
const RCV_BUF_MAX: usize = 48 * 1024;

/// Initial retransmission timeout before any RTT sample.
const RTO_INITIAL: Duration = Duration::from_millis(200);

/// Bounds on the adaptive RTO.
const RTO_MIN: Duration = Duration::from_millis(20);
const RTO_MAX: Duration = Duration::from_secs(3);

/// How long a closed connection lingers in TIME-WAIT.
pub const TIME_WAIT: Duration = Duration::from_millis(200);

/// Handshake / teardown attempt bound.
const MAX_RETRIES: u32 = 8;

/// The longest a connection can go on with none leaving the table:
/// every retry at the longest timeout, the give-up, then TIME-WAIT.
pub const HORIZON: Duration = RTO_MAX.saturating_mul(MAX_RETRIES + 1).saturating_add(TIME_WAIT);

/// Connection states, readable in `/net/tcp/n/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, waiting for SYN+ACK.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We closed first; FIN sent.
    FinWait1,
    /// Our FIN acknowledged; awaiting the peer's.
    FinWait2,
    /// Peer closed first.
    CloseWait,
    /// Peer closed, then we closed; FIN sent.
    LastAck,
    /// Simultaneous close.
    Closing,
    /// Both sides done; draining duplicates.
    TimeWait,
    /// Gone.
    Closed,
}

impl TcpState {
    /// The name shown in the `status` file.
    pub fn name(&self) -> &'static str {
        match self {
            TcpState::SynSent => "Syn_sent",
            TcpState::SynRcvd => "Syn_received",
            TcpState::Established => "Established",
            TcpState::FinWait1 => "Finwait1",
            TcpState::FinWait2 => "Finwait2",
            TcpState::CloseWait => "Close_wait",
            TcpState::LastAck => "Last_ack",
            TcpState::Closing => "Closing",
            TcpState::TimeWait => "Time_wait",
            TcpState::Closed => "Closed",
        }
    }
}

/// A parsed TCP segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment.
    pub ack: u32,
    /// Flag bits.
    pub flags: u16,
    /// Advertised receive window.
    pub window: u16,
    /// Payload bytes: for a received segment, a view of its frame.
    pub payload: Bytes,
}

/// A segment's header: what a connection writes in front of payload it
/// leaves where it lies.
struct TcpHeader {
    sport: u16,
    dport: u16,
    seq: u32,
    ack: u32,
    flags: u16,
    window: u16,
}

impl TcpHeader {
    /// The wire form to go in front of `payload`, with the checksum of
    /// both.
    fn encode(&self, payload: [&[u8]; 2]) -> [u8; TCP_HDR] {
        let mut b = [0u8; TCP_HDR]; // checksum and urgent stay zero
        b[0..2].copy_from_slice(&self.sport.to_be_bytes());
        b[2..4].copy_from_slice(&self.dport.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.ack.to_be_bytes());
        let offset_flags = ((5u16) << 12) | (self.flags & 0x3f);
        b[12..14].copy_from_slice(&offset_flags.to_be_bytes());
        b[14..16].copy_from_slice(&self.window.to_be_bytes());
        let sum = internet_checksum_gather(&[&b, payload[0], payload[1]]);
        b[16..18].copy_from_slice(&sum.to_be_bytes());
        b
    }
}

/// The copy in from the writer: `write`'s, or the one that made the
/// buffer `write_bytes` is given.
pub(crate) static SEGMENT_SITE: Site = Site::new("tcp.segment");
static RX_SITE: Site = Site::new("tcp.rxcopy");

/// Parses and checksum-verifies a segment; its payload is a view of `b`.
pub fn decode_segment(b: Bytes) -> Option<Segment> {
    if b.len() < TCP_HDR {
        return None;
    }
    if internet_checksum(&b) != 0 {
        return None;
    }
    let offset_flags = u16::from_be_bytes([b[12], b[13]]);
    let data_off = ((offset_flags >> 12) & 0xf) as usize * 4;
    if data_off < TCP_HDR || data_off > b.len() {
        return None;
    }
    Some(Segment {
        sport: u16::from_be_bytes([b[0], b[1]]),
        dport: u16::from_be_bytes([b[2], b[3]]),
        seq: u32::from_be_bytes(b.get(4..8)?.try_into().ok()?),
        ack: u32::from_be_bytes(b.get(8..12)?.try_into().ok()?),
        flags: offset_flags & 0x3f,
        window: u16::from_be_bytes([b[14], b[15]]),
        payload: b.slice(data_off..b.len()),
    })
}

/// Aggregate TCP counters; the blind-retransmission numbers feed the
/// IL-vs-TCP experiment. All live in the stack's netlog registry under
/// `tcp.*` names.
pub struct TcpStats {
    /// Segments sent (first transmissions).
    pub tx_segments: Counter,
    /// Segments received and accepted.
    pub rx_segments: Counter,
    /// Segments retransmitted blindly after a timeout.
    pub retransmit_segments: Counter,
    /// Payload bytes retransmitted.
    pub retransmit_bytes: Counter,
    /// Fast retransmits triggered by triple duplicate acks.
    pub fast_retransmits: Counter,
    /// Segments that arrived beyond the next byte expected.
    pub ooo: Counter,
}

impl TcpStats {
    fn new(netlog: &NetLog) -> TcpStats {
        let reg = &netlog.registry;
        TcpStats {
            tx_segments: reg.counter("tcp.tx"),
            rx_segments: reg.counter("tcp.rx"),
            retransmit_segments: reg.counter("tcp.rexmit"),
            retransmit_bytes: reg.counter("tcp.rexmitbytes"),
            fast_retransmits: reg.counter("tcp.fastrexmit"),
            ooo: reg.counter("tcp.ooo"),
        }
    }
}

/// The per-stack TCP state.
pub struct TcpModule {
    pub(crate) table: Arc<ConvTable<TcpConn>>,
    /// Aggregate counters.
    pub stats: TcpStats,
    /// The stack's instrumentation block, for retransmission events.
    netlog: Arc<NetLog>,
}

/// A passive listener.
pub type TcpListener = conv::Listener<TcpConn>;

/// One TCP connection: the [`Shell`] that drives [`fsm`], and what TCP
/// does with a step itself — the segments, its counters and events, the
/// listener, the pump and the table.
pub struct TcpConn {
    stack: Weak<IpStack>,
    key: ConnKey,
    pub(crate) shell: Shell<State>,
}

impl TcpModule {
    pub(crate) fn new(netlog: &Arc<NetLog>) -> TcpModule {
        TcpModule {
            table: ConvTable::new(|conn| conn.close()),
            stats: TcpStats::new(netlog),
            netlog: Arc::clone(netlog),
        }
    }

    /// Actively opens a connection; blocks until established or failed.
    pub fn connect(
        &self,
        stack: &Arc<IpStack>,
        dst: IpAddr,
        dport: u16,
    ) -> crate::Result<Arc<TcpConn>> {
        self.connect_from(stack, 0, dst, dport)
    }

    /// Actively opens a connection from a specific local port.
    pub fn connect_from(
        &self,
        stack: &Arc<IpStack>,
        lport: u16,
        dst: IpAddr,
        dport: u16,
    ) -> crate::Result<Arc<TcpConn>> {
        let iss = initial_seq();
        let conn = self.table.open(lport, dst, dport, |key| TcpConn::fresh(stack, key, iss, None))?;
        // A failed timer arm or transmit must not leak the conn in the
        // conns table: tear it down and surface the error to the
        // dialer.
        let (acts, armed) = conn.shell.step(&conn, &mut conn.shell.lock(), Input::Open);
        let setup = armed.map_err(|e| NineError::new(format!("tcp timer: {e}")));
        if let Err(e) = setup.and_then(|()| conn.perform(acts)) {
            conn.abandon();
            return Err(e);
        }
        // Wait for the handshake to finish.
        let deadline = time::now() + Duration::from_secs(10);
        let err = conn.shell.wait(On::Readable, Some(deadline), |held| match (&held.st.err, held.st.state) {
            (Some(e), _) => Some(Some(e.clone())),
            (None, TcpState::SynSent | TcpState::SynRcvd) if time::now() < deadline => None,
            (None, TcpState::SynSent | TcpState::SynRcvd) => Some(Some("connection timed out".to_string())),
            (None, _) => Some(None),
        });
        match err {
            None => Ok(conn),
            Some(e) => {
                conn.abandon();
                Err(NineError::new(e))
            }
        }
    }

    /// Passively opens a listening port.
    pub fn listen(&self, _stack: &Arc<IpStack>, port: u16) -> crate::Result<TcpListener> {
        self.table.listen(port)
    }

    pub(crate) fn input(stack: &Arc<IpStack>, src: IpAddr, data: Bytes) {
        let Some(seg) = decode_segment(data) else {
            return;
        };
        stack.tcp.stats.rx_segments.inc();
        let key = ConnKey {
            lport: seg.dport,
            raddr: src,
            rport: seg.sport,
        };
        if let Some(conn) = stack.tcp.table.lookup(&key) {
            let _ = conn.shell.run(&conn, Input::Segment(&seg));
            return;
        }
        // No connection: maybe a listener?
        if seg.flags & SYN != 0 && seg.flags & ACK == 0 {
            let iss = initial_seq();
            let peer = Some((seg.seq, seg.window));
            if let Some(conn) = stack.tcp.table.answer(key, || TcpConn::fresh(stack, key, iss, peer)) {
                let (acts, armed) = conn.shell.step(&conn, &mut conn.shell.lock(), Input::Open);
                let _ = conn.perform(acts);
                if armed.is_err() {
                    // No timer means the handshake can never be
                    // retried; drop the embryonic conn rather than
                    // leak it. The peer will retransmit its SYN.
                    conn.abandon();
                }
                return;
            }
        }
        // Neither connection nor listener: refuse.
        if seg.flags & RST == 0 {
            let rst = TcpHeader {
                sport: seg.dport,
                dport: seg.sport,
                seq: seg.ack,
                ack: seg.seq.wrapping_add(seg.payload.len() as u32),
                flags: RST | ACK,
                window: 0,
            };
            let _ = stack.send(src, TCP_PROTO, &[&rst.encode([&[], &[]])]);
        }
    }

    /// Number of live connections (diagnostics).
    pub fn conn_count(&self) -> usize {
        self.table.len()
    }
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpConn({} -> {})", self.local_string(), self.remote_string())
    }
}

impl TcpConn {
    fn fresh(stack: &Arc<IpStack>, key: ConnKey, iss: u32, peer: Option<(u32, u16)>) -> Arc<TcpConn> {
        let st = State::new(iss, stack.mtu() - TCP_HDR, peer);
        Arc::new(TcpConn { stack: Arc::downgrade(stack), key, shell: Shell::new(st, key.conv_id(&[TCP_PROTO])) })
    }

    /// The local address string for the `local` file: `ip port`.
    pub fn local_string(&self) -> String {
        self.key.local_string(&self.stack)
    }

    /// The remote address string for the `remote` file.
    pub fn remote_string(&self) -> String {
        format!("{} {}", self.key.raddr, self.key.rport)
    }

    /// The connection state.
    pub fn state(&self) -> TcpState {
        self.shell.lock().st.state
    }

    /// The status line for the `status` file.
    pub fn status_string(&self) -> String {
        let held = self.shell.lock();
        let st = &held.st;
        let unacked = st.snd_nxt.wrapping_sub(st.snd_una);
        format!("{} srtt {} unacked {unacked} cwnd {} ssthresh {}", st.state.name(), st.rtt.srtt_string(), st.cwnd, st.ssthresh)
    }

    fn transmit(&self, stack: &IpStack, seg: &Seg) -> crate::Result<()> {
        let [a, b]: [&[u8]; 2] = match &seg.payload {
            Some([a, b]) => [a, b],
            None => [&[], &[]],
        };
        let (sport, dport) = (self.key.lport, self.key.rport);
        let hdr = TcpHeader { sport, dport, seq: seg.seq, ack: seg.ack, flags: seg.flags, window: seg.window };
        stack.tcp.stats.tx_segments.inc();
        stack.send(self.key.raddr, TCP_PROTO, &[&hdr.encode([a, b]), a, b])
    }

    /// Writes bytes into the stream; blocks while the send buffer is
    /// full. Boundaries are NOT preserved — this is TCP.
    pub fn write(self: &Arc<Self>, data: &[u8]) -> crate::Result<usize> {
        self.traced(|| {
            let mut offered = 0usize;
            while offered < data.len() {
                let take = |room: usize| {
                    let n = room.min(data.len() - offered);
                    // The copy in from the writer: kept until
                    // acknowledged, and the source of every
                    // transmission till then.
                    SEGMENT_SITE.record(n);
                    Bytes::from(data[offered..offered + n].to_vec())
                };
                offered += self.put(take)?;
            }
            Ok(data.len())
        })
    }

    /// Writes a buffer made for the stream, which keeps it, uncopied,
    /// until it is acknowledged: blocks while the send buffer is full,
    /// and once it has room takes the buffer whole.
    pub fn write_bytes(self: &Arc<Self>, data: Bytes) -> crate::Result<()> {
        self.traced(|| self.put(|_| data).map(drop))
    }

    /// Runs a write under a `tcp write` span when the writer is traced.
    fn traced<T>(&self, write: impl FnOnce() -> crate::Result<T>) -> crate::Result<T> {
        let Some(h) = trace::current() else { return write() };
        let t0 = time::now();
        let done = write()?;
        h.span(Facility::Tcp, "tcp write", t0, time::now());
        Ok(done)
    }

    /// Waits for room in the send buffer, queues the buffer `take` makes
    /// of the room there is, and sends what the windows allow. Returns
    /// the bytes queued.
    fn put(self: &Arc<Self>, take: impl FnOnce(usize) -> Bytes) -> crate::Result<usize> {
        let mut take = Some(take);
        let (acts, n) = self.shell.wait(On::Writable, None, |held| match held.st.room() {
            Ok(0) => None,
            Ok(room) => {
                let buf = take.take()?(room);
                let n = buf.len();
                Some(Ok((self.shell.step(self, held, Input::Write(buf, trace::current())).0, n)))
            }
            Err(e) => Some(Err(NineError::new(e))),
        })?;
        let _ = self.perform(acts);
        Ok(n)
    }

    /// Whether [`TcpConn::write_bytes`] would go ahead at once: the send
    /// buffer has room, or the conversation is over and it would fail.
    pub fn can_send(&self) -> bool {
        self.shell.lock().st.room() != Ok(0)
    }

    /// Pushes out as many segments as the windows allow, one hold of
    /// the lock each, one thread at a time (the core's `Pump`): a second
    /// caller returns at once, and the first looks again, under the
    /// lock, before it gives the pump up.
    fn pump(self: &Arc<Self>) {
        let mut mine = false;
        loop {
            let acts = self.shell.step(self, &mut self.shell.lock(), Input::Pump(mine)).0;
            mine = !acts.segs.is_empty();
            if !mine {
                return;
            }
            let _ = self.perform(acts);
        }
    }

    /// Reads up to `max` bytes; blocks until data, EOF (`Ok(empty)`) or
    /// error.
    pub fn read(self: &Arc<Self>, max: usize) -> crate::Result<Vec<u8>> {
        let acts = self.shell.wait(On::Readable, None, |held| {
            let acts = self.shell.step(self, held, Input::Read(max)).0;
            acts.got.is_some().then_some(acts)
        });
        self.taken(acts)
    }

    /// [`TcpConn::read`] for pool-serviced conversations: `None` where
    /// that would wait.
    pub fn try_read(self: &Arc<Self>, max: usize) -> crate::Result<Option<Vec<u8>>> {
        let acts = self.shell.step(self, &mut self.shell.lock(), Input::Read(max)).0;
        acts.got.is_some().then(|| self.taken(acts)).transpose()
    }

    /// What a read took, its window update sent.
    fn taken(&self, acts: Actions) -> crate::Result<Vec<u8>> {
        if let Some(stack) = self.stack.upgrade() {
            for seg in acts.segs.iter() {
                let _ = self.transmit(&stack, seg);
            }
        }
        let data = acts.got.unwrap_or_else(|| Ok(Vec::new())).map_err(NineError::new)?;
        if !data.is_empty() {
            // The copy out to the reader, the only one the bytes get on
            // this side of the wire.
            RX_SITE.record(data.len());
        }
        Ok(data)
    }

    /// Half-closes the connection: no more writes, reads drain.
    pub fn close(self: &Arc<Self>) {
        let _ = self.shell.run(self, Input::Close);
    }

    /// Aborts the connection with a RST.
    pub fn abort(self: &Arc<Self>) {
        let _ = self.shell.run(self, Input::Abort);
    }

    /// Frees a conversation that failed to start: its timer, its slot.
    fn abandon(self: &Arc<Self>) {
        let _ = self.shell.run(self, Input::Abandon);
    }
}

impl Conv for TcpConn {
    type Core = State;
    type Done = crate::Result<()>;

    fn shell(&self) -> &Shell<State> {
        &self.shell
    }

    /// Does what a step asked, the lock dropped: the counters and
    /// events, the segments in order, the listener, the wakes and the
    /// readiness hook (before the segments, for a timeout's give-up),
    /// the pump, the table. Returns the first transmit's failure.
    fn perform(self: &Arc<Self>, acts: Actions) -> crate::Result<()> {
        // A segment taken in silence (its ack delayed) needs no stack.
        let wants_stack = !acts.segs.is_empty() || acts.ooo || acts.established || acts.free;
        let stack = if wants_stack { self.stack.upgrade() } else { None };
        let sent = self.shell.perform(&acts, || {
            let Some(stack) = &stack else {
                return if acts.segs.is_empty() { Ok(()) } else { Err(NineError::new("stack is down")) };
            };
            let stats = &stack.tcp.stats;
            if acts.ooo {
                stats.ooo.inc();
            }
            let tr = acts.trace.as_ref();
            if let Some(seg) = acts.segs.iter().next().filter(|_| acts.fast) {
                let (seq, len) = (seg.seq, seg.payload_len());
                stats.fast_retransmits.inc();
                stats.retransmit_segments.inc();
                stats.retransmit_bytes.add(len as u64);
                stack.tcp.netlog.events.log(Facility::Tcp, tr, || format!("fast rexmit seq {seq} len {len}"));
            }
            if acts.timeout > 0 {
                let n = acts.timeout;
                let bytes: usize = acts.segs.iter().skip(acts.segs.iter().count() - n).map(Seg::payload_len).sum();
                stats.retransmit_segments.add(n as u64);
                stats.retransmit_bytes.add(bytes as u64);
                stack.tcp.netlog.events.log(Facility::Tcp, tr, || format!("timeout rexmit {n} segments {bytes} bytes"));
            }
            let mut sent = Ok(());
            for seg in acts.segs.iter() {
                sent = sent.and(self.transmit(stack, seg));
            }
            if acts.established {
                stack.tcp.table.established(&self.key);
            }
            sent
        });
        // An ack made room in the windows, or the peer opened its own.
        if acts.pump {
            self.pump();
        }
        if let Some(stack) = stack.filter(|_| acts.free) {
            stack.tcp.table.retire(&self.key);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::tests::{two_hosts, two_hosts_on};
    use plan9_netsim::ether::EtherSegment;
    use plan9_netsim::profile::Profiles;

    /// A segment as it crosses the wire: header, then payload.
    fn encoded(hdr: &TcpHeader, payload: &[u8]) -> Vec<u8> {
        [&hdr.encode([payload, &[]])[..], payload].concat()
    }

    #[test]
    fn segment_codec_round_trip() {
        let s = TcpHeader {
            sport: 5012,
            dport: 564,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: ACK | PSH,
            window: 8192,
        };
        let d = decode_segment(encoded(&s, b"Tattach").into()).unwrap();
        assert_eq!((d.sport, d.dport), (s.sport, s.dport));
        assert_eq!((d.seq, d.ack), (s.seq, s.ack));
        assert_eq!((d.flags, d.window), (s.flags, s.window));
        assert_eq!(d.payload, b"Tattach");
    }

    #[test]
    fn corrupted_segment_rejected() {
        let s = TcpHeader {
            sport: 1,
            dport: 2,
            seq: 3,
            ack: 4,
            flags: ACK,
            window: 100,
        };
        let mut b = encoded(&s, b"x");
        b[4] ^= 1;
        assert!(decode_segment(b.into()).is_none());
    }

    #[test]
    fn connect_and_echo() {
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 564).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            loop {
                let data = conn.read(4096).unwrap();
                if data.is_empty() {
                    break;
                }
                conn.write(&data).unwrap();
            }
            conn.close();
        });
        let conn = a.tcp_module().connect(&a, b.addr(), 564).unwrap();
        assert_eq!(conn.state(), TcpState::Established);
        conn.write(b"hello tcp").unwrap();
        let mut got = Vec::new();
        while got.len() < 9 {
            got.extend(conn.read(4096).unwrap());
        }
        assert_eq!(got, b"hello tcp");
        conn.close();
        server.join().unwrap();
    }

    /// The ack that finishes a handshake can be lost. The listener's end
    /// then sends its SYN again, and until an ack of it comes back the
    /// connection is never accepted.
    #[test]
    fn a_syn_again_is_acked_again() {
        let (a, b) = two_hosts();
        let _listener = b.tcp_module().listen(&b, 564).unwrap();
        let conn = a.tcp_module().connect(&a, b.addr(), 564).unwrap();
        let (seq, ack) = {
            let inner = conn.shell.lock();
            (inner.st.rcv_nxt.wrapping_sub(1), inner.st.snd_nxt)
        };
        let synack = TcpHeader { sport: 564, dport: conn.key.lport, seq, ack, flags: SYN | ACK, window: 8192 };
        let sent = a.tcp_module().stats.tx_segments.get();
        let _ = conn.shell.run(&conn, Input::Segment(&decode_segment(encoded(&synack, &[]).into()).unwrap()));
        assert_eq!(a.tcp_module().stats.tx_segments.get(), sent + 1);
    }

    #[test]
    fn connection_refused() {
        let (a, b) = two_hosts();
        let err = a.tcp_module().connect(&a, b.addr(), 9).unwrap_err();
        assert!(err.0.contains("refused"), "{err}");
    }

    #[test]
    fn bulk_transfer_intact() {
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 7001).unwrap();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let expect = payload.clone();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut got = Vec::new();
            loop {
                let data = conn.read(65536).unwrap();
                if data.is_empty() {
                    break;
                }
                got.extend(data);
            }
            got
        });
        let conn = a.tcp_module().connect(&a, b.addr(), 7001).unwrap();
        conn.write(&payload).unwrap();
        conn.close();
        let got = server.join().unwrap();
        assert_eq!(got.len(), expect.len());
        assert_eq!(got, expect);
    }

    #[test]
    fn no_delimiters_preserved() {
        // TCP merges writes: two small writes may be read as one chunk.
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 7002).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let mut got = Vec::new();
            while got.len() < 8 {
                let d = conn.read(4096).unwrap();
                if d.is_empty() {
                    break;
                }
                got.extend(d);
            }
            got
        });
        let conn = a.tcp_module().connect(&a, b.addr(), 7002).unwrap();
        conn.write(b"one").unwrap();
        conn.write(b"two38").unwrap();
        let got = server.join().unwrap();
        assert_eq!(got, b"onetwo38"); // stream, not messages
        conn.close();
    }

    #[test]
    fn survives_loss_by_blind_retransmission() {
        use plan9_netsim::ether::EtherSegment;
        use plan9_netsim::profile::Profiles;
        let seg = EtherSegment::new(Profiles::ether_fast().with_loss(0.15));
        let a = IpStack::new_pooled(
            seg.attach([8, 0, 0, 0, 0, 1]),
            crate::ip::IpConfig::local("10.1.0.1"),
        );
        let b = IpStack::new_pooled(
            seg.attach([8, 0, 0, 0, 0, 2]),
            crate::ip::IpConfig::local("10.1.0.2"),
        );
        let listener = b.tcp_module().listen(&b, 9000).unwrap();
        let payload: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
        let expect = payload.clone();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut got = Vec::new();
            loop {
                let d = conn.read(65536).unwrap();
                if d.is_empty() {
                    break;
                }
                got.extend(d);
            }
            got
        });
        let conn = a.tcp_module().connect(&a, b.addr(), 9000).unwrap();
        conn.write(&payload).unwrap();
        conn.close();
        let got = server.join().unwrap();
        assert_eq!(got, expect);
        // Loss must have forced blind retransmissions.
        assert!(
            a.tcp_module().stats.retransmit_segments.get() > 0,
            "expected retransmissions under 15% loss"
        );
    }

    /// Reads until `total` bytes have come.
    fn read_exactly(conn: &Arc<TcpConn>, total: usize) {
        let mut got = 0;
        while got < total {
            let d = conn.read(65536).unwrap();
            assert!(!d.is_empty(), "end of file at {got} of {total}");
            got += d.len();
        }
    }

    /// The writer's thread and the shard that takes the acks both want
    /// to send: a segment must not overtake the one before it. Counted
    /// where it shows — at the receiver, as segments beyond `rcv_nxt` —
    /// because a stalled host can fire a retransmission timeout on the
    /// real clock, which re-sends old segments but never early ones.
    #[test]
    fn segments_leave_in_sequence_order() {
        const TOTAL: usize = 16 << 20;
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 7020).unwrap();
        let server = std::thread::spawn(move || read_exactly(&listener.accept().unwrap(), TOTAL));
        let conn = a.tcp_module().connect(&a, b.addr(), 7020).unwrap();
        let chunk = vec![0x5au8; 64 * 1024];
        for _ in 0..TOTAL / chunk.len() {
            conn.write(&chunk).unwrap();
        }
        server.join().unwrap();
        for stack in [&a, &b] {
            let stats = &stack.tcp_module().stats;
            let shown = stack.netlog().registry.render(&["tcp."]);
            assert_eq!((stats.ooo.get(), stats.fast_retransmits.get()), (0, 0), "{shown}");
        }
        conn.close();
    }

    #[test]
    fn slow_start_grows_cwnd() {
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 7010).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut got = 0usize;
            while got < 100_000 {
                let d = conn.read(65536).unwrap();
                if d.is_empty() {
                    break;
                }
                got += d.len();
            }
        });
        let conn = a.tcp_module().connect(&a, b.addr(), 7010).unwrap();
        let initial = conn.shell.lock().st.cwnd;
        conn.write(&vec![0u8; 100_000]).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let after = conn.shell.lock().st.cwnd;
        assert!(
            after > initial,
            "cwnd should grow during a clean transfer: {initial} -> {after}"
        );
        conn.close();
        server.join().unwrap();
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let (a, b) = two_hosts_on(&seg);
        let listener = b.tcp_module().listen(&b, 7011).unwrap();
        let conn = a.tcp_module().connect(&a, b.addr(), 7011).unwrap();
        let _srv = listener.accept().unwrap();
        // Put unacked data in flight, on a cut wire: the peer's own ack
        // must not come in among the forged ones and move `snd_una`.
        seg.medium().set_up(false);
        conn.write(b"0123456789").unwrap();
        let (una, rcv) = {
            let inner = conn.shell.lock();
            (inner.st.snd_una, inner.st.rcv_nxt)
        };
        // Forge three duplicate acks for the in-flight data.
        for _ in 0..3 {
            let dup = Segment { sport: 7011, dport: conn.key.lport, seq: rcv, ack: una, flags: ACK, window: 65000, payload: Bytes::default() };
            let _ = conn.shell.run(&conn, Input::Segment(&dup));
        }
        assert_eq!(
            a.tcp_module().stats.fast_retransmits.get(),
            1
        );
        // The congestion window collapsed to ssthresh + 3 MSS.
        let inner = conn.shell.lock();
        assert!(inner.st.cwnd <= inner.st.ssthresh + 3 * inner.st.mss as u32 + 1);
        drop(inner);
        seg.medium().set_up(true);
        conn.close();
    }

    #[test]
    fn an_accepted_connections_teardown_leaves_the_listener_its_port() {
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 564).unwrap();
        let conn = a.tcp_module().connect(&a, b.addr(), 564).unwrap();
        let srv = listener.accept().unwrap();
        conn.close();
        srv.close();
        // Past FIN/ACK both ways and the closer's TIME-WAIT.
        assert_eq!(b.settle(), 0, "connections never torn down");
        // The port is still the listener's...
        let err = b.tcp_module().listen(&b, 564).err().expect("port is held");
        assert!(err.0.contains("in use"), "{err}");
        // ...and the listener still takes calls on it.
        let _again = a.tcp_module().connect(&a, b.addr(), 564).unwrap();
        listener.accept_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn status_strings() {
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 564).unwrap();
        let conn = a.tcp_module().connect(&a, b.addr(), 564).unwrap();
        let _srv = listener.accept().unwrap();
        assert!(conn.status_string().starts_with("Established"));
        assert!(conn.status_string().contains("cwnd"));
        assert!(conn.local_string().starts_with("10.0.0.1 "));
        assert_eq!(conn.remote_string(), format!("{} 564", b.addr()));
        conn.close();
    }
}
