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

use crate::addr::IpAddr;
use crate::checksum::{internet_checksum, internet_checksum_gather};
use crate::conv::{self, initial_seq, seq_le, seq_lt, ConnKey, ConvTable, Rtt, ACK_DELAY};
use crate::ip::IpStack;
use plan9_netlog::trace;
use plan9_netlog::{Counter, Facility, NetLog};
use plan9_support::buf::Bytes;
use plan9_support::copysite::Site;
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::{time, wheel};
use plan9_ninep::NineError;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

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

/// What a segment carries: views of at most two of the buffers in the
/// send queue, or nothing.
type Payload = Option<[Bytes; 2]>;

/// A segment ready to leave: made under the conversation lock,
/// transmitted after it is dropped.
type Outgoing = (TcpHeader, Payload);

/// What a read took off the receive queue, and the window update it
/// owes the sender.
type Taken = (Vec<u8>, Option<TcpHeader>);

fn payload_len(p: &Payload) -> usize {
    p.as_ref().map_or(0, |[a, b]| a.len() + b.len())
}

/// A byte queue that holds the buffers put in it, not copies of their
/// bytes: the writers' retained buffers on the way out, the payload
/// views of the frames that arrived on the way in.
#[derive(Default)]
struct ByteQueue {
    bufs: VecDeque<Bytes>,
    len: usize,
}

impl ByteQueue {
    fn push(&mut self, b: Bytes) {
        self.len += b.len();
        self.bufs.push_back(b);
    }

    /// Takes `n` bytes, at most `len`, off the front and shows each run
    /// of them to `each`: buffers used up are dropped, the last one
    /// touched is advanced.
    fn consume(&mut self, mut n: usize, mut each: impl FnMut(&[u8])) {
        self.len -= n;
        while let Some(front) = self.bufs.front_mut().filter(|_| n > 0) {
            let take = n.min(front.len());
            each(&front[..take]);
            n -= take;
            if take == front.len() {
                self.bufs.pop_front();
            } else {
                *front = front.slice(take..front.len());
            }
        }
    }

    /// Views of the bytes from `off`: up to `n` of them, fewer where
    /// they would reach into a third buffer. `None` past the end.
    fn views(&self, mut off: usize, n: usize) -> Payload {
        let mut bufs = self.bufs.iter();
        let first = loop {
            let b = bufs.next()?;
            if off < b.len() {
                break b;
            }
            off -= b.len();
        };
        let a = first.slice(off..first.len().min(off + n));
        let b = match bufs.next() {
            Some(next) if a.len() < n => next.slice(0..next.len().min(n - a.len())),
            _ => a.slice(0..0),
        };
        Some([a, b])
    }
}

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

struct Inner {
    state: TcpState,
    // Send side.
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    /// Bytes from `snd_una` onward: unacknowledged, then unsent.
    send_q: ByteQueue,
    /// A thread is in `pump`'s loop: segments leave in sequence order
    /// because no second thread sends new ones beside it.
    pumping: bool,
    fin_queued: bool,
    fin_seq: Option<u32>,
    // Receive side.
    rcv_nxt: u32,
    /// `rcv_nxt` as the last segment that carried ACK told it.
    rcv_acked: u32,
    recv_q: ByteQueue,
    ooo: BTreeMap<u32, Bytes>,
    peer_fin: Option<u32>,
    fin_taken: bool,
    // Timing.
    rtt: Rtt,
    rtt_probe: Option<(u32, Instant)>,
    rtx_deadline: Option<Instant>,
    /// When a delayed acknowledgment must leave by itself, if no
    /// segment of ours has carried it by then.
    ack_due: Option<Instant>,
    retries: u32,
    time_wait_until: Option<Instant>,
    /// The wheel timer armed at the earliest pending deadline (delayed
    /// ack, retransmission or TIME-WAIT expiry), if any.
    timer: Option<wheel::TimerId>,
    err: Option<String>,
    // Congestion control (Tahoe/Reno-style; §3's "TCP has a high
    // overhead" includes all of this machinery).
    mss: usize,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    /// The last writer's nettrace root: byte streams have no message
    /// identity, so a retransmission is attributed to the most recent
    /// traced writer.
    trace: Option<trace::TraceHandle>,
}

impl Inner {
    fn inflight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Congestion events halve the pipe estimate.
    fn enter_recovery(&mut self) {
        self.ssthresh = (self.inflight() / 2).max(2 * self.mss as u32);
    }

    /// Opens the congestion window for `acked` newly acknowledged bytes:
    /// exponentially in slow start, linearly in congestion avoidance.
    fn grow_cwnd(&mut self, acked: u32) {
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(acked).min(self.ssthresh.max(self.cwnd + acked));
        } else {
            let mss = self.mss as u32;
            self.cwnd = self
                .cwnd
                .saturating_add((mss.saturating_mul(mss) / self.cwnd.max(1)).max(1));
        }
        self.cwnd = self.cwnd.min(SND_BUF_MAX as u32);
    }

    fn window_avail(&self) -> u16 {
        (RCV_BUF_MAX.saturating_sub(self.recv_q.len)).min(u16::MAX as usize) as u16
    }

    /// Whether the stream still takes writes.
    fn open(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait)
    }

    /// Whether `pump` has data or a FIN it has not sent once yet.
    fn unsent(&self) -> bool {
        (self.inflight() as usize) < self.send_q.len || (self.fin_queued && self.fin_seq.is_none())
    }
}

/// One TCP connection.
pub struct TcpConn {
    stack: Weak<IpStack>,
    key: ConnKey,
    /// Shard key for the timer wheel and worker pool.
    pub(crate) conv: u64,
    inner: Mutex<Inner>,
    /// Signaled on state changes and arriving data.
    readable: Condvar,
    /// Signaled when send-buffer space opens.
    writable: Condvar,
    /// The readiness hook of a conversation served from the worker
    /// pool (`ninep::server::Served`), fired when data, EOF or an error becomes
    /// available, or a full send buffer has room again.
    pub(crate) rx_notify: OnceLock<Box<dyn Fn() + Send + Sync>>,
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
        let conn = self.table.open(lport, dst, dport, |key| {
            TcpConn::fresh(stack, key, TcpState::SynSent, iss, 0)
        })?;
        // A failed timer arm or transmit must not leak the conn in the
        // conns table: tear it down and surface the error to the
        // dialer.
        let syn = {
            let mut inner = conn.inner.lock();
            inner.snd_nxt = iss.wrapping_add(1);
            inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
            conn.rearm(&mut inner)
                .map(|()| conn.header(&mut inner, SYN, iss))
                .map_err(|e| NineError::new(format!("tcp timer: {e}")))
        };
        if let Err(e) = syn.and_then(|syn| conn.transmit(syn, &None)) {
            conn.teardown();
            return Err(e);
        }
        // Wait for the handshake to finish.
        let mut inner = conn.inner.lock();
        let deadline = time::now() + Duration::from_secs(10);
        while inner.state == TcpState::SynSent || inner.state == TcpState::SynRcvd {
            if conn.readable.wait_until(&mut inner, deadline).timed_out() {
                inner.err = Some("connection timed out".to_string());
                inner.state = TcpState::Closed;
                break;
            }
        }
        match &inner.err {
            Some(e) => {
                let e = e.clone();
                drop(inner);
                conn.teardown();
                Err(NineError::new(e))
            }
            None => {
                drop(inner);
                Ok(conn)
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
            conn.handle(&seg);
            return;
        }
        // No connection: maybe a listener?
        if seg.flags & SYN != 0 && seg.flags & ACK == 0 {
            let iss = initial_seq();
            let ack = seg.seq.wrapping_add(1);
            let answered = stack.tcp.table.answer(key, || {
                let conn = TcpConn::fresh(stack, key, TcpState::SynRcvd, iss, ack);
                {
                    let mut inner = conn.inner.lock();
                    inner.snd_wnd = seg.window as u32;
                    inner.snd_nxt = iss.wrapping_add(1);
                    inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
                }
                conn
            });
            if let Some(conn) = answered {
                let (synack, armed) = {
                    let mut inner = conn.inner.lock();
                    (conn.header(&mut inner, SYN | ACK, iss), conn.rearm(&mut inner))
                };
                let _ = conn.transmit(synack, &None);
                if armed.is_err() {
                    // No timer means the handshake can never be
                    // retried; drop the embryonic conn rather than
                    // leak it. The peer will retransmit its SYN.
                    conn.teardown();
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
    fn fresh(
        stack: &Arc<IpStack>,
        key: ConnKey,
        state: TcpState,
        iss: u32,
        rcv_nxt: u32,
    ) -> Arc<TcpConn> {
        let mss = stack.mtu() - TCP_HDR;
        Arc::new(TcpConn {
            stack: Arc::downgrade(stack),
            key,
            conv: key.conv_id(&[TCP_PROTO]),
            inner: Mutex::named(Inner {
                state,
                snd_una: iss,
                snd_nxt: iss,
                snd_wnd: RCV_BUF_MAX as u32,
                send_q: ByteQueue::default(),
                pumping: false,
                fin_queued: false,
                fin_seq: None,
                rcv_nxt,
                rcv_acked: rcv_nxt,
                recv_q: ByteQueue::default(),
                ooo: BTreeMap::new(),
                peer_fin: None,
                fin_taken: false,
                rtt: Rtt::new(RTO_INITIAL, RTO_MIN, RTO_MAX),
                rtt_probe: None,
                rtx_deadline: None,
                ack_due: None,
                retries: 0,
                time_wait_until: None,
                timer: None,
                err: None,
                mss,
                // Classic initial window: a couple of segments.
                cwnd: 2 * mss as u32,
                ssthresh: RCV_BUF_MAX as u32,
                dup_acks: 0,
                trace: None,
            }, "inet.tcp.conn"),
            readable: Condvar::new(),
            writable: Condvar::new(),
            rx_notify: OnceLock::new(),
        })
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
        self.inner.lock().state
    }

    /// The status line for the `status` file.
    pub fn status_string(&self) -> String {
        let inner = self.inner.lock();
        format!(
            "{} srtt {} unacked {} cwnd {} ssthresh {}",
            inner.state.name(),
            inner.rtt.srtt_string(),
            inner.snd_nxt.wrapping_sub(inner.snd_una),
            inner.cwnd,
            inner.ssthresh,
        )
    }

    /// The header of a segment that leaves now, made under the
    /// conversation lock: its ack and window are the receive side as it
    /// stands, and one that carries ACK settles the delayed one.
    fn header(&self, inner: &mut Inner, flags: u16, seq: u32) -> TcpHeader {
        if flags & ACK != 0 {
            inner.ack_due = None;
            inner.rcv_acked = inner.rcv_nxt;
        }
        TcpHeader {
            sport: self.key.lport,
            dport: self.key.rport,
            seq,
            ack: inner.rcv_nxt,
            flags,
            window: inner.window_avail(),
        }
    }

    /// The data segment that starts `off` bytes past `snd_una`, of up
    /// to `max` bytes and one MSS: views of the writers' buffers, for
    /// first transmission and every retransmission alike.
    fn segment(&self, inner: &mut Inner, off: usize, max: usize) -> Option<Outgoing> {
        let payload = inner.send_q.views(off, max.min(inner.mss))?;
        let seq = inner.snd_una.wrapping_add(off as u32);
        Some((self.header(inner, ACK | PSH, seq), Some(payload)))
    }

    fn transmit(&self, hdr: TcpHeader, payload: &Payload) -> crate::Result<()> {
        let stack = self
            .stack
            .upgrade()
            .ok_or_else(|| NineError::new("stack is down"))?;
        let [a, b]: [&[u8]; 2] = match payload {
            Some([a, b]) => [a, b],
            None => [&[], &[]],
        };
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
        let queued = {
            let mut inner = self.inner.lock();
            if let Some(cur) = trace::current() {
                inner.trace = Some(cur);
            }
            while inner.open() && inner.send_q.len >= SND_BUF_MAX {
                self.writable.wait(&mut inner);
            }
            if !inner.open() {
                let e = inner.err.clone().unwrap_or_else(|| "hungup".to_string());
                return Err(NineError::new(e));
            }
            let buf = take(SND_BUF_MAX - inner.send_q.len);
            let n = buf.len();
            inner.send_q.push(buf);
            n
        };
        self.pump();
        Ok(queued)
    }

    /// Whether [`TcpConn::write_bytes`] would go ahead at once: the send
    /// buffer has room, or the conversation is over and it would fail.
    pub fn can_send(&self) -> bool {
        let inner = self.inner.lock();
        !inner.open() || inner.send_q.len < SND_BUF_MAX
    }

    /// Pushes out as many segments as the windows allow. One thread at
    /// a time: a writer and the shard that took an ack would otherwise
    /// each take a segment under the lock and transmit it after, in
    /// either order. A second caller returns at once — what it queued
    /// or opened is in `inner`, which the first looks at again, under
    /// the lock, before it gives `pumping` up.
    fn pump(self: &Arc<Self>) {
        let mut mine = false;
        loop {
            let next = {
                let mut inner = self.inner.lock();
                if inner.pumping != mine {
                    return;
                }
                let next = self.next_segment(&mut inner);
                mine = next.is_some();
                inner.pumping = mine;
                next
            };
            let Some((hdr, payload)) = next else { return };
            let _ = self.transmit(hdr, &payload);
        }
    }

    /// Takes the next unsent segment — data while the windows allow,
    /// then the FIN — and accounts for it as sent.
    fn next_segment(self: &Arc<Self>, inner: &mut Inner) -> Option<Outgoing> {
        if !matches!(
            inner.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return None;
        }
        let in_flight = inner.inflight() as usize;
        let out = if in_flight < inner.send_q.len {
            // Effective window: the receiver's advertisement capped by
            // the congestion window. A closed one is probed a byte at
            // a time, at the pace of the receiver's delayed ack.
            let wnd = inner.snd_wnd.min(inner.cwnd).max(1) as usize;
            if in_flight >= wnd {
                return None;
            }
            let out = self.segment(inner, in_flight, wnd - in_flight)?;
            inner.snd_nxt = inner.snd_nxt.wrapping_add(payload_len(&out.1) as u32);
            if inner.rtt_probe.is_none() {
                inner.rtt_probe = Some((inner.snd_nxt, time::now()));
            }
            out
        } else if inner.fin_queued && inner.fin_seq.is_none() {
            let seq = inner.snd_nxt;
            inner.fin_seq = Some(seq);
            inner.snd_nxt = seq.wrapping_add(1);
            (self.header(inner, FIN | ACK, seq), None)
        } else {
            return None;
        };
        if inner.rtx_deadline.is_none() {
            inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
        }
        let _ = self.rearm(inner);
        Some(out)
    }

    /// Reads up to `max` bytes; blocks until data, EOF (`Ok(empty)`) or
    /// error.
    pub fn read(&self, max: usize) -> crate::Result<Vec<u8>> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(got) = self.poll(&mut inner, max)? {
                drop(inner);
                return Ok(self.taken(got));
            }
            self.readable.wait(&mut inner);
        }
    }

    /// [`TcpConn::read`] for pool-serviced conversations: `None` where
    /// that would wait.
    pub fn try_read(&self, max: usize) -> crate::Result<Option<Vec<u8>>> {
        let got = self.poll(&mut self.inner.lock(), max)?;
        Ok(got.map(|got| self.taken(got)))
    }

    /// What a reader can have without waiting: up to `max` bytes, with
    /// the window update to send once the lock is dropped, or nothing
    /// at the orderly end of the stream; else `None`.
    fn poll(&self, inner: &mut Inner, max: usize) -> crate::Result<Option<Taken>> {
        if inner.recv_q.len > 0 {
            let n = inner.recv_q.len.min(max);
            let two_mss = 2 * inner.mss;
            let was_shut = (inner.window_avail() as usize) < two_mss;
            // The copy out to the reader, the only one the bytes get on
            // this side of the wire.
            let mut out = Vec::with_capacity(n);
            inner.recv_q.consume(n, |run| out.extend_from_slice(run));
            RX_SITE.record(n);
            // A sender stopped by the window hears that it opened.
            let update = (was_shut
                && inner.window_avail() as usize >= two_mss
                && inner.peer_fin.is_none())
            .then(|| {
                let seq = inner.snd_nxt;
                self.header(inner, ACK, seq)
            });
            return Ok(Some((out, update)));
        }
        if inner.peer_fin.is_some() && inner.fin_taken {
            return Ok(Some((Vec::new(), None))); // orderly EOF
        }
        if let Some(e) = &inner.err {
            return Err(NineError::new(e.clone()));
        }
        Ok((inner.state == TcpState::Closed).then(|| (Vec::new(), None)))
    }

    /// What [`TcpConn::poll`] took, its window update sent.
    fn taken(&self, (data, update): Taken) -> Vec<u8> {
        if let Some(hdr) = update {
            let _ = self.transmit(hdr, &None);
        }
        data
    }

    /// Half-closes the connection: no more writes, reads drain.
    pub fn close(self: &Arc<Self>) {
        let transition = {
            let mut inner = self.inner.lock();
            match inner.state {
                TcpState::Established => {
                    inner.state = TcpState::FinWait1;
                    inner.fin_queued = true;
                    true
                }
                TcpState::CloseWait => {
                    inner.state = TcpState::LastAck;
                    inner.fin_queued = true;
                    true
                }
                TcpState::SynSent | TcpState::SynRcvd => {
                    inner.state = TcpState::Closed;
                    false
                }
                _ => false,
            }
        };
        if transition {
            self.pump();
        }
        // A close from SynSent/SynRcvd goes straight to Closed with
        // nothing in flight; reap it (and its timer) immediately.
        if self.inner.lock().state == TcpState::Closed {
            self.teardown();
        }
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Aborts the connection with a RST.
    pub fn abort(&self) {
        let rst = {
            let mut inner = self.inner.lock();
            inner.state = TcpState::Closed;
            inner.err = Some("connection aborted".to_string());
            let seq = inner.snd_nxt;
            self.header(&mut inner, RST | ACK, seq)
        };
        let _ = self.transmit(rst, &None);
        self.teardown();
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Calls the readiness hook, if a service registered one: it has no
    /// parked thread to notify.
    fn rx_ready(&self) {
        if let Some(hook) = self.rx_notify.get() {
            hook();
        }
    }

    fn teardown(&self) {
        let timer = self.inner.lock().timer.take();
        if let Some(id) = timer {
            wheel::cancel(id);
        }
        if let Some(stack) = self.stack.upgrade() {
            stack.tcp.table.retire(&self.key);
        }
    }

    /// Re-aims the wheel timer at the earliest pending deadline — the
    /// delayed ack, and retransmission or TIME-WAIT expiry; see
    /// [`wheel::rearm`]. Must be called whenever one of them changes.
    fn rearm(self: &Arc<Self>, inner: &mut Inner) -> std::io::Result<()> {
        let deadline = match inner.state {
            TcpState::TimeWait => inner.time_wait_until,
            _ => inner.rtx_deadline,
        };
        let want = match (inner.ack_due, deadline) {
            _ if inner.state == TcpState::Closed => None,
            (Some(a), Some(d)) => Some(a.min(d)),
            (a, d) => a.or(d),
        };
        let conn = Arc::clone(self);
        wheel::rearm(&mut inner.timer, self.conv, want, move || conn.timer_fire())
    }

    /// The wheel callback: one timer expiry, run on this
    /// conversation's pool shard. Sends the delayed ack if it is due,
    /// handles TIME-WAIT expiry and the retransmission timeout (blind
    /// go-back-N from `snd_una`), then re-arms for the next deadline.
    fn timer_fire(self: Arc<Self>) {
        let mut ack = None;
        let mut actions: Vec<Outgoing> = Vec::new();
        let mut rexmit_trace: Option<trace::TraceHandle> = None;
        let dead = {
            let mut inner = self.inner.lock();
            inner.timer = None;
            let now = time::now();
            if inner.state != TcpState::Closed && inner.ack_due.is_some_and(|d| now >= d) {
                let seq = inner.snd_nxt;
                ack = Some(self.header(&mut inner, ACK, seq));
            }
            match inner.state {
                TcpState::Closed => {}
                TcpState::TimeWait => {
                    if inner.time_wait_until.is_some_and(|until| now >= until) {
                        inner.state = TcpState::Closed;
                    }
                }
                // A deadline that moved later since this timer was
                // armed is aimed at again below.
                _ if inner.rtx_deadline.is_none_or(|d| now < d) => {}
                _ if inner.retries >= MAX_RETRIES => {
                    inner.err = Some("connection timed out".to_string());
                    inner.state = TcpState::Closed;
                    self.readable.notify_all();
                    self.writable.notify_all();
                }
                _ => {
                    // Timeout: retransmit blindly from snd_una
                    // (go-back-N).
                    inner.retries += 1;
                    inner.rtt.backoff(2, 1);
                    inner.rtx_deadline = Some(now + inner.rtt.rto);
                    inner.rtt_probe = None; // Karn's rule
                    // A timeout collapses the congestion window
                    // (Tahoe).
                    inner.enter_recovery();
                    inner.cwnd = inner.mss as u32;
                    inner.dup_acks = 0;
                    rexmit_trace = inner.trace.clone();
                    let una = inner.snd_una;
                    match inner.state {
                        TcpState::SynSent => actions.push((self.header(&mut inner, SYN, una), None)),
                        TcpState::SynRcvd => {
                            actions.push((self.header(&mut inner, SYN | ACK, una), None))
                        }
                        _ => {
                            let unacked = inner.inflight() as usize;
                            let fin_in_flight = inner.fin_seq.is_some() && unacked > 0;
                            let data_len = (unacked - fin_in_flight as usize).min(inner.send_q.len);
                            let mut off = 0usize;
                            while off < data_len {
                                let Some(seg) = self.segment(&mut inner, off, data_len - off)
                                else {
                                    break;
                                };
                                off += payload_len(&seg.1);
                                actions.push(seg);
                            }
                            if let Some(fin_seq) = inner.fin_seq.filter(|&f| seq_le(una, f)) {
                                actions.push((self.header(&mut inner, FIN | ACK, fin_seq), None));
                            }
                            if actions.is_empty() {
                                // Nothing outstanding after all.
                                inner.rtx_deadline = None;
                                inner.retries = 0;
                            }
                        }
                    }
                }
            }
            let _ = self.rearm(&mut inner);
            inner.state == TcpState::Closed
        };
        if let Some(hdr) = ack {
            let _ = self.transmit(hdr, &None);
        }
        if !actions.is_empty() {
            if let Some(stack) = self.stack.upgrade() {
                let bytes: usize = actions.iter().map(|a| payload_len(&a.1)).sum();
                stack.tcp.stats.retransmit_segments.add(actions.len() as u64);
                stack.tcp.stats.retransmit_bytes.add(bytes as u64);
                let n = actions.len();
                stack.tcp.netlog.events.log(Facility::Tcp, rexmit_trace.as_ref(), || {
                    format!("timeout rexmit {n} segments {bytes} bytes")
                });
            }
            for (hdr, payload) in actions {
                let _ = self.transmit(hdr, &payload);
            }
        }
        if dead {
            self.rx_ready();
            self.teardown();
        }
    }

    fn handle(self: &Arc<Self>, seg: &Segment) {
        let mut ack_now = false;
        let mut notify_read = false;
        let mut notify_write = false;
        // An ack made room in a send buffer that was full: a service
        // that stopped reading for want of it has no thread to wake.
        let mut reopened = false;
        let mut deliver_to_listener = false;
        let mut rexmit = None;
        // The one hold of the conversation lock a segment costs: what
        // leaves in answer is made in it and transmitted after it.
        let (ack, pump, closed) = {
            let mut inner = self.inner.lock();
            if seg.flags & RST != 0 {
                inner.err = Some("connection refused".to_string());
                inner.state = TcpState::Closed;
                drop(inner);
                self.readable.notify_all();
                self.writable.notify_all();
                self.rx_ready();
                self.teardown();
                return;
            }
            inner.snd_wnd = seg.window as u32;
            match inner.state {
                TcpState::SynSent => {
                    if seg.flags & (SYN | ACK) == (SYN | ACK)
                        && seg.ack == inner.snd_nxt
                    {
                        inner.rcv_nxt = seg.seq.wrapping_add(1);
                        inner.snd_una = seg.ack;
                        inner.state = TcpState::Established;
                        inner.rtx_deadline = None;
                        inner.retries = 0;
                        ack_now = true;
                        notify_read = true;
                    }
                }
                TcpState::SynRcvd => {
                    if seg.flags & ACK != 0 && seg.ack == inner.snd_nxt {
                        inner.snd_una = seg.ack;
                        inner.state = TcpState::Established;
                        inner.rtx_deadline = None;
                        inner.retries = 0;
                        deliver_to_listener = true;
                        notify_read = true;
                        // Fall through to process any piggybacked data.
                        self.process_data(&mut inner, seg, &mut ack_now, &mut notify_read);
                    }
                }
                _ => {
                    // ACK processing.
                    if seg.flags & ACK != 0
                        && seg.ack == inner.snd_una
                        && inner.snd_una != inner.snd_nxt
                        && seg.payload.is_empty()
                        && seg.flags & (SYN | FIN) == 0
                    {
                        // A duplicate ack: the peer is missing the segment
                        // at snd_una. Three of them trigger fast
                        // retransmit (Reno).
                        inner.dup_acks += 1;
                        if inner.dup_acks == 3 {
                            inner.enter_recovery();
                            inner.cwnd = inner.ssthresh + 3 * inner.mss as u32;
                            inner.rtt_probe = None;
                            let in_flight = inner.inflight() as usize;
                            rexmit = self
                                .segment(&mut inner, 0, in_flight)
                                .map(|seg| (seg, inner.trace.clone()));
                        }
                    }
                    if seg.flags & ACK != 0 && seq_lt(inner.snd_una, seg.ack)
                        && seq_le(seg.ack, inner.snd_nxt)
                    {
                        let acked = seg.ack.wrapping_sub(inner.snd_una) as usize;
                        inner.dup_acks = 0;
                        inner.grow_cwnd(acked as u32);
                        // Drop acked payload bytes (the FIN octet is not
                        // in the queue).
                        let fin_acked = inner
                            .fin_seq
                            .map(|f| seq_lt(f, seg.ack))
                            .unwrap_or(false);
                        let data_acked = if fin_acked { acked - 1 } else { acked };
                        let gone = data_acked.min(inner.send_q.len);
                        let full = inner.send_q.len >= SND_BUF_MAX;
                        inner.send_q.consume(gone, |_| ());
                        reopened = full && inner.send_q.len < SND_BUF_MAX;
                        inner.snd_una = seg.ack;
                        inner.retries = 0;
                        if let Some((probe_seq, at)) = inner.rtt_probe {
                            if seq_le(probe_seq, seg.ack) {
                                let sample = time::now().saturating_duration_since(at);
                                inner.rtt.sample(sample);
                                inner.rtt_probe = None;
                            }
                        }
                        if inner.snd_una == inner.snd_nxt {
                            inner.rtx_deadline = None;
                        } else {
                            inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
                        }
                        notify_write = true;
                        // FIN-related transitions on our side.
                        if fin_acked {
                            match inner.state {
                                TcpState::FinWait1 => inner.state = TcpState::FinWait2,
                                TcpState::Closing => {
                                    inner.state = TcpState::TimeWait;
                                    inner.time_wait_until =
                                        Some(time::now() + TIME_WAIT);
                                }
                                TcpState::LastAck => {
                                    inner.state = TcpState::Closed;
                                }
                                _ => {}
                            }
                            notify_read = true;
                        }
                    }
                    // The peer's SYN again: the ack that finished its
                    // handshake was lost, and nothing else will carry one.
                    ack_now |= seg.flags & SYN != 0;
                    self.process_data(&mut inner, seg, &mut ack_now, &mut notify_read);
                }
            }
            let ack = ack_now.then(|| {
                let seq = inner.snd_nxt;
                self.header(&mut inner, ACK, seq)
            });
            // Deadlines may have moved (acks clear or reset the rtx
            // deadline, data sets the delayed ack's, FIN transitions
            // start TIME-WAIT): re-aim the wheel timer.
            let _ = self.rearm(&mut inner);
            (ack, inner.unsent(), inner.state == TcpState::Closed)
        };
        if let (Some(((hdr, payload), tr)), Some(stack)) = (rexmit, self.stack.upgrade()) {
            let (seq, len) = (hdr.seq, payload_len(&payload));
            stack.tcp.stats.fast_retransmits.inc();
            stack.tcp.stats.retransmit_segments.inc();
            stack.tcp.stats.retransmit_bytes.add(len as u64);
            stack.tcp.netlog.events.log(Facility::Tcp, tr.as_ref(), || {
                format!("fast rexmit seq {seq} len {len}")
            });
            let _ = self.transmit(hdr, &payload);
        }
        if let Some(hdr) = ack {
            let _ = self.transmit(hdr, &None);
        }
        if deliver_to_listener {
            if let Some(stack) = self.stack.upgrade() {
                stack.tcp.table.established(&self.key);
            }
        }
        if notify_read {
            self.readable.notify_all();
        }
        if notify_write {
            self.writable.notify_all();
        }
        if notify_read || reopened {
            self.rx_ready();
        }
        // An ack made room in the windows, or the peer opened its own.
        if pump {
            self.pump();
        }
        // Remove fully closed connections.
        if closed {
            self.teardown();
        }
    }

    fn process_data(
        &self,
        inner: &mut Inner,
        seg: &Segment,
        ack_now: &mut bool,
        notify_read: &mut bool,
    ) {
        if !seg.payload.is_empty() {
            if seg.seq == inner.rcv_nxt {
                inner.rcv_nxt = inner.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                inner.recv_q.push(seg.payload.clone());
                // Drain any out-of-order segments that now fit.
                let mut filled_a_gap = false;
                while let Some((&s, _)) = inner.ooo.iter().next() {
                    if s != inner.rcv_nxt && !seq_lt(s, inner.rcv_nxt) {
                        break;
                    }
                    let Some(data) = inner.ooo.remove(&s) else {
                        break; // key observed under this same lock
                    };
                    if s == inner.rcv_nxt {
                        inner.rcv_nxt = inner.rcv_nxt.wrapping_add(data.len() as u32);
                        inner.recv_q.push(data);
                        filled_a_gap = true;
                    }
                }
                // The ack waits for a segment of ours to carry it, for
                // two segments' worth to tell of, or for the timer; a
                // sender repairing a loss hears at once.
                let unacked = inner.rcv_nxt.wrapping_sub(inner.rcv_acked) as usize;
                if filled_a_gap || unacked >= 2 * inner.mss {
                    *ack_now = true;
                } else if inner.ack_due.is_none() {
                    inner.ack_due = Some(time::now() + ACK_DELAY);
                }
                *notify_read = true;
            } else {
                // An old duplicate is acknowledged again; a segment
                // beyond `rcv_nxt` is held (bounded) and the ack acts
                // as a duplicate ack, cueing the sender's fast
                // retransmit.
                *ack_now = true;
                if seq_lt(inner.rcv_nxt, seg.seq) {
                    if let Some(stack) = self.stack.upgrade() {
                        stack.tcp.stats.ooo.inc();
                    }
                    if inner.ooo.len() < 256 {
                        inner.ooo.insert(seg.seq, seg.payload.clone());
                    }
                }
            }
        }
        if seg.flags & FIN != 0 {
            *ack_now = true;
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            if fin_seq == inner.rcv_nxt {
                inner.peer_fin = Some(fin_seq);
                inner.fin_taken = true;
                inner.rcv_nxt = inner.rcv_nxt.wrapping_add(1);
                match inner.state {
                    TcpState::Established => inner.state = TcpState::CloseWait,
                    TcpState::FinWait1 => inner.state = TcpState::Closing,
                    TcpState::FinWait2 => {
                        inner.state = TcpState::TimeWait;
                        inner.time_wait_until = Some(time::now() + TIME_WAIT);
                    }
                    _ => {}
                }
                *notify_read = true;
            }
        }
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
            let inner = conn.inner.lock();
            (inner.rcv_nxt.wrapping_sub(1), inner.snd_nxt)
        };
        let synack = TcpHeader { sport: 564, dport: conn.key.lport, seq, ack, flags: SYN | ACK, window: 8192 };
        let sent = a.tcp_module().stats.tx_segments.get();
        conn.handle(&decode_segment(encoded(&synack, &[]).into()).unwrap());
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
    fn read_exactly(conn: &TcpConn, total: usize) {
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

    /// A reader that is not reading closes the window. The writer may
    /// probe it, at the pace of the delayed ack and not of the wire,
    /// and hears from `read` when it opens — not from its own
    /// retransmission timer.
    #[test]
    fn a_closed_window_is_probed_slowly_and_reopens_at_once() {
        const TOTAL: usize = 1 << 20;
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 7021).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            let first_read = Instant::now();
            read_exactly(&conn, TOTAL);
            first_read.elapsed()
        });
        let conn = a.tcp_module().connect(&a, b.addr(), 7021).unwrap();
        conn.write(&vec![7u8; TOTAL]).unwrap();
        let draining = server.join().unwrap();
        let sent = a.tcp_module().stats.tx_segments.get() as usize;
        let needed = TOTAL.div_ceil(conn.inner.lock().mss);
        assert!(sent < 2 * needed, "{sent} segments sent for {needed} of data");
        assert!(draining < Duration::from_millis(200), "took {draining:?} once the reader read");
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
        let initial = conn.inner.lock().cwnd;
        conn.write(&vec![0u8; 100_000]).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let after = conn.inner.lock().cwnd;
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
            let inner = conn.inner.lock();
            (inner.snd_una, inner.rcv_nxt)
        };
        // Forge three duplicate acks for the in-flight data.
        for _ in 0..3 {
            conn.handle(&Segment {
                sport: 7011,
                dport: conn.key.lport,
                seq: rcv,
                ack: una,
                flags: ACK,
                window: 65000,
                payload: Bytes::default(),
            });
        }
        assert_eq!(
            a.tcp_module().stats.fast_retransmits.get(),
            1
        );
        // The congestion window collapsed to ssthresh + 3 MSS.
        let inner = conn.inner.lock();
        assert!(inner.cwnd <= inner.ssthresh + 3 * inner.mss as u32 + 1);
        drop(inner);
        seg.medium().set_up(true);
        conn.close();
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let (a, b) = two_hosts();
        let listener = b.tcp_module().listen(&b, 7012).unwrap();
        let conn = a.tcp_module().connect(&a, b.addr(), 7012).unwrap();
        let _srv = listener.accept().unwrap();
        // Silence the peer entirely (its receiver processes stop), then
        // write: the timer must fire and collapse the window.
        b.shutdown();
        std::thread::sleep(Duration::from_millis(100));
        conn.write(b"into the void").unwrap();
        std::thread::sleep(Duration::from_millis(600));
        let inner = conn.inner.lock();
        assert_eq!(inner.cwnd, inner.mss as u32, "timeout resets to 1 MSS");
        assert!(a.tcp_module().stats.retransmit_segments.get() > 0);
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
