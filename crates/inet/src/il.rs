//! IL: the Internet Link protocol (§3 of the paper).
//!
//! "IL is a lightweight protocol designed to be encapsulated by IP. It is
//! a connection-based protocol providing reliable transmission of
//! sequenced messages between machines."
//!
//! Faithful design points:
//!
//! * **Message-oriented**: one `send` is one message; delimiters are
//!   preserved end to end, so 9P RPCs need no marshaling.
//! * **No flow control**: "a small outstanding message window prevents
//!   too many incoming messages from being buffered; messages outside
//!   the window are discarded and must be retransmitted."
//! * **Two-way handshake** generating an initial sequence number at each
//!   end; data messages increment them so the receiver can resequence.
//! * **No blind retransmission**: "If a message is lost and a timeout
//!   occurs, a query message is sent"; the peer answers with its state
//!   and only genuinely missing messages are retransmitted — "this
//!   allows the protocol to behave well in congested networks, where
//!   blind retransmission would cause further congestion."
//! * **Adaptive timeouts** from a round-trip timer, so acknowledge and
//!   retransmission times track the network speed.

use crate::addr::IpAddr;
use crate::checksum::{internet_checksum, internet_checksum_gather};
use crate::conv::{self, initial_seq, seq_le, seq_lt, ConnKey, ConvTable, Rtt, ACK_DELAY};
use crate::ip::IpStack;
use plan9_netlog::trace;
use plan9_netlog::{Counter, Facility, Histogram, NetLog};
use plan9_support::buf::Bytes;
use plan9_support::copysite::Site;
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::{time, wheel};
use plan9_ninep::NineError;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

mod nine;
pub use nine::{serve_on_shard, IlIo};

/// The IP protocol number for IL.
pub const IL_PROTO: u8 = 40;

/// Bytes of IL header: sum(2) len(2) type(1) spec(1) src(2) dst(2)
/// id(4) ack(4).
pub const IL_HDR: usize = 18;

/// The outstanding-message window.
pub const IL_WINDOW: u32 = 20;

/// Largest single IL message (IP reassembly bounds the datagram).
pub const IL_MAX_MSG: usize = 60_000;

const RTO_INITIAL: Duration = Duration::from_millis(50);
const RTO_MIN: Duration = Duration::from_millis(20);
const RTO_MAX: Duration = Duration::from_millis(1000);
/// Send an immediate ack after this many unacknowledged data messages,
/// so bulk transfers are not throttled by the delayed-ack timer.
const ACK_BATCH: u32 = 8;
/// How many missing messages one State reply repairs; deeper holes take
/// another query round (keeps repair traffic proportional to real loss).
const REPAIR_BURST: usize = 3;
const MAX_RETRIES: u32 = 10;

/// IL message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum IlType {
    /// Connection setup; carries the initial sequence number.
    Sync = 0,
    /// A sequenced data message.
    Data = 1,
    /// A standalone acknowledgment.
    Ack = 3,
    /// "A small control message containing the current sequence numbers
    /// as seen by the sender", sent on timeout.
    Query = 4,
    /// The answer to a query.
    State = 5,
    /// Connection teardown.
    Close = 6,
}

impl IlType {
    fn from_u8(b: u8) -> Option<IlType> {
        Some(match b {
            0 => IlType::Sync,
            1 => IlType::Data,
            3 => IlType::Ack,
            4 => IlType::Query,
            5 => IlType::State,
            6 => IlType::Close,
            _ => return None,
        })
    }
}

/// A parsed IL packet, payload and all, in memory of its own.
#[derive(Debug, Clone)]
pub struct IlPacket {
    /// Message type.
    pub typ: IlType,
    /// Source port.
    pub src: u16,
    /// Destination port.
    pub dst: u16,
    /// Sequence id of this message.
    pub id: u32,
    /// Latest in-sequence id seen from the peer.
    pub ack: u32,
    /// Payload (only for `Data`).
    pub payload: Vec<u8>,
}

/// An IL header: a packet but for its payload, which the conversations
/// leave where it lies — in the sender's retained message on the way
/// out, in the received frame on the way in.
#[derive(Debug, Clone, Copy)]
struct IlHeader {
    typ: IlType,
    src: u16,
    dst: u16,
    id: u32,
    ack: u32,
}

impl IlHeader {
    /// The wire form to go in front of `payload`, with the checksum of
    /// both. `payload` is at most [`IL_MAX_MSG`] bytes.
    fn encode(&self, payload: &[u8]) -> [u8; IL_HDR] {
        let mut b = [0u8; IL_HDR]; // sum, then spec at [5], stay zero
        b[2..4].copy_from_slice(&((IL_HDR + payload.len()) as u16).to_be_bytes());
        b[4] = self.typ as u8;
        b[6..8].copy_from_slice(&self.src.to_be_bytes());
        b[8..10].copy_from_slice(&self.dst.to_be_bytes());
        b[10..14].copy_from_slice(&self.id.to_be_bytes());
        b[14..18].copy_from_slice(&self.ack.to_be_bytes());
        let sum = internet_checksum_gather(&[&b, payload]);
        b[0..2].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// Parses and checksum-verifies the packet at the front of `b`:
    /// its header, and its length, where its payload ends.
    fn decode(b: &[u8]) -> Option<(IlHeader, usize)> {
        let hdr: &[u8; IL_HDR] = b.first_chunk()?;
        let len = u16::from_be_bytes([hdr[2], hdr[3]]) as usize;
        if len < IL_HDR || internet_checksum(b.get(..len)?) != 0 {
            return None;
        }
        let hdr = IlHeader {
            typ: IlType::from_u8(hdr[4])?,
            src: u16::from_be_bytes([hdr[6], hdr[7]]),
            dst: u16::from_be_bytes([hdr[8], hdr[9]]),
            id: u32::from_be_bytes([hdr[10], hdr[11], hdr[12], hdr[13]]),
            ack: u32::from_be_bytes([hdr[14], hdr[15], hdr[16], hdr[17]]),
        };
        Some((hdr, len))
    }
}

static ENCODE_SITE: Site = Site::new("il.encode");
static DECODE_SITE: Site = Site::new("il.decode");
static SEGMENT_SITE: Site = Site::new("il.segment");
static RX_SITE: Site = Site::new("il.rxcopy");

/// Serializes an IL packet with checksum: the owning form of the
/// header the conversations send beside their payload.
pub fn encode_il(p: &IlPacket) -> Vec<u8> {
    let hdr = IlHeader { typ: p.typ, src: p.src, dst: p.dst, id: p.id, ack: p.ack };
    ENCODE_SITE.record(IL_HDR + p.payload.len());
    [&hdr.encode(&p.payload)[..], &p.payload].concat()
}

/// Parses and checksum-verifies an IL packet, copying its payload out.
pub fn decode_il(b: &[u8]) -> Option<IlPacket> {
    let (IlHeader { typ, src, dst, id, ack }, len) = IlHeader::decode(b)?;
    DECODE_SITE.record(len - IL_HDR);
    Some(IlPacket { typ, src, dst, id, ack, payload: b[IL_HDR..len].to_vec() })
}

/// Connection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlState {
    /// Actively syncing (we sent the first Sync).
    Syncer,
    /// Passively syncing (we answered a Sync).
    Syncee,
    /// Messages may flow.
    Established,
    /// Close exchanged or in progress.
    Closing,
    /// Gone.
    Closed,
}

impl IlState {
    /// The name shown in the `status` file.
    pub fn name(&self) -> &'static str {
        match self {
            IlState::Syncer => "Syncer",
            IlState::Syncee => "Syncee",
            IlState::Established => "Established",
            IlState::Closing => "Closing",
            IlState::Closed => "Closed",
        }
    }
}

/// Aggregate IL counters, compared against TCP's in the §3 experiment.
/// All live in the stack's netlog registry under `il.*` names, which is
/// what `/net/il/stats` renders.
pub struct IlStats {
    /// Data messages sent (first transmissions).
    pub tx_msgs: Counter,
    /// Data messages received in sequence.
    pub rx_msgs: Counter,
    /// Query messages sent on timeout.
    pub queries: Counter,
    /// Acknowledgment messages sent.
    pub acks: Counter,
    /// Data messages retransmitted after a State reply showed them lost.
    pub retransmit_msgs: Counter,
    /// Payload bytes retransmitted.
    pub retransmit_bytes: Counter,
    /// Round-trip samples feeding the adaptive timeout (§3).
    pub rtt: Histogram,
}

impl IlStats {
    fn new(netlog: &NetLog) -> IlStats {
        let reg = &netlog.registry;
        IlStats {
            tx_msgs: reg.counter("il.tx"),
            rx_msgs: reg.counter("il.rx"),
            queries: reg.counter("il.queries"),
            acks: reg.counter("il.acks"),
            retransmit_msgs: reg.counter("il.rexmit"),
            retransmit_bytes: reg.counter("il.rexmitbytes"),
            rtt: reg.histogram("il.rtt"),
        }
    }
}

/// The per-stack IL state.
pub struct IlModule {
    table: Arc<ConvTable<IlConn>>,
    /// Aggregate counters.
    pub stats: IlStats,
    /// The stack's instrumentation block, for query/repair events.
    netlog: Arc<NetLog>,
}

/// A passive IL listener.
pub type IlListener = conv::Listener<IlConn>;

struct Sent {
    /// The message: the one copy of it this end holds, from which it
    /// is first sent and, if the peer asks, sent again.
    payload: Bytes,
    at: Instant,
    /// Set once the message has been retransmitted (Karn's rule: no RTT
    /// sample from it).
    rexmit: bool,
    /// The sender's nettrace root, captured at `send`: the ack (on the
    /// input thread), a repair (input thread) and a query (timer
    /// thread) all attribute back to the RPC that sent the message.
    trace: Option<trace::TraceHandle>,
}

struct Inner {
    state: IlState,
    /// Id of the last message we sent.
    snd_id: u32,
    /// Unacked messages, kept until the peer's ack covers them.
    unacked: BTreeMap<u32, Sent>,
    /// Last in-sequence id received from the peer.
    rcv_id: u32,
    /// Out-of-window... within-window out-of-order messages.
    ooo: BTreeMap<u32, Bytes>,
    /// In-sequence messages awaiting the reader: views of the frames
    /// (or reassembled datagrams) they arrived in.
    rcv_q: VecDeque<Bytes>,
    peer_closed: bool,
    ack_due: Option<Instant>,
    /// Data messages received since our last ack left.
    rx_since_ack: u32,
    /// When we last retransmitted anything (Karn window).
    last_rexmit: Option<Instant>,
    rtx_deadline: Option<Instant>,
    retries: u32,
    rtt: Rtt,
    err: Option<String>,
    /// The armed timer-wheel entry covering the earliest of `ack_due`
    /// and `rtx_deadline`, if any.
    timer: Option<wheel::TimerId>,
}

/// One IL connection.
pub struct IlConn {
    stack: Weak<IpStack>,
    key: ConnKey,
    /// Conversation id: the shard key for timer fires and readiness
    /// service, so all of this conversation's work serializes.
    conv: u64,
    inner: Mutex<Inner>,
    readable: Condvar,
    window_open: Condvar,
    /// Readable-readiness hook for pool-serviced conversations.
    rx_notify: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

/// What [`IlConn::try_recv`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TryRecv {
    /// A complete message.
    Msg(Vec<u8>),
    /// Nothing queued yet; the connection is still live.
    Empty,
    /// Orderly end of the conversation.
    Eof,
}

impl IlModule {
    pub(crate) fn new(netlog: &Arc<NetLog>) -> IlModule {
        IlModule {
            table: ConvTable::new(),
            stats: IlStats::new(netlog),
            netlog: Arc::clone(netlog),
        }
    }

    /// Actively opens a connection; blocks until established or failed.
    pub fn connect(&self, stack: &Arc<IpStack>, dst: IpAddr, dport: u16) -> crate::Result<Arc<IlConn>> {
        self.connect_from(stack, 0, dst, dport)
    }

    /// Actively opens a connection from a specific local port.
    pub fn connect_from(
        &self,
        stack: &Arc<IpStack>,
        lport: u16,
        dst: IpAddr,
        dport: u16,
    ) -> crate::Result<Arc<IlConn>> {
        let iss = initial_seq();
        let conn = self.table.open(lport, dst, dport, |key| {
            IlConn::fresh(stack, key, IlState::Syncer, iss)
        })?;
        self.netlog.events.log(Facility::Il, || {
            format!("sync id {iss} to {dst}!{dport}")
        });
        // Any setup failure — the Sync transmit or arming the shared
        // timer (whose wheel/pool threads spawn lazily and can fail
        // under thread exhaustion) — must undo the conns entry and
        // release the port, not leak the table slot or panic.
        let setup = conn.transmit(IlType::Sync, iss, 0, &[]).and_then(|()| {
            let mut inner = conn.inner.lock();
            inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
            conn.rearm(&mut inner)
                .map_err(|e| NineError::new(format!("il timer: {e}")))
        });
        if let Err(e) = setup {
            conn.teardown();
            return Err(e);
        }
        let mut inner = conn.inner.lock();
        let deadline = time::now() + Duration::from_secs(10);
        while inner.state == IlState::Syncer {
            if conn.readable.wait_until(&mut inner, deadline).timed_out() {
                inner.err = Some("connection timed out".to_string());
                inner.state = IlState::Closed;
                break;
            }
        }
        let verdict = match (&inner.err, inner.state) {
            (Some(e), _) => Err(e.clone()),
            (None, IlState::Established) => Ok(()),
            (None, _) => Err("connection refused".to_string()),
        };
        drop(inner);
        match verdict {
            Ok(()) => Ok(conn),
            Err(e) => {
                conn.teardown();
                Err(NineError::new(e))
            }
        }
    }

    /// Live conversations in the conns table (diagnostics and tests).
    pub fn conn_count(&self) -> usize {
        self.table.len()
    }

    /// Passively opens a listening port (17008 is the 9fs convention).
    pub fn listen(&self, _stack: &Arc<IpStack>, port: u16) -> crate::Result<IlListener> {
        self.table.listen(port)
    }

    pub(crate) fn input(stack: &Arc<IpStack>, src: IpAddr, data: Bytes) {
        let Some((pkt, len)) = IlHeader::decode(&data) else {
            return;
        };
        let key = ConnKey {
            lport: pkt.dst,
            raddr: src,
            rport: pkt.src,
        };
        if let Some(conn) = stack.il.table.lookup(&key) {
            conn.handle(&pkt, data.slice(IL_HDR..len));
            return;
        }
        if pkt.typ == IlType::Sync {
            let iss = initial_seq();
            let answered = stack.il.table.answer(key, || {
                let conn = IlConn::fresh(stack, key, IlState::Syncee, iss);
                {
                    let mut inner = conn.inner.lock();
                    inner.rcv_id = pkt.id; // Sync consumes one id
                    inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
                }
                conn
            });
            if let Some(conn) = answered {
                stack.il.netlog.events.log(Facility::Il, || {
                    format!("sync id {iss} from {src} port {}", pkt.src)
                });
                let _ = conn.transmit(IlType::Sync, iss, pkt.id, &[]);
                let armed = {
                    let mut inner = conn.inner.lock();
                    conn.rearm(&mut inner)
                };
                if armed.is_err() {
                    // No timer means a wedged half-open conversation:
                    // drop it (freeing the table slot) and let the
                    // peer's re-Sync try again.
                    conn.teardown();
                }
                return;
            }
        }
        // No home for this packet: a Close is polite, silence is fine for
        // anything else.
        if pkt.typ != IlType::Close {
            let reply = IlHeader {
                typ: IlType::Close,
                src: pkt.dst,
                dst: pkt.src,
                id: 0,
                ack: pkt.id,
            };
            let _ = stack.send(src, IL_PROTO, &[&reply.encode(&[])]);
        }
    }

    /// Closes the listener on `port` out from under its owner (a
    /// gateway being killed): new Syncs get a Close, and a blocked
    /// `accept()` — with the protocol-device listen open parked inside
    /// it — errors with "listener closed". Returns false if no listener
    /// was on `port`.
    pub fn unlisten(&self, port: u16) -> bool {
        self.table.unlisten(port)
    }

    /// Starts a close on every live conversation. The close handshake
    /// (or, against a dead peer, the retransmit death timer) then
    /// drives each one out of the conns table; under vtime the whole
    /// drain happens in virtual milliseconds. Returns how many closes
    /// were initiated.
    pub fn hangup_all(&self) -> usize {
        let conns = self.table.conns();
        let n = conns.len();
        for c in &conns {
            c.close();
        }
        n
    }
}

impl std::fmt::Debug for IlConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IlConn({} -> {})", self.local_string(), self.remote_string())
    }
}

impl IlConn {
    fn fresh(stack: &Arc<IpStack>, key: ConnKey, state: IlState, iss: u32) -> Arc<IlConn> {
        Arc::new(IlConn {
            stack: Arc::downgrade(stack),
            key,
            conv: key.conv_id(&[]),
            inner: Mutex::named(Inner {
                state,
                snd_id: iss,
                unacked: BTreeMap::new(),
                rcv_id: 0,
                ooo: BTreeMap::new(),
                rcv_q: VecDeque::new(),
                peer_closed: false,
                ack_due: None,
                rx_since_ack: 0,
                last_rexmit: None,
                rtx_deadline: None,
                retries: 0,
                rtt: Rtt::new(RTO_INITIAL, RTO_MIN, RTO_MAX),
                err: None,
                timer: None,
            }, "inet.il.conn"),
            readable: Condvar::new(),
            window_open: Condvar::new(),
            rx_notify: Mutex::named(None, "inet.il.rxnotify"),
        })
    }

    /// The `local` file string.
    pub fn local_string(&self) -> String {
        self.key.local_string(&self.stack)
    }

    /// The `remote` file string.
    pub fn remote_string(&self) -> String {
        format!("{} {}", self.key.raddr, self.key.rport)
    }

    /// The connection state.
    pub fn state(&self) -> IlState {
        self.inner.lock().state
    }

    /// The `status` file line.
    pub fn status_string(&self) -> String {
        let inner = self.inner.lock();
        format!(
            "{} rtt {} unacked {} window {}",
            inner.state.name(),
            inner.rtt.srtt_string(),
            inner.unacked.len(),
            IL_WINDOW,
        )
    }

    fn transmit(&self, typ: IlType, id: u32, ack: u32, payload: &[u8]) -> crate::Result<()> {
        let stack = self
            .stack
            .upgrade()
            .ok_or_else(|| NineError::new("stack is down"))?;
        let hdr = IlHeader {
            typ,
            src: self.key.lport,
            dst: self.key.rport,
            id,
            ack,
        };
        stack.send(self.key.raddr, IL_PROTO, &[&hdr.encode(payload), payload])
    }

    /// Sends one message, blocking while the outstanding window is full.
    pub fn send(self: &Arc<Self>, msg: &[u8]) -> crate::Result<()> {
        if msg.len() > IL_MAX_MSG {
            return Err(NineError::new("message too large for il"));
        }
        // The copy in from the writer: kept until acknowledged, and the
        // source of every transmission till then.
        SEGMENT_SITE.record(msg.len());
        let msg = Bytes::from(msg.to_vec());
        let (id, ack) = {
            let mut inner = self.inner.lock();
            loop {
                match inner.state {
                    IlState::Established => {}
                    _ => {
                        return Err(NineError::new(
                            inner.err.clone().unwrap_or_else(|| "hungup".to_string()),
                        ))
                    }
                }
                if (inner.unacked.len() as u32) < IL_WINDOW {
                    break;
                }
                self.window_open.wait(&mut inner);
            }
            inner.snd_id = inner.snd_id.wrapping_add(1);
            let id = inner.snd_id;
            inner.unacked.insert(
                id,
                Sent {
                    payload: msg.clone(),
                    at: time::now(),
                    rexmit: false,
                    trace: trace::current(),
                },
            );
            if inner.rtx_deadline.is_none() {
                inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
            }
            inner.ack_due = None; // the data message carries our ack
            inner.rx_since_ack = 0;
            self.rearm(&mut inner)
                .map_err(|e| NineError::new(format!("il timer: {e}")))?;
            (id, inner.rcv_id)
        };
        if let Some(stack) = self.stack.upgrade() {
            stack.il.stats.tx_msgs.inc();
        }
        self.transmit(IlType::Data, id, ack, &msg)
    }

    /// Whether [`IlConn::send`] would go ahead at once: the window has
    /// room, or the conversation is over and it would fail.
    pub fn can_send(&self) -> bool {
        let inner = self.inner.lock();
        inner.state != IlState::Established || (inner.unacked.len() as u32) < IL_WINDOW
    }

    /// Blocks for the next message; `None` is orderly EOF.
    pub fn recv(&self) -> crate::Result<Option<Vec<u8>>> {
        self.recv_until(None)
    }

    /// Waits for a message until the timeout elapses; `Err("timed out")`.
    pub fn recv_timeout(&self, d: Duration) -> crate::Result<Option<Vec<u8>>> {
        self.recv_until(Some(time::now() + d))
    }

    /// What a reader can have without waiting: a message, or `None` at
    /// the orderly end of the conversation; else nothing yet.
    fn poll(inner: &mut Inner) -> crate::Result<Option<Option<Bytes>>> {
        if let Some(msg) = inner.rcv_q.pop_front() {
            return Ok(Some(Some(msg)));
        }
        if inner.peer_closed || inner.state == IlState::Closed {
            return Ok(Some(None));
        }
        inner.err.as_ref().map_or(Ok(None), |e| Err(NineError::new(e.clone())))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> crate::Result<Option<Vec<u8>>> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(got) = Self::poll(&mut inner)? {
                drop(inner);
                return Ok(got.map(|msg| copy_out(&msg)));
            }
            match deadline {
                None => self.readable.wait(&mut inner),
                Some(d) if self.readable.wait_until(&mut inner, d).timed_out() => {
                    return Err(NineError::new("timed out"));
                }
                Some(_) => {}
            }
        }
    }

    /// Closes the connection.
    pub fn close(self: &Arc<Self>) {
        let (id, ack, send_close) = {
            let mut inner = self.inner.lock();
            match inner.state {
                IlState::Established | IlState::Syncee | IlState::Syncer => {
                    inner.state = IlState::Closing;
                    inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
                    let _ = self.rearm(&mut inner);
                    (inner.snd_id, inner.rcv_id, true)
                }
                _ => (0, 0, false),
            }
        };
        if send_close {
            let _ = self.transmit(IlType::Close, id, ack, &[]);
        }
        self.readable.notify_all();
        self.window_open.notify_all();
    }

    fn teardown(&self) {
        if let Some(id) = self.inner.lock().timer.take() {
            wheel::cancel(id);
        }
        if let Some(stack) = self.stack.upgrade() {
            stack.il.table.retire(&self.key);
        }
    }

    /// Wakes blocked readers *and* fires the registered readiness
    /// hook: a pool-serviced conversation has no parked thread to
    /// notify, only a closure to call back.
    fn rx_wake(&self) {
        self.readable.notify_all();
        let hook = self.rx_notify.lock().clone();
        if let Some(h) = hook {
            h();
        }
    }

    /// Registers a readable-readiness hook, called whenever a message,
    /// EOF, or error becomes available, or a full window reopens. With
    /// [`IlConn::try_recv`] this lets a server drain thousands of
    /// conversations from the worker pool instead of parking a thread
    /// per conversation in [`IlConn::recv`], and with
    /// [`IlConn::can_send`] never park one in [`IlConn::send`] either.
    /// The hook must be cheap and non-blocking (the
    /// usual move is `pool::submit` of a drain job).
    pub fn set_rx_notify(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.rx_notify.lock() = Some(Arc::new(f));
    }

    /// The conversation id used to shard this connection's service
    /// work on the worker pool.
    pub fn conv_id(&self) -> u64 {
        self.conv
    }

    /// Non-blocking receive, for pool-serviced conversations.
    pub fn try_recv(&self) -> crate::Result<TryRecv> {
        let got = Self::poll(&mut self.inner.lock())?;
        Ok(match got {
            Some(Some(msg)) => TryRecv::Msg(copy_out(&msg)),
            Some(None) => TryRecv::Eof,
            None => TryRecv::Empty,
        })
    }

    /// Re-aims the conversation's wheel timer at the earliest of the
    /// delayed-ack and retransmit deadlines; see [`conv::rearm`].
    fn rearm(self: &Arc<Self>, inner: &mut Inner) -> std::io::Result<()> {
        let want = if inner.state == IlState::Closed {
            None
        } else {
            match (inner.ack_due, inner.rtx_deadline) {
                (Some(a), Some(r)) => Some(a.min(r)),
                (a, r) => a.or(r),
            }
        };
        let conn = Arc::clone(self);
        conv::rearm(&mut inner.timer, self.conv, want, move || conn.timer_fire())
    }

    /// One timer expiry, dispatched from the wheel onto this
    /// conversation's pool shard.
    fn timer_fire(self: Arc<Self>) {
        enum Action {
            None,
            SendAck(u32, u32),
            SendQuery(u32, u32, Option<trace::TraceHandle>),
            Resync(u32, u32, bool),
            ReClose(u32, u32),
            Die,
        }
        let action = {
            let mut inner = self.inner.lock();
            inner.timer = None;
            if inner.state == IlState::Closed {
                Action::Die
            } else if inner
                .ack_due
                .map(|t| time::now() >= t)
                .unwrap_or(false)
            {
                inner.ack_due = None;
                Action::SendAck(inner.snd_id, inner.rcv_id)
            } else if inner
                .rtx_deadline
                .map(|t| time::now() >= t)
                .unwrap_or(false)
            {
                inner.retries += 1;
                if inner.retries > MAX_RETRIES {
                    inner.err = Some("connection timed out".to_string());
                    inner.state = IlState::Closed;
                    self.rx_wake();
                    self.window_open.notify_all();
                    Action::Die
                } else {
                    inner.rtt.backoff(3, 2);
                    inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
                    match inner.state {
                        IlState::Syncer => Action::Resync(inner.snd_id, 0, true),
                        IlState::Syncee => {
                            Action::Resync(inner.snd_id, inner.rcv_id, false)
                        }
                        IlState::Closing => Action::ReClose(inner.snd_id, inner.rcv_id),
                        _ => {
                            if inner.unacked.is_empty() {
                                inner.rtx_deadline = None;
                                inner.retries = 0;
                                Action::None
                            } else {
                                // The IL way: ask, don't blast. The
                                // query is about the oldest unacked
                                // message; its trace owns the event.
                                let tr = inner
                                    .unacked
                                    .values()
                                    .next()
                                    .and_then(|s| s.trace.clone());
                                Action::SendQuery(inner.snd_id, inner.rcv_id, tr)
                            }
                        }
                    }
                }
            } else {
                Action::None
            }
        };
        match action {
            Action::Die => {
                self.teardown();
                return;
            }
            Action::None => {}
            Action::SendAck(id, ack) => {
                if let Some(stack) = self.stack.upgrade() {
                    stack.il.stats.acks.inc();
                }
                let _ = self.transmit(IlType::Ack, id, ack, &[]);
            }
            Action::SendQuery(id, ack, tr) => {
                if let Some(stack) = self.stack.upgrade() {
                    stack.il.stats.queries.inc();
                    stack.il.netlog.events.log(Facility::Il, || {
                        format!("query id {id} ack {ack}")
                    });
                }
                if let Some(h) = tr {
                    h.event(Facility::Il, || format!("query id {id} ack {ack}"));
                }
                let _ = self.transmit(IlType::Query, id, ack, &[]);
            }
            Action::Resync(id, ack, syncer) => {
                let _ = self.transmit(IlType::Sync, id, if syncer { 0 } else { ack }, &[]);
            }
            Action::ReClose(id, ack) => {
                let _ = self.transmit(IlType::Close, id, ack, &[]);
            }
        }
        let mut inner = self.inner.lock();
        let _ = self.rearm(&mut inner);
    }

    fn handle(self: &Arc<Self>, pkt: &IlHeader, payload: Bytes) {
        let mut send_ack = false;
        let mut send_state = false;
        let mut retransmit: Vec<(u32, Bytes, Option<trace::TraceHandle>)> = Vec::new();
        let mut deliver_to_listener = false;
        let mut reply_close = false;
        {
            let mut inner = self.inner.lock();
            match (inner.state, pkt.typ) {
                (IlState::Syncer, IlType::Sync) if pkt.ack == inner.snd_id => {
                    inner.rcv_id = pkt.id;
                    inner.state = IlState::Established;
                    inner.rtx_deadline = None;
                    inner.retries = 0;
                    send_ack = true;
                    self.readable.notify_all();
                }
                (IlState::Syncee, IlType::Ack)
                | (IlState::Syncee, IlType::Data)
                | (IlState::Syncee, IlType::Query)
                | (IlState::Syncee, IlType::State)
                    if pkt.ack == inner.snd_id =>
                {
                    // Any packet acking our Sync proves the peer got it,
                    // so it completes the handshake. Queries must count:
                    // if the completing Ack and the first Data are both
                    // lost, the peer's recovery probe is the only
                    // traffic we will ever see.
                    inner.state = IlState::Established;
                    inner.rtx_deadline = None;
                    inner.retries = 0;
                    deliver_to_listener = true;
                    match pkt.typ {
                        IlType::Data => {
                            self.accept_data(&mut inner, pkt.id, payload, &mut send_ack)
                        }
                        IlType::Query => send_state = true,
                        _ => {}
                    }
                }
                (IlState::Syncee, IlType::Sync) => {
                    // Duplicate Sync: repeat our reply.
                    let (id, ack) = (inner.snd_id, inner.rcv_id);
                    drop(inner);
                    let _ = self.transmit(IlType::Sync, id, ack, &[]);
                    return;
                }
                (_, IlType::Close) => {
                    inner.peer_closed = true;
                    match inner.state {
                        IlState::Closing | IlState::Closed => {
                            inner.state = IlState::Closed;
                        }
                        _ => {
                            inner.state = IlState::Closing;
                            reply_close = true;
                        }
                    }
                    self.rx_wake();
                    self.window_open.notify_all();
                }
                (IlState::Established, typ) | (IlState::Closing, typ) => {
                    // Any packet carries a cumulative ack.
                    self.accept_ack(&mut inner, pkt.ack);
                    match typ {
                        IlType::Data => {
                            self.accept_data(&mut inner, pkt.id, payload, &mut send_ack);
                        }
                        IlType::Query => {
                            // "The receiver responds to a query" with its
                            // state; the sender then repairs.
                            send_state = true;
                        }
                        IlType::State => {
                            // Everything the peer has not seen beyond its
                            // cumulative ack *may* be lost; repair the
                            // oldest few and let the next round handle
                            // deeper holes, so repair traffic stays
                            // proportional to actual loss.
                            self.accept_ack(&mut inner, pkt.ack);
                            for (&id, sent) in inner.unacked.iter_mut() {
                                if seq_lt(pkt.ack, id) && retransmit.len() < REPAIR_BURST {
                                    sent.rexmit = true;
                                    retransmit.push((
                                        id,
                                        sent.payload.clone(),
                                        sent.trace.clone(),
                                    ));
                                }
                            }
                            if !retransmit.is_empty() {
                                inner.last_rexmit = Some(time::now());
                                // A State reply proves the path is alive:
                                // the exponential backoff applies to
                                // silence, not to repair rounds.
                                inner.retries = 0;
                                inner.rtt.settle();
                                inner.rtx_deadline = Some(time::now() + inner.rtt.rto);
                            }
                        }
                        IlType::Sync => {
                            // The peer is still resyncing: our
                            // handshake-completing ack was lost. Answer
                            // with our state so it can establish and
                            // solicit repair, instead of querying into
                            // a peer that will never hear us.
                            send_state = true;
                        }
                        IlType::Ack => {}
                        // checked: Close is diverted before this match
                        IlType::Close => unreachable!("handled above"),
                    }
                    if inner.state == IlState::Closing
                        && inner.peer_closed
                        && inner.unacked.is_empty()
                    {
                        inner.state = IlState::Closed;
                    }
                }
                _ => {}
            }
        }
        if send_ack {
            // Delay slightly so an RPC reply can piggyback its ack, but
            // ack a bulk burst immediately so the sender's window keeps
            // moving.
            let immediate = {
                let mut inner = self.inner.lock();
                inner.rx_since_ack += 1;
                if inner.rx_since_ack >= ACK_BATCH {
                    inner.rx_since_ack = 0;
                    inner.ack_due = None;
                    true
                } else {
                    if inner.ack_due.is_none() {
                        inner.ack_due = Some(time::now() + ACK_DELAY);
                    }
                    false
                }
            };
            if immediate {
                let (id, ack) = {
                    let inner = self.inner.lock();
                    (inner.snd_id, inner.rcv_id)
                };
                if let Some(stack) = self.stack.upgrade() {
                    stack.il.stats.acks.inc();
                }
                let _ = self.transmit(IlType::Ack, id, ack, &[]);
            }
        }
        if send_state {
            let (id, ack) = {
                let inner = self.inner.lock();
                (inner.snd_id, inner.rcv_id)
            };
            let _ = self.transmit(IlType::State, id, ack, &[]);
        }
        if !retransmit.is_empty() {
            if let Some(stack) = self.stack.upgrade() {
                let bytes: usize = retransmit.iter().map(|(_, p, _)| p.len()).sum();
                stack.il.stats.retransmit_msgs.add(retransmit.len() as u64);
                stack.il.stats.retransmit_bytes.add(bytes as u64);
                // One event per repaired message, so the event log is a
                // ground truth the retransmit counter can be checked
                // against.
                for (id, payload, _) in &retransmit {
                    let len = payload.len();
                    stack
                        .il
                        .netlog
                        .events
                        .log(Facility::Il, || format!("rexmit id {id} len {len}"));
                }
            }
            // The same event, on the root span of the RPC whose message
            // was repaired — the netlog line and the span event pair up
            // one to one.
            for (id, payload, tr) in &retransmit {
                if let Some(h) = tr {
                    let len = payload.len();
                    h.event(Facility::Il, || format!("rexmit id {id} len {len}"));
                }
            }
            let ack = self.inner.lock().rcv_id;
            for (id, payload, _) in retransmit {
                let _ = self.transmit(IlType::Data, id, ack, &payload);
            }
        }
        if reply_close {
            let (id, ack) = {
                let inner = self.inner.lock();
                (inner.snd_id, inner.rcv_id)
            };
            let _ = self.transmit(IlType::Close, id, ack, &[]);
            // Both directions are done.
            let mut inner = self.inner.lock();
            inner.state = IlState::Closed;
            drop(inner);
            self.teardown();
        }
        if deliver_to_listener {
            if let Some(stack) = self.stack.upgrade() {
                stack.il.table.established(&self.key);
            }
        }
        // Every branch above may have moved ack_due/rtx_deadline; one
        // re-arm covers them all (and cancels if the conn closed).
        let closed = {
            let mut inner = self.inner.lock();
            let _ = self.rearm(&mut inner);
            inner.state == IlState::Closed
        };
        if closed {
            self.teardown();
        }
    }

    fn accept_ack(&self, inner: &mut Inner, ack: u32) {
        let acked: Vec<u32> = inner
            .unacked
            .keys()
            .copied()
            .filter(|&id| seq_le(id, ack))
            .collect();
        if acked.is_empty() {
            return;
        }
        let was_full = inner.unacked.len() as u32 >= IL_WINDOW;
        for id in &acked {
            if let Some(sent) = inner.unacked.remove(id) {
                // The send→ack interval, on the root span of the RPC
                // that sent the message. A retransmitted message's span
                // stretches accordingly: the retransmit-inflated tail.
                if let Some(h) = &sent.trace {
                    h.span(
                        Facility::Il,
                        &format!("il send id {id}"),
                        sent.at,
                        time::now(),
                    );
                }
                // Round-trip sample from the newest acked message —
                // unless it was retransmitted or sent before a repair
                // round, whose queuing delay would inflate the estimate
                // (Karn's rule).
                let karn_clean = !sent.rexmit
                    && inner.last_rexmit.map(|t| sent.at > t).unwrap_or(true);
                if *id == ack && karn_clean {
                    let sample = time::now().saturating_duration_since(sent.at);
                    inner.rtt.sample(sample);
                    // The same sample feeds the adaptive-RTT histogram
                    // shown in the protocol's stats file.
                    if let Some(stack) = self.stack.upgrade() {
                        stack.il.stats.rtt.record(sample);
                    }
                }
            }
        }
        inner.retries = 0;
        // A Close has no acknowledgment but the peer's own: the timer
        // that sends it again stays armed until that comes.
        inner.rtx_deadline = if inner.unacked.is_empty() && inner.state != IlState::Closing {
            None
        } else {
            Some(time::now() + inner.rtt.rto)
        };
        self.window_open.notify_all();
        if was_full {
            // A service that stopped reading for want of room for its
            // replies has no thread in `send` to wake.
            self.rx_wake();
        }
    }

    fn accept_data(&self, inner: &mut Inner, id: u32, payload: Bytes, send_ack: &mut bool) {
        *send_ack = true;
        let expected = inner.rcv_id.wrapping_add(1);
        if id == expected {
            inner.rcv_id = id;
            inner.rcv_q.push_back(payload);
            // Resequence: drain consecutive out-of-order messages.
            loop {
                let next = inner.rcv_id.wrapping_add(1);
                match inner.ooo.remove(&next) {
                    Some(msg) => {
                        inner.rcv_id = next;
                        inner.rcv_q.push_back(msg);
                    }
                    None => break,
                }
            }
            if let Some(stack) = self.stack.upgrade() {
                stack.il.stats.rx_msgs.inc();
            }
            self.rx_wake();
        } else if seq_lt(inner.rcv_id, id) {
            // Ahead of us: keep it only if within the window; "messages
            // outside the window are discarded and must be retransmitted."
            if id.wrapping_sub(inner.rcv_id) <= IL_WINDOW {
                inner.ooo.insert(id, payload);
            }
        }
        // Behind us: duplicate; the ack we send repairs the peer.
    }
}

/// The copy out to the reader, the only one a received message gets.
fn copy_out(msg: &Bytes) -> Vec<u8> {
    RX_SITE.record(msg.len());
    msg.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::tests::two_hosts;
    use crate::ip::{IpConfig, IpStack};
    use plan9_netsim::ether::EtherSegment;
    use plan9_netsim::profile::Profiles;

    #[test]
    fn packet_codec_round_trip() {
        let p = IlPacket {
            typ: IlType::Data,
            src: 17008,
            dst: 5012,
            id: 99,
            ack: 42,
            payload: b"Rattach".to_vec(),
        };
        let d = decode_il(&encode_il(&p)).unwrap();
        assert_eq!(d.typ, IlType::Data);
        assert_eq!((d.src, d.dst, d.id, d.ack), (17008, 5012, 99, 42));
        assert_eq!(d.payload, b"Rattach");
    }

    #[test]
    fn corrupted_packet_rejected() {
        let p = IlPacket {
            typ: IlType::Ack,
            src: 1,
            dst: 2,
            id: 3,
            ack: 4,
            payload: Vec::new(),
        };
        let mut b = encode_il(&p);
        b[10] ^= 0x80;
        assert!(decode_il(&b).is_none());
    }

    #[test]
    fn connect_and_exchange_messages() {
        let (a, b) = two_hosts();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            while let Some(msg) = conn.recv().unwrap() {
                conn.send(&msg).unwrap();
            }
        });
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        assert_eq!(conn.state(), IlState::Established);
        conn.send(b"first").unwrap();
        conn.send(b"second").unwrap();
        assert_eq!(conn.recv().unwrap().unwrap(), b"first");
        assert_eq!(conn.recv().unwrap().unwrap(), b"second");
        conn.close();
        server.join().unwrap();
    }

    #[test]
    fn delimiters_preserved_exactly() {
        let (a, b) = two_hosts();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut sizes = Vec::new();
            while let Some(msg) = conn.recv().unwrap() {
                sizes.push(msg.len());
            }
            sizes
        });
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        for n in [1usize, 0, 700, 3, 9000] {
            conn.send(&vec![7u8; n]).unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        conn.close();
        let sizes = server.join().unwrap();
        // Message boundaries are exactly the write boundaries.
        assert_eq!(sizes, vec![1, 0, 700, 3, 9000]);
    }

    #[test]
    fn no_listener_means_refused() {
        let (a, b) = two_hosts();
        let err = a.il_module().connect(&a, b.addr(), 1).unwrap_err();
        assert!(
            err.0.contains("refused") || err.0.contains("timed out"),
            "{err}"
        );
    }

    fn lossy_hosts(loss: f64) -> (std::sync::Arc<IpStack>, std::sync::Arc<IpStack>) {
        let seg = EtherSegment::new(Profiles::ether_fast().with_loss(loss));
        let a = IpStack::new_pooled(seg.attach([8, 0, 0, 0, 1, 1]), IpConfig::local("10.2.0.1"));
        let b = IpStack::new_pooled(seg.attach([8, 0, 0, 0, 1, 2]), IpConfig::local("10.2.0.2"));
        (a, b)
    }

    #[test]
    fn recovers_from_loss_via_query() {
        let (a, b) = lossy_hosts(0.15);
        a.netlog().events.ctl("set il").unwrap();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let n_msgs = 200;
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..n_msgs {
                got.push(conn.recv().unwrap().unwrap());
            }
            got
        });
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        for i in 0..n_msgs {
            conn.send(format!("msg {i}").as_bytes()).unwrap();
        }
        let got = server.join().unwrap();
        // Sequenced delivery despite loss.
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, format!("msg {i}").as_bytes());
        }
        // Recovery must have used queries, not blasted everything.
        assert!(
            a.il_module().stats.queries.get() > 0,
            "expected queries under loss"
        );
        // What was sent again is what was sent: a repair is read from
        // the bytes `send` retained, the first transmission's own.
        let first_id = conn.inner.lock().snd_id.wrapping_sub(n_msgs as u32 - 1);
        let events = a.netlog().events.events();
        let repaired: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| {
                let mut words = e.msg.strip_prefix("rexmit id ")?.split(" len ");
                let id: u32 = words.next()?.parse().ok()?;
                Some((id.wrapping_sub(first_id) as usize, words.next()?.parse().ok()?))
            })
            .collect();
        assert!(!repaired.is_empty(), "nothing was ever retransmitted");
        for (i, len) in repaired {
            assert_eq!(len, format!("msg {i}").len(), "message {i} was repaired at another length");
            assert_eq!(got[i], format!("msg {i}").as_bytes());
        }
        conn.close();
    }

    #[test]
    fn survives_duplication_and_reordering() {
        let seg = EtherSegment::new(
            Profiles::ether_fast().with_dup(0.1).with_reorder(0.1),
        );
        let a = IpStack::new_pooled(seg.attach([8, 0, 0, 0, 2, 1]), IpConfig::local("10.3.0.1"));
        let b = IpStack::new_pooled(seg.attach([8, 0, 0, 0, 2, 2]), IpConfig::local("10.3.0.2"));
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(conn.recv().unwrap().unwrap());
            }
            got
        });
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        for i in 0..100u32 {
            conn.send(&i.to_be_bytes()).unwrap();
        }
        let got = server.join().unwrap();
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg.as_slice(), (i as u32).to_be_bytes());
        }
        conn.close();
    }

    #[test]
    fn window_limits_outstanding_messages() {
        // With the peer not reading/acking... actually the peer acks from
        // its input process, so instead verify the sender never has more
        // than IL_WINDOW unacked by sending a burst and checking status.
        let (a, b) = two_hosts();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut n = 0;
            while conn.recv().unwrap().is_some() {
                n += 1;
            }
            n
        });
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        for _ in 0..100 {
            conn.send(b"burst").unwrap();
            let unacked = conn.inner.lock().unacked.len() as u32;
            assert!(unacked <= IL_WINDOW, "window exceeded: {unacked}");
        }
        std::thread::sleep(Duration::from_millis(100));
        conn.close();
        assert_eq!(server.join().unwrap(), 100);
    }

    #[test]
    fn an_accepted_conversations_teardown_leaves_the_listener_its_port() {
        let (a, b) = two_hosts();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        let srv = listener.accept().unwrap();
        conn.close();
        srv.close();
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.il_module().conn_count() > 0 {
            assert!(Instant::now() < deadline, "conversation never torn down");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The port is still the listener's...
        let err = b.il_module().listen(&b, 17008).err().expect("port is held");
        assert!(err.0.contains("in use"), "{err}");
        // ...and the listener still takes calls on it.
        let _again = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        listener.accept_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn unlisten_fails_a_blocked_accept() {
        let (_a, b) = two_hosts();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        // Whether `accept` parks before or after the poisoning, it must
        // come back with the same error.
        let blocked = std::thread::spawn(move || listener.accept().unwrap_err());
        assert!(b.il_module().unlisten(17008));
        let err = blocked.join().unwrap();
        assert!(err.0.contains("listener closed"), "{err}");
        assert!(!b.il_module().unlisten(17008), "nothing left to close");
    }

    #[test]
    fn status_strings() {
        let (a, b) = two_hosts();
        let listener = b.il_module().listen(&b, 17008).unwrap();
        let conn = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        let _srv = listener.accept().unwrap();
        assert!(conn.status_string().starts_with("Established"));
        assert_eq!(conn.remote_string(), format!("{} 17008", b.addr()));
        conn.close();
    }
}
