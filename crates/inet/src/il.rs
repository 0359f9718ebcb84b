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
//!
//! IL is a core and a shell. The core, [`fsm`], is `State::step(&mut
//! self, Input, Now) -> Actions`; the shell is the one that drives IL's,
//! TCP's and URP's cores alike, `support::step::Shell` (lock → step →
//! aim → drop → perform). What [`IlConn`] does itself is IL's: the codec,
//! the counters and events, the segments, the listener and the table;
//! and it wakes readers and writers before its segments leave, but after
//! its Close has left on a user's close.

use crate::addr::IpAddr;
use crate::checksum::{internet_checksum, internet_checksum_gather};
use crate::conv::{self, initial_seq, ConnKey, ConvTable};
use crate::ip::IpStack;
use plan9_netlog::trace;
use plan9_netlog::{Counter, Facility, Histogram, NetLog};
use plan9_support::buf::Bytes;
use plan9_support::copysite::Site;
use plan9_support::step::{Conv, On, Shell};
use plan9_support::time;
use plan9_ninep::NineError;
use fsm::{Actions, Input, Seg, State};
use std::sync::{Arc, Weak};
use std::time::Duration;

pub mod fsm;

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
/// The longest a conversation can go on with none leaving the table:
/// every retry at the longest timeout, and then the give-up.
pub const HORIZON: Duration = RTO_MAX.saturating_mul(MAX_RETRIES + 1);

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
    pub(crate) table: Arc<ConvTable<IlConn>>,
    /// Aggregate counters.
    pub stats: IlStats,
    /// The stack's instrumentation block, for query/repair events.
    netlog: Arc<NetLog>,
}

/// A passive IL listener.
pub type IlListener = conv::Listener<IlConn>;

/// One IL connection: the [`Shell`] that drives [`fsm`], and what IL
/// does with a step itself — the segments, its counters and events, the
/// listener and the table.
pub struct IlConn {
    stack: Weak<IpStack>,
    key: ConnKey,
    pub(crate) shell: Shell<State>,
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
            table: ConvTable::new(|conn| conn.close()),
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
        let st = State::new(iss, None);
        let sync = st.sync();
        let conn = self.table.open(lport, dst, dport, |key| IlConn::fresh(stack, key, st))?;
        self.netlog.events.log(Facility::Il, None, || {
            format!("sync id {iss} to {dst}!{dport}")
        });
        // Any setup failure — the Sync transmit or arming the shared
        // timer (whose wheel/pool threads spawn lazily and can fail
        // under thread exhaustion) — must undo the conns entry and
        // release the port, not leak the table slot or panic.
        let setup = conn.transmit(stack, &sync).and_then(|()| {
            let (_, armed) = conn.shell.step(&conn, &mut conn.shell.lock(), Input::Open);
            armed.map_err(|e| NineError::new(format!("il timer: {e}")))
        });
        if let Err(e) = setup {
            conn.abandon();
            return Err(e);
        }
        let deadline = time::now() + Duration::from_secs(10);
        let verdict = conn.shell.wait(On::Readable, Some(deadline), |held| match (&held.st.err, held.st.state) {
            (Some(e), _) => Some(Err(e.clone())),
            (None, IlState::Syncer) if time::now() < deadline => None,
            (None, IlState::Syncer) => Some(Err("connection timed out".to_string())),
            (None, IlState::Established) => Some(Ok(())),
            (None, _) => Some(Err("connection refused".to_string())),
        });
        match verdict {
            Ok(()) => Ok(conn),
            Err(e) => {
                conn.abandon();
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
            let seg = Seg { typ: pkt.typ, id: pkt.id, ack: pkt.ack, payload: Some(data.slice(IL_HDR..len)) };
            let _ = conn.shell.run(&conn, Input::Segment(seg));
            return;
        }
        if pkt.typ == IlType::Sync {
            let iss = initial_seq();
            let st = State::new(iss, Some(pkt.id));
            let sync = st.sync();
            if let Some(conn) = stack.il.table.answer(key, || IlConn::fresh(stack, key, st)) {
                stack.il.netlog.events.log(Facility::Il, None, || {
                    format!("sync id {iss} from {src} port {}", pkt.src)
                });
                let _ = conn.transmit(stack, &sync);
                let (_, armed) = conn.shell.step(&conn, &mut conn.shell.lock(), Input::Open);
                if armed.is_err() {
                    // No timer means a wedged half-open conversation:
                    // drop it (freeing the table slot) and let the
                    // peer's re-Sync try again.
                    conn.abandon();
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
    fn fresh(stack: &Arc<IpStack>, key: ConnKey, st: State) -> Arc<IlConn> {
        Arc::new(IlConn { stack: Arc::downgrade(stack), key, shell: Shell::new(st, key.conv_id(&[])) })
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
        self.shell.lock().st.state
    }

    /// The `status` file line.
    pub fn status_string(&self) -> String {
        let held = self.shell.lock();
        let st = &held.st;
        format!("{} rtt {} unacked {} window {}", st.state.name(), st.rtt.srtt_string(), st.unacked.len(), IL_WINDOW)
    }

    fn transmit(&self, stack: &IpStack, seg: &Seg) -> crate::Result<()> {
        let hdr = IlHeader { typ: seg.typ, src: self.key.lport, dst: self.key.rport, id: seg.id, ack: seg.ack };
        let payload = seg.payload.as_deref().unwrap_or(&[]);
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
        let mut msg = Some(Bytes::from(msg.to_vec()));
        let (acts, armed) = self.shell.wait(On::Writable, None, |held| match held.st.can_send() {
            Ok(false) => None,
            Ok(true) => Some(Ok(self.shell.step(self, held, Input::Send(msg.take()?, trace::current())))),
            Err(e) => Some(Err(NineError::new(e))),
        })?;
        armed.map_err(|e| NineError::new(format!("il timer: {e}")))?;
        self.perform(acts)
    }

    /// Whether [`IlConn::send`] would go ahead at once: the window has
    /// room, or the conversation is over and it would fail.
    pub fn can_send(&self) -> bool {
        self.shell.lock().st.can_send() != Ok(false)
    }

    /// Blocks for the next message; `None` is orderly EOF.
    pub fn recv(&self) -> crate::Result<Option<Vec<u8>>> {
        let got = self.shell.wait(On::Readable, None, |held| held.st.read());
        got.map(|msg| msg.map(|m| copy_out(&m))).map_err(NineError::new)
    }

    /// Closes the connection.
    pub fn close(self: &Arc<Self>) {
        let _ = self.shell.run(self, Input::Close);
    }

    /// Frees a conversation that failed to start: its timer, its slot.
    fn abandon(self: &Arc<Self>) {
        let _ = self.shell.run(self, Input::Abandon);
    }

    /// Registers a readable-readiness hook, called whenever a message,
    /// EOF, or error becomes available, or a full window reopens. With
    /// [`IlConn::try_recv`] this lets a server drain thousands of
    /// conversations from the worker pool instead of parking a thread
    /// per conversation in [`IlConn::recv`], and with
    /// [`IlConn::can_send`] never park one in [`IlConn::send`] either.
    /// The hook must be cheap and non-blocking (the
    /// usual move is `pool::submit` of a drain job). A conversation has
    /// one reader: a hook registered after the first is dropped.
    pub fn set_rx_notify(&self, f: impl Fn() + Send + Sync + 'static) {
        self.shell.set_hook(f)
    }

    /// The conversation id used to shard this connection's service
    /// work on the worker pool.
    pub fn conv_id(&self) -> u64 {
        self.shell.key()
    }

    /// Non-blocking receive, for pool-serviced conversations.
    pub fn try_recv(&self) -> crate::Result<TryRecv> {
        let got = self.shell.lock().st.read();
        Ok(match got.transpose().map_err(NineError::new)? {
            Some(Some(msg)) => TryRecv::Msg(copy_out(&msg)),
            Some(None) => TryRecv::Eof,
            None => TryRecv::Empty,
        })
    }
}

impl Conv for IlConn {
    type Core = State;
    type Done = crate::Result<()>;

    fn shell(&self) -> &Shell<State> {
        &self.shell
    }

    /// Does what a step asked, the lock dropped: the wakes (before the
    /// segments leave, but a user's close's once its Close has), the
    /// counters and events, the segments, the listener, the table.
    /// Returns the first transmit's failure.
    fn perform(self: &Arc<Self>, acts: Actions) -> crate::Result<()> {
        let stack = self.stack.upgrade();
        let sent = self.shell.perform(&acts, || {
            let Some(stack) = &stack else {
                return if acts.segs.is_empty() { Ok(()) } else { Err(NineError::new("stack is down")) };
            };
            let stats = &stack.il.stats;
            if acts.sent {
                stats.tx_msgs.inc();
            }
            if acts.delivered {
                stats.rx_msgs.inc();
            }
            if let Some(sample) = acts.rtt {
                stats.rtt.record(sample);
            }
            for (h, id, sent, acked) in &acts.spans {
                h.span(Facility::Il, &format!("il send id {id}"), *sent, *acked);
            }
            for (seg, tr) in acts.segs.iter() {
                let (id, ack) = (seg.id, seg.ack);
                match seg.typ {
                    IlType::Ack => stats.acks.inc(),
                    IlType::Query => {
                        stats.queries.inc();
                        stack.il.netlog.events.log(Facility::Il, tr.as_ref(), || format!("query id {id} ack {ack}"));
                    }
                    IlType::Data if !acts.sent => {
                        // One event per repaired message, so the event
                        // log is a ground truth the retransmit counter
                        // can be checked against, each naming its RPC.
                        let len = seg.payload.as_ref().map_or(0, |p| p.len());
                        stats.retransmit_msgs.inc();
                        stats.retransmit_bytes.add(len as u64);
                        stack.il.netlog.events.log(Facility::Il, tr.as_ref(), || format!("rexmit id {id} len {len}"));
                    }
                    _ => {}
                }
            }
            let mut sent = Ok(());
            for (seg, _) in acts.segs.iter() {
                sent = sent.and(self.transmit(stack, seg));
            }
            sent
        });
        if let Some(stack) = &stack {
            if acts.established {
                stack.il.table.established(&self.key);
            }
            if acts.free {
                stack.il.table.retire(&self.key);
            }
        }
        sent
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
        let first_id = conn.shell.lock().st.snd_id.wrapping_sub(n_msgs as u32 - 1);
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
            let unacked = conn.shell.lock().st.unacked.len() as u32;
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
        assert_eq!(b.settle(), 0, "conversations never torn down");
        // The port is still the listener's...
        let err = b.il_module().listen(&b, 17008).err().expect("port is held");
        assert!(err.0.contains("in use"), "{err}");
        // ...and the listener still takes calls on it.
        let _again = a.il_module().connect(&a, b.addr(), 17008).unwrap();
        listener.accept_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn close_fails_a_blocked_accept() {
        let (_a, b) = two_hosts();
        let listener = std::sync::Arc::new(b.il_module().listen(&b, 17008).unwrap());
        // Whether `accept` parks before or after the close, it must
        // come back with the same error.
        let blocked = {
            let listener = std::sync::Arc::clone(&listener);
            std::thread::spawn(move || listener.accept().unwrap_err())
        };
        listener.close();
        let err = blocked.join().unwrap();
        assert!(err.0.contains("listener closed"), "{err}");
        // The port is the listener's until it is dropped.
        assert!(b.il_module().listen(&b, 17008).is_err());
        drop(listener);
        assert!(b.il_module().listen(&b, 17008).is_ok());
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
