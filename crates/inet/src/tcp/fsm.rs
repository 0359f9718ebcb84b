//! TCP's core: the protocol as a state machine. Every change a
//! connection's state goes through is one call of
//! [`State::step`](Core::step), which holds no lock, reads no clock of
//! its own (it is handed the time, or the shell's clock to read once)
//! and sends nothing. It returns what the change asks of the world —
//! segments to send, where the timer is to be, whom to wake — and the
//! one shell (`support::step::Shell`, in [`TcpConn`](super::TcpConn))
//! does that once it has dropped the conversation lock. So a change can
//! be tested, and the two ends of a connection explored, with no wire,
//! pool or clock (`tests/protocol_checker.rs`).

use super::{Segment, TcpState, ACK, FIN, MAX_RETRIES, PSH, RCV_BUF_MAX, RST, RTO_INITIAL, RTO_MAX, RTO_MIN, SND_BUF_MAX, SYN, TIME_WAIT};
use crate::conv::{seq_le, seq_lt, Instant, Out, Rtt, ACK_DELAY};
pub use crate::conv::Now;
use plan9_netlog::trace::TraceHandle;
use plan9_support::buf::Bytes;
use plan9_support::step::{Core, Wake};
use std::collections::{BTreeMap, VecDeque};

/// What a segment carries: views of at most two of the buffers in the
/// send queue, or nothing.
pub type Payload = Option<[Bytes; 2]>;

/// A segment as the core sends it: all of its header but the ports.
#[derive(Clone, Debug)]
pub struct Seg {
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment.
    pub ack: u32,
    /// Flag bits.
    pub flags: u16,
    /// Advertised receive window.
    pub window: u16,
    /// Payload views.
    pub payload: Payload,
}

impl Seg {
    /// Payload bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.as_ref().map_or(0, |[a, b]| a.len() + b.len())
    }
}

/// A byte queue that holds the buffers put in it, not copies of their
/// bytes: the writers' retained buffers on the way out, the payload
/// views of the frames that arrived on the way in.
#[derive(Clone, Debug, Default)]
pub(crate) struct ByteQueue {
    bufs: VecDeque<Bytes>,
    pub(crate) len: usize,
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

/// One connection's state.
#[derive(Clone, Debug)]
pub struct State {
    pub(crate) state: TcpState,
    // Send side.
    pub(crate) snd_una: u32,
    pub(crate) snd_nxt: u32,
    snd_wnd: u32,
    /// Bytes from `snd_una` onward: unacknowledged, then unsent.
    pub(crate) send_q: ByteQueue,
    /// A thread is in the shell's pump: segments leave in sequence
    /// order because no second thread sends new ones beside it.
    pumping: bool,
    fin_queued: bool,
    fin_seq: Option<u32>,
    // Receive side.
    pub(crate) rcv_nxt: u32,
    /// `rcv_nxt` as the last segment that carried ACK told it.
    rcv_acked: u32,
    recv_q: ByteQueue,
    ooo: BTreeMap<u32, Bytes>,
    peer_fin: Option<u32>,
    fin_taken: bool,
    // Timing.
    pub(crate) rtt: Rtt,
    rtt_probe: Option<(u32, Instant)>,
    rtx_deadline: Option<Instant>,
    /// When a delayed acknowledgment must leave by itself, if no
    /// segment of ours has carried it by then.
    ack_due: Option<Instant>,
    retries: u32,
    time_wait_until: Option<Instant>,
    pub(crate) err: Option<String>,
    // Congestion control (Tahoe/Reno-style; §3's "TCP has a high
    // overhead" includes all of this machinery).
    pub(crate) mss: usize,
    pub(crate) cwnd: u32,
    pub(crate) ssthresh: u32,
    dup_acks: u32,
    /// The last writer's nettrace root: byte streams have no message
    /// identity, so a retransmission is attributed to the most recent
    /// traced writer.
    trace: Option<TraceHandle>,
}

/// What happens to a connection.
pub enum Input<'a> {
    /// It opens: its SYN (or SYN+ACK) leaves, and the timer that sends
    /// it again is started.
    Open,
    /// A segment came.
    Segment(&'a Segment),
    /// Its timer fired.
    Timer,
    /// Its user queues a buffer; the trace is the writer's root.
    Write(Bytes, Option<TraceHandle>),
    /// The shell's pump asks for the next segment, and whether it is the
    /// pump already.
    Pump(bool),
    /// Its user reads up to so many bytes.
    Read(usize),
    /// Its user closes it.
    Close,
    /// Its user aborts it.
    Abort,
    /// The shell gives it up: it failed to start.
    Abandon,
}

/// What a step asks of the shell, in the order the shell does it.
#[derive(Debug, Default)]
pub struct Actions {
    /// Segments to send, in order.
    pub segs: Out<Seg>,
    /// The first of `segs` is a fast retransmission.
    pub fast: bool,
    /// The last so many of `segs` are a timeout's retransmissions.
    pub timeout: usize,
    /// A segment came beyond the next byte expected (`tcp.ooo`).
    pub ooo: bool,
    /// The root a retransmission names.
    pub trace: Option<TraceHandle>,
    /// Hand the connection to its listener.
    pub established: bool,
    /// Wake readers (and the dialer), writers and the readiness hook:
    /// after the segments leave, but before them for a timeout's give-up.
    pub wake: Wake,
    /// Data or a FIN waits to be sent: run the pump.
    pub pump: bool,
    /// Take the connection out of its table.
    pub free: bool,
    /// Aim the timer at `deadline` (`None` disarms it).
    pub aim: bool,
    pub deadline: Option<Instant>,
    /// What a read took: bytes, none at the end, or an error.
    pub got: Option<Result<Vec<u8>, String>>,
}

impl State {
    /// A connection that sends the first SYN from `iss`, or answers the
    /// peer's (its sequence number and window).
    pub fn new(iss: u32, mss: usize, peer: Option<(u32, u16)>) -> State {
        let rcv_nxt = peer.map_or(0, |(seq, _)| seq.wrapping_add(1));
        State {
            state: if peer.is_some() { TcpState::SynRcvd } else { TcpState::SynSent },
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: peer.map_or(RCV_BUF_MAX as u32, |(_, w)| w as u32),
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
            err: None,
            mss,
            // Classic initial window: a couple of segments.
            cwnd: 2 * mss as u32,
            ssthresh: RCV_BUF_MAX as u32,
            dup_acks: 0,
            trace: None,
        }
    }

    /// The connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Room in the send buffer: 0 while it is full, an error once the
    /// stream takes no more writes.
    pub fn room(&self) -> Result<usize, String> {
        match self.state {
            TcpState::Established | TcpState::CloseWait => Ok(SND_BUF_MAX.saturating_sub(self.send_q.len)),
            _ => Err(self.err.clone().unwrap_or_else(|| "hungup".to_string())),
        }
    }

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
            self.cwnd = self.cwnd.saturating_add((mss.saturating_mul(mss) / self.cwnd.max(1)).max(1));
        }
        self.cwnd = self.cwnd.min(SND_BUF_MAX as u32);
    }

    fn window_avail(&self) -> u16 {
        (RCV_BUF_MAX.saturating_sub(self.recv_q.len)).min(u16::MAX as usize) as u16
    }

    /// A segment that leaves now: its ack and window are the receive
    /// side as it stands, and one that carries ACK settles the delayed
    /// one.
    fn header(&mut self, flags: u16, seq: u32) -> Seg {
        if flags & ACK != 0 {
            self.ack_due = None;
            self.rcv_acked = self.rcv_nxt;
        }
        Seg { seq, ack: self.rcv_nxt, flags, window: self.window_avail(), payload: None }
    }

    /// The data segment that starts `off` bytes past `snd_una`, of up
    /// to `max` bytes and one MSS: views of the writers' buffers, for
    /// first transmission and every retransmission alike.
    fn segment(&mut self, off: usize, max: usize) -> Option<Seg> {
        let payload = self.send_q.views(off, max.min(self.mss))?;
        let seq = self.snd_una.wrapping_add(off as u32);
        Some(Seg { payload: Some(payload), ..self.header(ACK | PSH, seq) })
    }

    /// Whether the pump has data or a FIN it has not sent once yet.
    fn unsent(&self) -> bool {
        (self.inflight() as usize) < self.send_q.len || (self.fin_queued && self.fin_seq.is_none())
    }

    /// Takes the next unsent segment — data while the windows allow,
    /// then the FIN — and accounts for it as sent.
    fn next_segment(&mut self, now: &mut Now) -> Option<Seg> {
        use TcpState::*;
        if !matches!(self.state, Established | CloseWait | FinWait1 | Closing | LastAck) {
            return None;
        }
        let in_flight = self.inflight() as usize;
        let out = if in_flight < self.send_q.len {
            // Effective window: the receiver's advertisement capped by
            // the congestion window. A closed one is probed a byte at a
            // time, at the pace of the receiver's delayed ack.
            let wnd = self.snd_wnd.min(self.cwnd).max(1) as usize;
            if in_flight >= wnd {
                return None;
            }
            let out = self.segment(in_flight, wnd - in_flight)?;
            self.snd_nxt = self.snd_nxt.wrapping_add(out.payload_len() as u32);
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now.get()));
            }
            out
        } else if self.fin_queued && self.fin_seq.is_none() {
            let seq = self.snd_nxt;
            self.fin_seq = Some(seq);
            self.snd_nxt = seq.wrapping_add(1);
            self.header(FIN | ACK, seq)
        } else {
            return None;
        };
        self.rtx_deadline.get_or_insert_with(|| now.get() + self.rtt.rto);
        Some(out)
    }
}

/// TCP's core, as its shell, [`TcpConn`](super::TcpConn), drives it.
impl Core for State {
    type Input<'a> = Input<'a>;
    type Actions = Actions;
    const CLASS: &'static str = "inet.tcp.conn";
    const TIMER: Input<'static> = Input::Timer;

    fn step(&mut self, input: Input, mut now: Now) -> Actions {
        let st = self;
        let mut a = Actions { wake: Wake { after: true, ..Wake::default() }, ..Actions::default() };
        // What may close a connection frees it, and disarms its timer.
        let ends = !matches!(input, Input::Open | Input::Write(..) | Input::Pump(_) | Input::Read(_));
        match input {
            Input::Open => {
                a.aim = true;
                st.snd_nxt = st.snd_una.wrapping_add(1);
                st.rtx_deadline = Some(now.get() + st.rtt.rto);
                let flags = if st.state == TcpState::SynRcvd { SYN | ACK } else { SYN };
                let iss = st.snd_una;
                a.segs.push(st.header(flags, iss));
            }
            Input::Segment(seg) => {
                a.aim = true;
                segment(st, seg, &mut now, &mut a);
            }
            Input::Timer => {
                a.aim = true;
                timer(st, now.get(), &mut a);
            }
            Input::Write(buf, trace) => {
                if trace.is_some() {
                    st.trace = trace;
                }
                st.send_q.push(buf);
                a.pump = true;
            }
            // One sender at a time: a writer and the shard that took an ack
            // would otherwise each take a segment and transmit it after, in
            // either order. A second caller gets nothing — what it queued
            // or opened is here, where the first looks again before it
            // gives `pumping` up.
            Input::Pump(mine) if st.pumping == mine => {
                let next = st.next_segment(&mut now);
                st.pumping = next.is_some();
                a.aim = st.pumping;
                if let Some(seg) = next {
                    a.segs.push(seg);
                }
            }
            Input::Pump(_) => {}
            Input::Read(max) => a.got = read(st, max, &mut a.segs),
            Input::Close => {
                match st.state {
                    TcpState::Established | TcpState::CloseWait => {
                        let closed_first = st.state == TcpState::Established;
                        st.state = if closed_first { TcpState::FinWait1 } else { TcpState::LastAck };
                        st.fin_queued = true;
                        a.pump = true;
                    }
                    // Nothing in flight yet: straight to Closed.
                    TcpState::SynSent | TcpState::SynRcvd => st.state = TcpState::Closed,
                    _ => {}
                }
                (a.wake.readable, a.wake.writable) = (true, true);
            }
            Input::Abort => {
                st.state = TcpState::Closed;
                st.err = Some("connection aborted".to_string());
                let seq = st.snd_nxt;
                a.segs.push(st.header(RST | ACK, seq));
                (a.wake.readable, a.wake.writable) = (true, true);
            }
            Input::Abandon => st.state = TcpState::Closed,
        }
        if ends && st.state == TcpState::Closed {
            (a.free, a.aim) = (true, true);
        }
        a.deadline = match (st.state, st.ack_due, st.rtx_deadline, st.time_wait_until) {
            (TcpState::Closed, ..) => None,
            (TcpState::TimeWait, t, _, d) | (_, t, d, _) => match (t, d) {
                (Some(t), Some(d)) => Some(t.min(d)),
                (t, d) => t.or(d),
            },
        };
        a
    }

    fn aim(a: &Actions) -> Option<Option<Instant>> {
        a.aim.then_some(a.deadline)
    }

    fn wake(a: &Actions) -> Wake {
        a.wake
    }
}

/// What a read can have without waiting: up to `max` bytes, with a
/// window update if the read opened a shut window, or nothing at the
/// orderly end of the stream; else `None`.
fn read(st: &mut State, max: usize, segs: &mut Out<Seg>) -> Option<Result<Vec<u8>, String>> {
    if st.recv_q.len > 0 {
        let n = st.recv_q.len.min(max);
        let two_mss = 2 * st.mss;
        let was_shut = (st.window_avail() as usize) < two_mss;
        // The copy out to the reader, the only one the bytes get on
        // this side of the wire.
        let mut out = Vec::with_capacity(n);
        st.recv_q.consume(n, |run| out.extend_from_slice(run));
        // A sender stopped by the window hears that it opened.
        if was_shut && st.window_avail() as usize >= two_mss && st.peer_fin.is_none() {
            let seq = st.snd_nxt;
            segs.push(st.header(ACK, seq));
        }
        return Some(Ok(out));
    }
    if st.peer_fin.is_some() && st.fin_taken {
        return Some(Ok(Vec::new())); // orderly EOF
    }
    if let Some(e) = &st.err {
        return Some(Err(e.clone()));
    }
    (st.state == TcpState::Closed).then(|| Ok(Vec::new()))
}

/// One timer expiry: the delayed ack if it is due, TIME-WAIT's end, and
/// the retransmission timeout — blind go-back-N from `snd_una`.
fn timer(st: &mut State, now: Instant, a: &mut Actions) {
    if st.state != TcpState::Closed && st.ack_due.is_some_and(|d| now >= d) {
        let seq = st.snd_nxt;
        a.segs.push(st.header(ACK, seq));
    }
    match st.state {
        TcpState::Closed => {}
        TcpState::TimeWait => {
            if st.time_wait_until.is_some_and(|until| now >= until) {
                st.state = TcpState::Closed;
            }
        }
        // A deadline that moved later since this timer was armed is
        // aimed at again.
        _ if st.rtx_deadline.is_none_or(|d| now < d) => {}
        _ if st.retries >= MAX_RETRIES => {
            st.err = Some("connection timed out".to_string());
            st.state = TcpState::Closed;
            (a.wake.readable, a.wake.writable, a.wake.after) = (true, true, false);
        }
        _ => {
            st.retries += 1;
            st.rtt.backoff(2, 1);
            st.rtx_deadline = Some(now + st.rtt.rto);
            st.rtt_probe = None; // Karn's rule
            // A timeout collapses the congestion window (Tahoe).
            st.enter_recovery();
            st.cwnd = st.mss as u32;
            st.dup_acks = 0;
            a.trace = st.trace.clone();
            let una = st.snd_una;
            let ack_only = a.segs.iter().count();
            match st.state {
                TcpState::SynSent => a.segs.push(st.header(SYN, una)),
                TcpState::SynRcvd => a.segs.push(st.header(SYN | ACK, una)),
                _ => {
                    let unacked = st.inflight() as usize;
                    let fin_in_flight = st.fin_seq.is_some() && unacked > 0;
                    let data_len = (unacked - fin_in_flight as usize).min(st.send_q.len);
                    let mut off = 0usize;
                    while off < data_len {
                        let Some(seg) = st.segment(off, data_len - off) else { break };
                        off += seg.payload_len();
                        a.segs.push(seg);
                    }
                    if let Some(fin_seq) = st.fin_seq.filter(|&f| seq_le(una, f)) {
                        a.segs.push(st.header(FIN | ACK, fin_seq));
                    }
                }
            }
            a.timeout = a.segs.iter().count() - ack_only;
            if a.timeout == 0 {
                // Nothing outstanding after all.
                st.rtx_deadline = None;
                st.retries = 0;
            }
        }
    }
    a.wake.hook = st.state == TcpState::Closed;
}

/// One segment from the peer.
fn segment(st: &mut State, seg: &Segment, now: &mut Now, a: &mut Actions) {
    if seg.flags & RST != 0 {
        st.err = Some("connection refused".to_string());
        st.state = TcpState::Closed;
        (a.wake.readable, a.wake.writable, a.wake.hook) = (true, true, true);
        return;
    }
    st.snd_wnd = seg.window as u32;
    let mut ack_now = false;
    match st.state {
        TcpState::SynSent => {
            if seg.flags & (SYN | ACK) == (SYN | ACK) && seg.ack == st.snd_nxt {
                st.rcv_nxt = seg.seq.wrapping_add(1);
                st.snd_una = seg.ack;
                st.state = TcpState::Established;
                st.rtx_deadline = None;
                st.retries = 0;
                ack_now = true;
                a.wake.readable = true;
            }
        }
        // The peer's SYN again: our SYN+ACK was lost, and the peer
        // hears one now rather than at our retransmit.
        TcpState::SynRcvd if seg.flags & SYN != 0 => {
            let iss = st.snd_una;
            a.segs.push(st.header(SYN | ACK, iss));
        }
        TcpState::SynRcvd => {
            if seg.flags & ACK != 0 && seg.ack == st.snd_nxt {
                st.snd_una = seg.ack;
                st.state = TcpState::Established;
                st.rtx_deadline = None;
                st.retries = 0;
                a.established = true;
                a.wake.readable = true;
                // Fall through to process any piggybacked data.
                data(st, seg, now, &mut ack_now, a);
            }
        }
        _ => {
            if seg.flags & ACK != 0
                && seg.ack == st.snd_una
                && st.snd_una != st.snd_nxt
                && seg.payload.is_empty()
                && seg.flags & (SYN | FIN) == 0
            {
                // A duplicate ack: the peer is missing the segment at
                // snd_una. Three of them trigger fast retransmit (Reno).
                st.dup_acks += 1;
                if st.dup_acks == 3 {
                    st.enter_recovery();
                    st.cwnd = st.ssthresh + 3 * st.mss as u32;
                    st.rtt_probe = None;
                    let in_flight = st.inflight() as usize;
                    if let Some(seg) = st.segment(0, in_flight) {
                        a.segs.push(seg);
                        a.fast = true;
                        a.trace = st.trace.clone();
                    }
                }
            }
            if seg.flags & ACK != 0 && seq_lt(st.snd_una, seg.ack) && seq_le(seg.ack, st.snd_nxt) {
                ack(st, seg.ack, now, a);
            }
            // The peer's SYN again: the ack that finished its handshake
            // was lost, and nothing else will carry one.
            ack_now |= seg.flags & SYN != 0;
            data(st, seg, now, &mut ack_now, a);
        }
    }
    if ack_now {
        let seq = st.snd_nxt;
        a.segs.push(st.header(ACK, seq));
    }
    a.pump = st.unsent();
    a.wake.hook |= a.wake.readable;
}

/// An ack of new data: the send queue gives it up, the windows open.
fn ack(st: &mut State, ack: u32, now: &mut Now, a: &mut Actions) {
    let acked = ack.wrapping_sub(st.snd_una) as usize;
    st.dup_acks = 0;
    st.grow_cwnd(acked as u32);
    // Drop acked payload bytes (the FIN octet is not in the queue).
    let fin_acked = st.fin_seq.is_some_and(|f| seq_lt(f, ack));
    let gone = (acked - fin_acked as usize).min(st.send_q.len);
    let full = st.send_q.len >= SND_BUF_MAX;
    st.send_q.consume(gone, |_| ());
    // An ack made room in a send buffer that was full: a service that
    // stopped reading for want of it has no thread to wake.
    a.wake.hook = full && st.send_q.len < SND_BUF_MAX;
    st.snd_una = ack;
    st.retries = 0;
    if let Some((_, at)) = st.rtt_probe.filter(|&(probe, _)| seq_le(probe, ack)) {
        st.rtt.sample(now.get().saturating_duration_since(at));
        st.rtt_probe = None;
    }
    st.rtx_deadline = (st.snd_una != st.snd_nxt).then(|| now.get() + st.rtt.rto);
    a.wake.writable = true;
    // FIN-related transitions on our side.
    if fin_acked {
        match st.state {
            TcpState::FinWait1 => st.state = TcpState::FinWait2,
            TcpState::Closing => {
                st.state = TcpState::TimeWait;
                st.time_wait_until = Some(now.get() + TIME_WAIT);
            }
            TcpState::LastAck => st.state = TcpState::Closed,
            _ => {}
        }
        a.wake.readable = true;
    }
}

/// The payload and FIN a segment carries.
fn data(st: &mut State, seg: &Segment, now: &mut Now, ack_now: &mut bool, a: &mut Actions) {
    if !seg.payload.is_empty() {
        if seg.seq == st.rcv_nxt {
            st.rcv_nxt = st.rcv_nxt.wrapping_add(seg.payload.len() as u32);
            st.recv_q.push(seg.payload.clone());
            // Drain, in sequence order from `rcv_nxt`, the out-of-order
            // segments that now fit, and drop those it has passed.
            let mut filled_a_gap = false;
            while let Some(data) = st.ooo.remove(&st.rcv_nxt) {
                st.rcv_nxt = st.rcv_nxt.wrapping_add(data.len() as u32);
                st.recv_q.push(data);
                filled_a_gap = true;
            }
            let nxt = st.rcv_nxt;
            st.ooo.retain(|&s, _| seq_lt(nxt, s));
            // The ack waits for a segment of ours to carry it, for two
            // segments' worth to tell of, or for the timer; a sender
            // repairing a loss hears at once.
            let unacked = st.rcv_nxt.wrapping_sub(st.rcv_acked) as usize;
            if filled_a_gap || unacked >= 2 * st.mss {
                *ack_now = true;
            } else {
                st.ack_due.get_or_insert_with(|| now.get() + ACK_DELAY);
            }
            a.wake.readable = true;
        } else {
            // An old duplicate is acknowledged again; a segment beyond
            // `rcv_nxt` is held (bounded) and the ack acts as a
            // duplicate ack, cueing the sender's fast retransmit.
            *ack_now = true;
            if seq_lt(st.rcv_nxt, seg.seq) {
                a.ooo = true;
                if st.ooo.len() < 256 {
                    st.ooo.insert(seg.seq, seg.payload.clone());
                }
            }
        }
    }
    if seg.flags & FIN != 0 {
        *ack_now = true;
        let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
        if fin_seq == st.rcv_nxt {
            st.peer_fin = Some(fin_seq);
            st.fin_taken = true;
            st.rcv_nxt = st.rcv_nxt.wrapping_add(1);
            match st.state {
                TcpState::Established => st.state = TcpState::CloseWait,
                TcpState::FinWait1 => st.state = TcpState::Closing,
                TcpState::FinWait2 => {
                    st.state = TcpState::TimeWait;
                    st.time_wait_until = Some(now.get() + TIME_WAIT);
                }
                _ => {}
            }
            a.wake.readable = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_support::buf::Bytes;

    /// A segment from the peer to the core, on a connection whose ISS
    /// is 1.
    fn from_peer(seq: u32, flags: u16, payload: &[u8]) -> Segment {
        Segment { sport: 564, dport: 5012, seq, ack: 2, flags, window: 8192, payload: Bytes::from(payload.to_vec()) }
    }

    /// The listener's core, answering a SYN at `peer_iss`: (state, now).
    fn syn_rcvd(peer_iss: u32) -> (State, Instant) {
        let now = Instant::now();
        let mut st = State::new(1, 1460, Some((peer_iss, 8192)));
        st.step(Input::Open, Now::At(now));
        (st, now)
    }

    #[test]
    fn held_segments_drain_across_the_sequence_wrap() {
        let (mut st, now) = syn_rcvd(0xFFFF_FFFD);
        st.step(Input::Segment(&from_peer(0xFFFF_FFFE, ACK, &[])), Now::At(now));
        assert_eq!(st.state(), TcpState::Established);
        for (seq, byte) in [(0xFFFF_FFFF, b'b'), (0, b'c')] {
            assert!(st.step(Input::Segment(&from_peer(seq, ACK, &[byte])), Now::At(now)).ooo);
        }
        let a = st.step(Input::Segment(&from_peer(0xFFFF_FFFE, ACK, b"a")), Now::At(now));
        let acks: Vec<u32> = a.segs.iter().filter(|s| s.flags & ACK != 0).map(|s| s.ack).collect();
        assert_eq!(acks, [1], "the filled gap is acked at once");
        let got = st.step(Input::Read(100), Now::At(now)).got;
        assert_eq!(got, Some(Ok(b"abc".to_vec())));
    }

    #[test]
    fn a_syn_again_is_answered_from_syn_rcvd() {
        let (mut st, now) = syn_rcvd(41);
        let a = st.step(Input::Segment(&from_peer(41, SYN, &[])), Now::At(now));
        let out: Vec<(u16, u32, u32)> = a.segs.iter().map(|s| (s.flags, s.seq, s.ack)).collect();
        assert_eq!(out, [(SYN | ACK, 1, 42)]);
        assert_eq!(st.state(), TcpState::SynRcvd);
    }
}
