//! IL's core: the protocol as a state machine. Every change a
//! conversation's state goes through is one call of
//! [`State::step`](Core::step), which holds no lock, reads no clock of
//! its own (it is handed the time, or the shell's clock to read once)
//! and sends nothing. It returns what the change asks of the world —
//! segments to send, where the timer is to be, whom to wake — and the
//! one shell (`support::step::Shell`, in [`IlConn`](super::IlConn)) does
//! that once it has dropped the conversation lock. So a change can be
//! tested, and the two ends of a conversation explored, with no wire,
//! pool or clock (`tests/protocol_checker.rs`).

use super::{IlState, IlType, ACK_BATCH, IL_WINDOW, MAX_RETRIES, REPAIR_BURST, RTO_INITIAL, RTO_MAX, RTO_MIN};
use crate::conv::{seq_le, seq_lt, Duration, Instant, Out, Rtt, ACK_DELAY};
pub use crate::conv::Now;
use plan9_netlog::trace::TraceHandle;
use plan9_support::buf::Bytes;
use plan9_support::step::{Core, Wake};
use std::collections::{BTreeMap, VecDeque};

/// A segment as the core takes and sends it: the header fields that are
/// the conversation's, and the payload (`None` for none).
#[derive(Clone, Debug)]
pub struct Seg {
    /// Message type.
    pub typ: IlType,
    /// Sequence id.
    pub id: u32,
    /// Latest in-sequence id seen from the peer.
    pub ack: u32,
    /// Payload: a view of the frame it came in, or of the sender's
    /// retained message.
    pub payload: Option<Bytes>,
}

#[derive(Clone, Debug)]
pub(crate) struct Sent {
    /// The message: the one copy of it this end holds, from which it
    /// is first sent and, if the peer asks, sent again.
    payload: Bytes,
    at: Instant,
    /// Set once the message has been retransmitted (Karn's rule: no RTT
    /// sample from it).
    rexmit: bool,
    /// The sender's nettrace root, captured at `send`: the ack, a
    /// repair and a query all attribute back to the RPC that sent the
    /// message.
    trace: Option<TraceHandle>,
}

/// One conversation's state.
#[derive(Clone, Debug)]
pub struct State {
    pub(crate) state: IlState,
    /// Id of the last message we sent.
    pub(crate) snd_id: u32,
    /// Unacked messages, kept until the peer's ack covers them.
    pub(crate) unacked: BTreeMap<u32, Sent>,
    /// Last in-sequence id received from the peer.
    rcv_id: u32,
    /// Within-window out-of-order messages.
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
    pub(crate) rtt: Rtt,
    pub(crate) err: Option<String>,
}

/// What happens to a conversation.
pub enum Input {
    /// Its first Sync ([`State::sync`]) has left: the timer that sends
    /// it again starts.
    Open,
    /// A segment came.
    Segment(Seg),
    /// Its timer fired.
    Timer,
    /// Its user sends a message; the trace is the sender's root.
    Send(Bytes, Option<TraceHandle>),
    /// Its user closes it.
    Close,
    /// The shell gives it up: it failed to start.
    Abandon,
}

/// What a step asks of the shell, in the order the shell does it.
#[derive(Debug, Default)]
pub struct Actions {
    /// Wake readers, senders (the window opened, or they are to see the
    /// end) and the readiness hook before the segments leave; a user's
    /// close wakes readers and senders once its Close has left.
    pub wake: Wake,
    /// Segments to send, each with the root its event (a query's or a
    /// repair's) names.
    pub segs: Out<(Seg, Option<TraceHandle>)>,
    /// A message sent for the first time (`il.tx`); the `Data` among
    /// `segs` of any other step are repairs.
    pub sent: bool,
    /// Messages delivered in sequence (`il.rx`).
    pub delivered: bool,
    /// A round-trip sample.
    pub rtt: Option<Duration>,
    /// The traced messages an ack covered: root, id, when sent, when
    /// acknowledged.
    pub spans: Vec<(TraceHandle, u32, Instant, Instant)>,
    /// Hand the conversation to its listener.
    pub established: bool,
    /// Take the conversation out of its table.
    pub free: bool,
    /// Where the timer is to be (`None` disarms it).
    pub deadline: Option<Instant>,
}

impl Actions {
    /// Sends a control segment: our id and ack as they stand.
    fn send(&mut self, st: &State, typ: IlType) {
        self.segs.push((Seg { typ, id: st.snd_id, ack: st.rcv_id, payload: None }, None));
    }
}

impl State {
    /// A conversation that sends first from `iss`, or answers `peer`'s
    /// Sync.
    pub fn new(iss: u32, peer: Option<u32>) -> State {
        State {
            state: if peer.is_some() { IlState::Syncee } else { IlState::Syncer },
            snd_id: iss,
            unacked: BTreeMap::new(),
            rcv_id: peer.unwrap_or(0), // a Sync consumes one id
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
        }
    }

    /// What a reader can have without waiting: the next message, `None`
    /// at the orderly end, or the error; nothing while there is none
    /// yet. An IL read frees no window, so it is no input of [`step`].
    pub fn read(&mut self) -> Option<Result<Option<Bytes>, String>> {
        match self.rcv_q.pop_front() {
            Some(msg) => Some(Ok(Some(msg))),
            None if self.peer_closed || self.state == IlState::Closed => Some(Ok(None)),
            None => self.err.clone().map(Err),
        }
    }

    /// The Sync a conversation opens with.
    pub fn sync(&self) -> Seg {
        Seg { typ: IlType::Sync, id: self.snd_id, ack: self.rcv_id, payload: None }
    }

    /// The connection state.
    pub fn state(&self) -> IlState {
        self.state
    }

    /// Whether a send may go ahead: `Ok(false)` while the window is
    /// full, an error once the conversation is over.
    pub fn can_send(&self) -> Result<bool, String> {
        match self.state {
            IlState::Established => Ok((self.unacked.len() as u32) < IL_WINDOW),
            _ => Err(self.err.clone().unwrap_or_else(|| "hungup".to_string())),
        }
    }
}

/// IL's core, as its shell, [`IlConn`](super::IlConn), drives it.
impl Core for State {
    type Input<'a> = Input;
    type Actions = Actions;
    const CLASS: &'static str = "inet.il.conn";
    const TIMER: Input = Input::Timer;

    fn step(&mut self, input: Input, mut now: Now) -> Actions {
        let st = self;
        let mut a = Actions::default();
        match input {
            Input::Open => st.rtx_deadline = Some(now.get() + st.rtt.rto),
            Input::Segment(seg) => segment(st, seg, &mut now, &mut a),
            Input::Timer => timer(st, now.get(), &mut a),
            Input::Send(msg, trace) => {
                st.snd_id = st.snd_id.wrapping_add(1);
                let at = now.get();
                let sent = Sent { payload: msg.clone(), at, rexmit: false, trace };
                st.unacked.insert(st.snd_id, sent);
                st.rtx_deadline.get_or_insert(at + st.rtt.rto);
                st.ack_due = None; // the data message carries our ack
                st.rx_since_ack = 0;
                a.sent = true;
                a.segs.push((Seg { typ: IlType::Data, id: st.snd_id, ack: st.rcv_id, payload: Some(msg) }, None));
            }
            Input::Close => {
                if matches!(st.state, IlState::Established | IlState::Syncee | IlState::Syncer) {
                    st.state = IlState::Closing;
                    st.rtx_deadline = Some(now.get() + st.rtt.rto);
                    a.send(st, IlType::Close);
                }
                (a.wake.readable, a.wake.writable, a.wake.after) = (true, true, true);
            }
            Input::Abandon => {
                st.state = IlState::Closed;
                a.free = true;
            }
        }
        a.deadline = match (st.state, st.ack_due, st.rtx_deadline) {
            (IlState::Closed, _, _) => None,
            (_, Some(t), Some(r)) => Some(t.min(r)),
            (_, t, r) => t.or(r),
        };
        a
    }

    fn aim(a: &Actions) -> Option<Option<Instant>> {
        Some(a.deadline)
    }

    fn wake(a: &Actions) -> Wake {
        a.wake
    }
}

/// One timer expiry: the delayed ack, else the retransmit deadline —
/// a Sync or Close again, or the IL way with data: ask, don't blast.
fn timer(st: &mut State, now: Instant, a: &mut Actions) {
    match st.state {
        IlState::Closed => {}
        _ if st.ack_due.is_some_and(|t| now >= t) => {
            st.ack_due = None;
            a.send(st, IlType::Ack);
        }
        _ if st.rtx_deadline.is_none_or(|t| now < t) => {}
        _ if st.retries >= MAX_RETRIES => {
            st.err = Some("connection timed out".to_string());
            st.state = IlState::Closed;
            (a.wake.readable, a.wake.hook, a.wake.writable) = (true, true, true);
        }
        state => {
            st.retries += 1;
            st.rtt.backoff(3, 2);
            st.rtx_deadline = Some(now + st.rtt.rto);
            match state {
                IlState::Syncer | IlState::Syncee => a.send(st, IlType::Sync),
                IlState::Closing => a.send(st, IlType::Close),
                _ if st.unacked.is_empty() => {
                    st.rtx_deadline = None;
                    st.retries = 0;
                }
                _ => {
                    // The query is about the oldest unacked message, the
                    // first in sequence order after the newest (ids
                    // wrap, so not the map's first); its trace owns the
                    // event.
                    let from = st.snd_id.wrapping_add(1);
                    let oldest = st.unacked.range(from..).chain(st.unacked.range(..from)).next();
                    let tr = oldest.and_then(|(_, s)| s.trace.clone());
                    a.segs.push((Seg { typ: IlType::Query, id: st.snd_id, ack: st.rcv_id, payload: None }, tr));
                }
            }
        }
    }
    a.free = st.state == IlState::Closed;
}

/// One segment from the peer.
fn segment(st: &mut State, seg: Seg, now: &mut Now, a: &mut Actions) {
    let mut send_ack = false;
    let mut send_state = false;
    let mut reply_close = false;
    match (st.state, seg.typ) {
        (IlState::Syncer, IlType::Sync) if seg.ack == st.snd_id => {
            st.rcv_id = seg.id;
            st.state = IlState::Established;
            st.rtx_deadline = None;
            st.retries = 0;
            send_ack = true;
            a.wake.readable = true;
        }
        (IlState::Syncee, IlType::Ack | IlType::Data | IlType::Query | IlType::State) if seg.ack == st.snd_id => {
            // Any packet acking our Sync proves the peer got it, so it
            // completes the handshake. Queries must count: if the
            // completing Ack and the first Data are both lost, the
            // peer's recovery probe is the only traffic we will see.
            st.state = IlState::Established;
            st.rtx_deadline = None;
            st.retries = 0;
            a.established = true;
            match seg.typ {
                IlType::Data => send_ack = accept_data(st, seg, a),
                IlType::Query => send_state = true,
                _ => {}
            }
        }
        // Duplicate Sync: repeat our reply.
        (IlState::Syncee, IlType::Sync) => a.send(st, IlType::Sync),
        (_, IlType::Close) => {
            st.peer_closed = true;
            match st.state {
                IlState::Closing | IlState::Closed => st.state = IlState::Closed,
                _ => {
                    st.state = IlState::Closing;
                    reply_close = true;
                }
            }
            (a.wake.readable, a.wake.hook, a.wake.writable) = (true, true, true);
        }
        (IlState::Established | IlState::Closing, typ) => {
            // Any packet carries a cumulative ack.
            accept_ack(st, seg.ack, now, a);
            match typ {
                IlType::Data => send_ack = accept_data(st, seg, a),
                // "The receiver responds to a query" with its state; the
                // sender then repairs. A Sync means the peer is still
                // resyncing (our completing ack was lost): our state
                // lets it establish and solicit repair, instead of
                // querying into a peer that will never hear us.
                IlType::Query | IlType::Sync => send_state = true,
                IlType::State => repair(st, seg.ack, now, a),
                // A Close is taken by the arm above.
                IlType::Ack | IlType::Close => {}
            }
            if st.state == IlState::Closing && st.peer_closed && st.unacked.is_empty() {
                st.state = IlState::Closed;
            }
        }
        _ => {}
    }
    if send_ack {
        // Delay slightly so an RPC reply can piggyback the ack, but ack
        // a bulk burst at once so the sender's window keeps moving.
        st.rx_since_ack += 1;
        if st.rx_since_ack >= ACK_BATCH {
            st.rx_since_ack = 0;
            st.ack_due = None;
            a.send(st, IlType::Ack);
        } else {
            st.ack_due.get_or_insert_with(|| now.get() + ACK_DELAY);
        }
    }
    if send_state {
        a.send(st, IlType::State);
    }
    if reply_close {
        // Both directions are done.
        a.send(st, IlType::Close);
        st.state = IlState::Closed;
    }
    a.free = st.state == IlState::Closed;
}

/// Everything the peer has not seen beyond its cumulative ack *may* be
/// lost: resend the oldest few, walking from `ack + 1` in sequence
/// order (ids wrap; the map's order is not theirs), and let the next
/// round handle deeper holes, so repair traffic stays proportional to
/// actual loss.
fn repair(st: &mut State, ack: u32, now: &mut Now, a: &mut Actions) {
    let State { unacked, rcv_id, .. } = st;
    let mut repaired = 0;
    let mut resend = |(&id, sent): (&u32, &mut Sent)| {
        if seq_lt(ack, id) && repaired < REPAIR_BURST {
            sent.rexmit = true;
            let seg = Seg { typ: IlType::Data, id, ack: *rcv_id, payload: Some(sent.payload.clone()) };
            a.segs.push((seg, sent.trace.clone()));
            repaired += 1;
        }
    };
    let from = ack.wrapping_add(1);
    unacked.range_mut(from..).for_each(&mut resend);
    unacked.range_mut(..from).for_each(&mut resend);
    if repaired > 0 {
        let now = now.get();
        st.last_rexmit = Some(now);
        // A State reply proves the path is alive: the exponential
        // backoff applies to silence, not to repair rounds.
        st.retries = 0;
        st.rtt.settle();
        st.rtx_deadline = Some(now + st.rtt.rto);
    }
}

fn accept_ack(st: &mut State, ack: u32, now: &mut Now, a: &mut Actions) {
    // Ids wrap, so what is acked is what `seq_le` says, not a range of
    // the map's order.
    if !st.unacked.keys().any(|&id| seq_le(id, ack)) {
        return;
    }
    let (now, was_full) = (now.get(), st.unacked.len() as u32 >= IL_WINDOW);
    let State { unacked, rtt, last_rexmit, .. } = st;
    for (id, sent) in unacked.extract_if(.., |&id, _| seq_le(id, ack)) {
        // The send→ack interval, on the root span of the RPC that sent
        // the message: a retransmitted message's stretches accordingly.
        if let Some(h) = sent.trace.clone() {
            a.spans.push((h, id, sent.at, now));
        }
        // Round-trip sample from the newest acked message — unless it
        // was retransmitted or sent before a repair round, whose
        // queuing delay would inflate the estimate (Karn's rule).
        if id == ack && !sent.rexmit && last_rexmit.is_none_or(|t| sent.at > t) {
            let sample = now.saturating_duration_since(sent.at);
            rtt.sample(sample);
            a.rtt = Some(sample);
        }
    }
    st.retries = 0;
    // A Close has no acknowledgment but the peer's own: the timer that
    // sends it again stays armed until that comes.
    st.rtx_deadline = (!st.unacked.is_empty() || st.state == IlState::Closing).then(|| now + st.rtt.rto);
    a.wake.writable = true;
    if was_full {
        // A service that stopped reading for want of room for its
        // replies has no thread in `send` to wake.
        (a.wake.readable, a.wake.hook) = (true, true);
    }
}

/// Takes a data message; the ack it is owed is the caller's to send.
fn accept_data(st: &mut State, seg: Seg, a: &mut Actions) -> bool {
    let id = seg.id;
    if id == st.rcv_id.wrapping_add(1) {
        st.rcv_id = id;
        st.rcv_q.push_back(seg.payload.unwrap_or_default());
        // Resequence: drain consecutive out-of-order messages.
        while let Some(msg) = st.ooo.remove(&st.rcv_id.wrapping_add(1)) {
            st.rcv_id = st.rcv_id.wrapping_add(1);
            st.rcv_q.push_back(msg);
        }
        (a.delivered, a.wake.readable, a.wake.hook) = (true, true, true);
    } else if seq_lt(st.rcv_id, id) && id.wrapping_sub(st.rcv_id) <= IL_WINDOW {
        // Ahead of us and within the window; "messages outside the
        // window are discarded and must be retransmitted."
        st.ooo.insert(id, seg.payload.unwrap_or_default());
    }
    // Behind us: a duplicate; the ack we send repairs the peer.
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five messages outstanding across the wrap of the ids, the oldest
    /// lost: the peer's State acks the one before it, and the repair
    /// must start with it, not with the map's first key.
    #[test]
    fn a_repair_across_the_wrap_starts_with_the_oldest() {
        let t0 = Instant::now();
        let mut st = State::new(0xFFFF_FFFD, None);
        st.state = IlState::Established;
        for i in 0..5u8 {
            st.step(Input::Send(Bytes::from(vec![i]), None), Now::At(t0));
        }
        let ids: Vec<u32> = st.unacked.keys().copied().collect();
        assert_eq!(ids, [0, 1, 2, 0xFFFF_FFFE, 0xFFFF_FFFF]);
        let state = Seg { typ: IlType::State, id: 7, ack: 0xFFFF_FFFD, payload: None };
        let a = st.step(Input::Segment(state), Now::At(t0));
        let resent: Vec<u32> = a.segs.iter().map(|(s, _)| s.id).collect();
        assert_eq!(resent, [0xFFFF_FFFE, 0xFFFF_FFFF, 0]);
    }
}
