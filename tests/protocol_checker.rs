//! An explicit-state checker over the IL, TCP and URP cores
//! (`plan9_inet::il::fsm`, `plan9_inet::tcp::fsm`,
//! `plan9_datakit::urp::fsm`): two ends of one conversation, a channel
//! that can deliver any segment in flight, lose it or deliver it twice,
//! and timers that advance a synthetic clock to an end's deadline. A
//! Datakit circuit loses and duplicates cells but never reorders them,
//! so URP's channel delivers, loses or repeats only the oldest cell in
//! flight each way. Each end runs a short script — it writes a few
//! messages (IL, URP) or bytes (TCP), and may close at any point once it
//! has its conversation — and the checker searches every interleaving
//! breadth-first to one depth, deduplicating states by their FNV hash.
//! The dialer's initial sequence number sits just below `u32::MAX`, so
//! IL's and TCP's ids wrap within the script; URP's script writes nine
//! one-byte cells, so its mod-8 sequence numbers wrap inside the window.
//!
//! It checks, in every state it reaches:
//! - *safety*: each end has read a prefix of what the other wrote, once
//!   and in order (IL and URP with each message's boundaries);
//! - *delivery*: while neither user has closed, a lossless settle (every
//!   segment in flight delivered, and timers fired when none is) brings
//!   each end everything the other wrote;
//! - *teardown*: once both users have closed, a lossless settle takes
//!   both ends to Closed;
//! - and on every delivery, that a repeated Sync or SYN reaching an end
//!   past its handshake, or a TCP end in SynRcvd, is answered, and that
//!   an ENQ reaching a URP end is answered with an ECHO.
//!
//! Breadth-first, a violation's trace is a shortest one; it is printed
//! transition by transition, with the settle that failed. No lock,
//! thread or clock is involved: the cores are pure. The search's budget
//! is timed on the real clock, `time::real_now`, and needs no virtual
//! one.

use plan9_datakit::urp::fsm as urp;
use plan9_inet::il::fsm as il;
use plan9_inet::il::{IlState, IlType};
use plan9_inet::tcp::fsm as tcp;
use plan9_inet::tcp::{Segment, TcpState, ACK, FIN, RST, SYN};
use plan9_support::buf::Bytes;
use plan9_support::fnv::Fnv;
use plan9_support::step::{Core, Now};
use plan9_support::time;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Debug, Write as _};
use std::hash::Hasher;
use std::time::{Duration, Instant};

/// How many transitions the search goes: the fewest that reach each of
/// the four protocol bugs this checker is known to find (EXPERIMENTS.md).
const DEPTH: usize = 8;
/// Losses and duplications, together, in one run.
const FAULTS: u32 = 1;
/// The most transitions a settle may take.
const SETTLE: usize = 200;
/// The dialer's initial sequence number: ids wrap within the script.
const DIALER_ISS: u32 = u32::MAX - 1;
const LISTENER_ISS: u32 = 7000;
/// TCP's segment size in the model: one byte, so that three bytes
/// written overrun the initial window.
const MSS: usize = 1;

/// What one step of a core did, as the channel and the users see it.
struct Did<S> {
    segs: Vec<S>,
    /// Where the timer was aimed, if it was.
    aim: Option<Option<Instant>>,
    /// What the user read: messages or runs of bytes, then the end.
    got: Vec<Vec<u8>>,
    eof: bool,
    free: bool,
}

impl<S> Default for Did<S> {
    fn default() -> Self {
        Did { segs: Vec::new(), aim: None, got: Vec::new(), eof: false, free: false }
    }
}

/// A core as the checker runs it: the crate's [`Core`], with a script
/// for each end, the segments it sends as the channel carries them, the
/// inputs a user's write or close and a segment's arrival are, and what
/// its shell does with a step beside sending and aiming.
trait Model: Core + Clone + Debug {
    type Seg: Clone + Debug;
    const NAME: &'static str;
    /// The channel never reorders: each way, only the oldest segment in
    /// flight is delivered, lost or repeated.
    const IN_ORDER: bool = false;
    /// The user's close.
    const CLOSE: Self::Input<'static>;
    /// The writes of each end's script.
    fn script(end: usize) -> &'static [&'static [u8]];
    /// The dialer, and what its opening sent.
    fn dial(iss: u32, now: Instant) -> (Self, Did<Self::Seg>);
    /// The listener's answer to a segment that opens a conversation.
    fn answer(iss: u32, seg: &Self::Seg, now: Instant) -> Option<(Self, Did<Self::Seg>)>;
    /// The listener's conversation from the start, for a protocol whose
    /// call is set up out of band.
    fn called(_now: Instant) -> Option<Self> {
        None
    }
    /// A segment's arrival.
    fn arrives(seg: &Self::Seg) -> Self::Input<'_>;
    /// The user's write of `data`, input by input.
    fn writes(data: &[u8]) -> Vec<Self::Input<'_>>;
    /// What the shell does with a step's actions: its segments, and the
    /// inputs of its own that follow them.
    fn perform(st: &mut Self, acts: Self::Actions, now: Instant, did: &mut Did<Self::Seg>);
    /// The reader takes everything there is.
    fn take(st: &mut Self, now: Instant, did: &mut Did<Self::Seg>);
    /// The user has the conversation: its handshake is done.
    fn ready(st: &Self) -> bool;
    /// Whether the user may write `data` now.
    fn writable(st: &Self, data: &[u8]) -> bool;
    /// A repeated Sync or SYN, or an ENQ, reaching an end that must
    /// answer it.
    fn must_answer(st: &Self, seg: &Self::Seg) -> bool;
    /// Whether `reply` is an answer to such a segment.
    fn answers(_reply: &Self::Seg) -> bool {
        true
    }
    /// What a stack with no conversation for a segment sends back.
    fn no_conv(seg: &Self::Seg) -> Option<Self::Seg>;
    /// Whether what an end read is a prefix of what the other wrote.
    fn prefix(wrote: &[&[u8]], got: &[Vec<u8>]) -> bool;
    fn show(seg: &Self::Seg) -> String;
}

/// One input as the shell takes it: the core steps, the timer is aimed
/// where it says, and the shell does what the step asked.
fn run<C: Model>(st: &mut C, input: C::Input<'_>, now: Instant, did: &mut Did<C::Seg>) {
    let acts = st.step(input, Now::At(now));
    if let Some(aim) = C::aim(&acts) {
        did.aim = Some(aim);
    }
    C::perform(st, acts, now, did);
}

/// A transition of one end: its inputs in turn, then the reader's take.
fn inputs<'a, C: Model>(st: &mut C, inputs: Vec<C::Input<'a>>, now: Instant) -> Did<C::Seg> {
    let mut did = Did::default();
    for input in inputs {
        run::<C>(st, input, now, &mut did);
    }
    C::take(st, now, &mut did);
    did
}

impl Model for il::State {
    type Seg = il::Seg;
    const NAME: &'static str = "il";
    const CLOSE: il::Input = il::Input::Close;

    fn script(end: usize) -> &'static [&'static [u8]] {
        const SCRIPT: [&[&[u8]]; 2] = [&[b"a", b"b", b"c", b"d"], &[b"x"]];
        SCRIPT[end]
    }
    fn dial(iss: u32, now: Instant) -> (il::State, Did<il::Seg>) {
        let mut st = il::State::new(iss, None);
        let mut did = Did { segs: vec![st.sync()], ..Did::default() };
        run::<Self>(&mut st, il::Input::Open, now, &mut did);
        Self::take(&mut st, now, &mut did);
        (st, did)
    }
    fn answer(iss: u32, seg: &il::Seg, now: Instant) -> Option<(il::State, Did<il::Seg>)> {
        (seg.typ == IlType::Sync).then(|| {
            let mut st = il::State::new(iss, Some(seg.id));
            let mut did = Did { segs: vec![st.sync()], ..Did::default() };
            run::<Self>(&mut st, il::Input::Open, now, &mut did);
            Self::take(&mut st, now, &mut did);
            (st, did)
        })
    }
    fn arrives(seg: &il::Seg) -> il::Input {
        il::Input::Segment(seg.clone())
    }
    fn writes(data: &[u8]) -> Vec<il::Input> {
        vec![il::Input::Send(Bytes::from(data.to_vec()), None)]
    }
    fn perform(_st: &mut il::State, acts: il::Actions, _now: Instant, did: &mut Did<il::Seg>) {
        did.segs.extend(acts.segs.into_iter().map(|(s, _)| s));
        did.free |= acts.free;
    }
    fn take(st: &mut il::State, _now: Instant, did: &mut Did<il::Seg>) {
        while let Some(got) = st.read() {
            match got {
                Ok(Some(msg)) => did.got.push(msg.to_vec()),
                _ => {
                    did.eof = true;
                    break;
                }
            }
        }
    }
    fn ready(st: &il::State) -> bool {
        !matches!(st.state(), IlState::Syncer | IlState::Syncee)
    }
    fn writable(st: &il::State, _data: &[u8]) -> bool {
        st.can_send() == Ok(true)
    }
    fn must_answer(st: &il::State, seg: &il::Seg) -> bool {
        seg.typ == IlType::Sync && matches!(st.state(), IlState::Syncee | IlState::Established | IlState::Closing)
    }
    fn no_conv(seg: &il::Seg) -> Option<il::Seg> {
        (seg.typ != IlType::Close).then_some(il::Seg { typ: IlType::Close, id: 0, ack: seg.id, payload: None })
    }
    fn prefix(wrote: &[&[u8]], got: &[Vec<u8>]) -> bool {
        got.len() <= wrote.len() && got.iter().zip(wrote).all(|(g, w)| g == w)
    }
    fn show(seg: &il::Seg) -> String {
        let len = seg.payload.as_ref().map_or(0, |p| p.len());
        format!("{:?} id {} ack {} len {len}", seg.typ, seg.id, seg.ack)
    }
}

impl Model for tcp::State {
    type Seg = Segment;
    const NAME: &'static str = "tcp";
    const CLOSE: tcp::Input<'static> = tcp::Input::Close;

    fn script(end: usize) -> &'static [&'static [u8]] {
        const SCRIPT: [&[&[u8]]; 2] = [&[b"abc"], &[b"x"]];
        SCRIPT[end]
    }
    fn dial(iss: u32, now: Instant) -> (tcp::State, Did<Segment>) {
        let mut st = tcp::State::new(iss, MSS, None);
        let did = inputs::<Self>(&mut st, vec![tcp::Input::Open], now);
        (st, did)
    }
    fn answer(iss: u32, seg: &Segment, now: Instant) -> Option<(tcp::State, Did<Segment>)> {
        (seg.flags & (SYN | ACK) == SYN).then(|| {
            let mut st = tcp::State::new(iss, MSS, Some((seg.seq, seg.window)));
            let did = inputs::<Self>(&mut st, vec![tcp::Input::Open], now);
            (st, did)
        })
    }
    fn arrives(seg: &Segment) -> tcp::Input<'_> {
        tcp::Input::Segment(seg)
    }
    fn writes(data: &[u8]) -> Vec<tcp::Input<'_>> {
        vec![tcp::Input::Write(Bytes::from(data.to_vec()), None)]
    }
    /// The segments, and the pump, one segment a step, as the shell
    /// runs it.
    fn perform(st: &mut tcp::State, acts: tcp::Actions, now: Instant, did: &mut Did<Segment>) {
        did.free |= acts.free;
        for s in acts.segs {
            let payload: Vec<u8> = s.payload.iter().flatten().flat_map(|b| b.to_vec()).collect();
            let (seq, ack, flags, window) = (s.seq, s.ack, s.flags, s.window);
            did.segs.push(Segment { sport: 1, dport: 2, seq, ack, flags, window, payload: Bytes::from(payload) });
        }
        let (mut pump, mut mine) = (acts.pump, false);
        while pump {
            let sent = did.segs.len();
            run::<Self>(st, tcp::Input::Pump(mine), now, did);
            mine = did.segs.len() > sent;
            pump = mine;
        }
    }
    fn take(st: &mut tcp::State, now: Instant, did: &mut Did<Segment>) {
        while let Some(got) = st.step(tcp::Input::Read(usize::MAX), Now::At(now)).got {
            match got {
                Ok(data) if !data.is_empty() => did.got.push(data),
                _ => {
                    did.eof = true;
                    break;
                }
            }
        }
    }
    fn ready(st: &tcp::State) -> bool {
        !matches!(st.state(), TcpState::SynSent | TcpState::SynRcvd)
    }
    fn writable(st: &tcp::State, _data: &[u8]) -> bool {
        st.room().is_ok_and(|room| room > 0)
    }
    fn must_answer(st: &tcp::State, seg: &Segment) -> bool {
        seg.flags & SYN != 0 && !matches!(st.state(), TcpState::SynSent | TcpState::Closed)
    }
    fn no_conv(seg: &Segment) -> Option<Segment> {
        (seg.flags & RST == 0).then(|| Segment {
            sport: 2,
            dport: 1,
            seq: seg.ack,
            ack: seg.seq.wrapping_add(seg.payload.len() as u32),
            flags: RST | ACK,
            window: 0,
            payload: Bytes::from(Vec::new()),
        })
    }
    fn prefix(wrote: &[&[u8]], got: &[Vec<u8>]) -> bool {
        let (wrote, got) = (wrote.concat(), got.concat());
        wrote.starts_with(&got)
    }
    fn show(seg: &Segment) -> String {
        let names = [(SYN, "SYN"), (FIN, "FIN"), (RST, "RST"), (ACK, "ACK")];
        let flags: Vec<&str> = names.iter().filter(|(f, _)| seg.flags & f != 0).map(|(_, n)| *n).collect();
        format!("{} seq {} ack {} len {}", flags.join("|"), seg.seq, seg.ack, seg.payload.len())
    }
}

impl Model for urp::State {
    type Seg = Vec<u8>;
    const NAME: &'static str = "urp";
    const IN_ORDER: bool = true;
    const CLOSE: urp::Input<'static> = urp::Input::Close;

    /// One cell a byte: nine from the dialer.
    fn script(end: usize) -> &'static [&'static [u8]] {
        const SCRIPT: [&[&[u8]]; 2] = [&[b"abc", b"defg", b"hi"], &[b"x"]];
        SCRIPT[end]
    }
    fn dial(_iss: u32, now: Instant) -> (urp::State, Did<Vec<u8>>) {
        (urp::State::new(now), Did::default())
    }
    fn answer(_iss: u32, _seg: &Vec<u8>, _now: Instant) -> Option<(urp::State, Did<Vec<u8>>)> {
        None
    }
    fn called(now: Instant) -> Option<urp::State> {
        Some(urp::State::new(now))
    }
    fn arrives(seg: &Vec<u8>) -> urp::Input<'_> {
        urp::Input::Cell(seg)
    }
    fn writes(data: &[u8]) -> Vec<urp::Input<'_>> {
        data.chunks(1).enumerate().map(|(i, cell)| urp::Input::Send(cell, i + 1 == data.len())).collect()
    }
    /// The cells, each data cell leaving the line at once, and a
    /// rewind's end after its cells.
    fn perform(st: &mut urp::State, acts: urp::Actions, now: Instant, did: &mut Did<Vec<u8>>) {
        for cell in acts.cells {
            if urp::is_data(cell[0]) {
                run::<Self>(st, urp::Input::Left(cell[0] & urp::SEQ_MASK), now, did);
            }
            did.segs.push(cell);
        }
        if acts.resend {
            run::<Self>(st, urp::Input::Resent, now, did);
        }
        did.free = st.closed();
    }
    fn take(st: &mut urp::State, _now: Instant, did: &mut Did<Vec<u8>>) {
        while let Some(got) = st.read() {
            match got {
                Some(msg) => did.got.push(msg),
                None => {
                    did.eof = true;
                    break;
                }
            }
        }
    }
    fn ready(_st: &urp::State) -> bool {
        true
    }
    fn writable(st: &urp::State, data: &[u8]) -> bool {
        st.open(data.len())
    }
    fn must_answer(_st: &urp::State, seg: &Vec<u8>) -> bool {
        seg.first().is_some_and(|ctl| ctl & urp::TYPE_MASK == urp::T_ENQ)
    }
    fn answers(reply: &Vec<u8>) -> bool {
        reply[0] & urp::TYPE_MASK == urp::T_ECHO
    }
    fn no_conv(_seg: &Vec<u8>) -> Option<Vec<u8>> {
        None
    }
    fn prefix(wrote: &[&[u8]], got: &[Vec<u8>]) -> bool {
        got.len() <= wrote.len() && got.iter().zip(wrote).all(|(g, w)| g == w)
    }
    fn show(seg: &Vec<u8>) -> String {
        let names = [
            (urp::T_DATA, "DATA"),
            (urp::T_DATA_EOM, "EOM"),
            (urp::T_ENQ, "ENQ"),
            (urp::T_ACK, "ACK"),
            (urp::T_ECHO, "ECHO"),
            (urp::T_REJ, "REJ"),
            (urp::T_CLOSE, "CLOSE"),
        ];
        let name = names.iter().find(|(t, _)| *t == seg[0] & urp::TYPE_MASK).map_or("?", |(_, n)| *n);
        format!("{name} seq {} len {}", seg[0] & urp::SEQ_MASK, seg.len() - 1)
    }
}

/// One end: its conversation (none before the listener answers, or once
/// it is freed), its timer, and its user's progress through the script.
struct End<C: Model> {
    conv: Option<C>,
    freed: bool,
    timer: Option<Instant>,
    wrote: usize,
    closed: bool,
    got: Vec<Vec<u8>>,
    eof: bool,
}

impl<C: Model> Clone for End<C> {
    fn clone(&self) -> Self {
        End {
            conv: self.conv.clone(),
            freed: self.freed,
            timer: self.timer,
            wrote: self.wrote,
            closed: self.closed,
            got: self.got.clone(),
            eof: self.eof,
        }
    }
}

impl<C: Model> End<C> {
    /// Gone, or never made: Closed as far as teardown goes.
    fn finished(&self) -> bool {
        self.freed || self.conv.is_none()
    }
}

/// Both ends, the segments in flight (to whom, what, and the segment's
/// hash, kept sorted so that the same multiset is one state), the
/// synthetic clock and the faults spent.
struct World<C: Model> {
    ends: [End<C>; 2],
    net: Vec<(usize, u64, C::Seg)>,
    now: Instant,
    faults: u32,
}

impl<C: Model> Clone for World<C> {
    fn clone(&self) -> Self {
        World { ends: self.ends.clone(), net: self.net.clone(), now: self.now, faults: self.faults }
    }
}

/// A `fmt::Write` that hashes what is written to it.
struct HashWriter(Fnv);

impl fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn hash_of(value: impl Debug) -> u64 {
    let mut h = HashWriter(Fnv::default());
    let _ = write!(h, "{value:?}");
    h.0.finish()
}

/// A transition's failure: what went wrong, and the settle that showed
/// it, if one did.
type Violation = (String, Vec<String>);

impl<C: Model> World<C> {
    fn start(t0: Instant) -> World<C> {
        let (st, did) = C::dial(DIALER_ISS, t0);
        let end = |conv| End { conv, freed: false, timer: None, wrote: 0, closed: false, got: Vec::new(), eof: false };
        let mut w = World { ends: [end(Some(st)), end(C::called(t0))], net: Vec::new(), now: t0, faults: 0 };
        w.apply(0, did);
        w
    }

    fn key(&self) -> u64 {
        let mut h = HashWriter(Fnv::default());
        for e in &self.ends {
            let _ = write!(h, "{:?}{}{:?}{}{}{:?}{}", e.conv, e.freed, e.timer, e.wrote, e.closed, e.got, e.eof);
        }
        for (to, seg_hash, _) in &self.net {
            let _ = write!(h, "{to}:{seg_hash};");
        }
        let _ = write!(h, "{:?}{}", self.now, self.faults);
        h.0.finish()
    }

    /// Takes what a step of end `e` did into the world.
    fn apply(&mut self, e: usize, did: Did<C::Seg>) {
        for seg in did.segs {
            self.send(1 - e, seg);
        }
        let end = &mut self.ends[e];
        if let Some(aim) = did.aim {
            end.timer = aim;
        }
        end.got.extend(did.got);
        end.eof |= did.eof;
        if did.free {
            end.freed = true;
            end.conv = None;
            end.timer = None;
        }
    }

    /// Puts a segment in flight: in sending order on an in-order
    /// channel, else in the canonical order of a multiset.
    fn send(&mut self, to: usize, seg: C::Seg) {
        let entry = (to, hash_of(&seg), seg);
        let at = match C::IN_ORDER {
            true => self.net.len(),
            false => self.net.partition_point(|(t, h, _)| (*t, *h) < (entry.0, entry.1)),
        };
        self.net.insert(at, entry);
    }

    /// Delivers a segment to end `to`; an answer owed to a repeated
    /// Sync or SYN that does not come is a violation.
    fn deliver(&mut self, to: usize, seg: C::Seg) -> Result<(), String> {
        let now = self.now;
        let end = &mut self.ends[to];
        match end.conv.as_mut() {
            Some(st) => {
                let owed = C::must_answer(st, &seg);
                let shown = C::show(&seg);
                let did = inputs::<C>(st, vec![C::arrives(&seg)], now);
                if owed && !did.segs.iter().any(C::answers) {
                    return Err(format!("{} did not answer the repeated {shown}", side(to)));
                }
                self.apply(to, did);
            }
            None => match (end.freed, C::answer(LISTENER_ISS, &seg, now)) {
                (false, Some((st, did))) => {
                    end.conv = Some(st);
                    self.apply(to, did);
                }
                _ => {
                    if let Some(reply) = C::no_conv(&seg) {
                        self.send(1 - to, reply);
                    }
                }
            },
        }
        Ok(())
    }

    /// The end whose timer is due first, and when.
    fn next_timer(&self) -> Option<(usize, Instant)> {
        (0..2).filter_map(|e| self.ends[e].timer.map(|t| (e, t))).min_by_key(|&(e, t)| (t, e))
    }

    fn fire(&mut self, e: usize, at: Instant) {
        self.now = self.now.max(at);
        self.ends[e].timer = None;
        let now = self.now;
        if let Some(st) = self.ends[e].conv.as_mut() {
            let did = inputs::<C>(st, vec![C::TIMER], now);
            self.apply(e, did);
        }
    }

    /// Every successor: a label for the trace, and the world after it
    /// (or the violation the transition itself showed).
    fn successors(&self, t0: Instant) -> Vec<(String, Result<World<C>, String>)> {
        let mut out = Vec::new();
        for i in 0..self.net.len() {
            let skip = match C::IN_ORDER {
                // Not the oldest in flight to its end.
                true => self.net[..i].iter().any(|(t, _, _)| *t == self.net[i].0),
                // The same segment twice in flight: one choice.
                false => i > 0 && self.net[i].1 == self.net[i - 1].1 && self.net[i].0 == self.net[i - 1].0,
            };
            if skip {
                continue;
            }
            let (to, _, seg) = &self.net[i];
            let what = format!("{}→{} {}", side(1 - to), side(*to), C::show(seg));
            let mut w = self.clone();
            let (to, _, seg) = w.net.remove(i);
            out.push((format!("deliver {what}"), w.deliver(to, seg).map(|()| w)));
            if self.faults < FAULTS {
                let mut w = self.clone();
                w.faults += 1;
                w.net.remove(i);
                out.push((format!("lose {what}"), Ok(w)));
                let mut w = self.clone();
                w.faults += 1;
                let seg = w.net[i].2.clone();
                out.push((format!("duplicate {what}"), w.deliver(to, seg).map(|()| w)));
            }
        }
        if let Some((e, at)) = self.next_timer() {
            let mut w = self.clone();
            w.fire(e, at);
            out.push((format!("{} timer at +{:?}", side(e), at - t0), Ok(w)));
        }
        for e in 0..2 {
            let end = &self.ends[e];
            let Some(st) = end.conv.as_ref().filter(|st| C::ready(st)) else { continue };
            let script = C::script(e);
            if end.wrote < script.len() && !end.closed && C::writable(st, script[end.wrote]) {
                let mut w = self.clone();
                let now = w.now;
                let end = &mut w.ends[e];
                let did = inputs::<C>(end.conv.as_mut().expect("ready end"), C::writes(script[end.wrote]), now);
                end.wrote += 1;
                w.apply(e, did);
                out.push((format!("{} writes {:?}", side(e), String::from_utf8_lossy(script[self.ends[e].wrote])), Ok(w)));
            }
            if !end.closed {
                let mut w = self.clone();
                let now = w.now;
                let end = &mut w.ends[e];
                end.closed = true;
                let did = inputs::<C>(end.conv.as_mut().expect("ready end"), vec![C::CLOSE], now);
                w.apply(e, did);
                out.push((format!("{} closes", side(e)), Ok(w)));
            }
        }
        out
    }

    /// Safety: each end has read a prefix of what the other wrote.
    fn safe(&self) -> Result<(), String> {
        for e in 0..2 {
            let wrote = &C::script(1 - e)[..self.ends[1 - e].wrote];
            if !C::prefix(wrote, &self.ends[e].got) {
                return Err(format!("{} read {:?}, not a prefix of {:?}", side(e), self.ends[e].got, wrote));
            }
        }
        Ok(())
    }

    /// Whether both users have closed (a freed end's user has nothing
    /// left to close).
    fn both_closed(&self) -> bool {
        self.ends.iter().all(|e| e.closed || e.freed)
    }

    fn all_delivered(&self) -> bool {
        (0..2).all(|e| {
            let wrote = &C::script(1 - e)[..self.ends[1 - e].wrote];
            wrote.concat() == self.ends[e].got.concat()
        })
    }

    /// One lossless transition: the first segment in flight (in the
    /// channel's canonical order) delivered, or else the earliest timer
    /// fired.
    fn settle_step(&mut self, t0: Instant) -> Option<Result<String, String>> {
        if !self.net.is_empty() {
            let (to, _, seg) = self.net.remove(0);
            let label = format!("deliver {}→{} {}", side(1 - to), side(to), C::show(&seg));
            return Some(self.deliver(to, seg).map(|()| label));
        }
        let (e, at) = self.next_timer()?;
        self.fire(e, at);
        Some(Ok(format!("{} timer at +{:?}", side(e), at - t0)))
    }
}

fn side(e: usize) -> &'static str {
    ["dialer", "listener"][e]
}

/// A settle, from `w`, to `done`: the states it passed through, or the
/// violation with its transitions. States known to settle are not
/// settled again.
fn settle<C: Model>(
    w: &World<C>,
    t0: Instant,
    done: fn(&World<C>) -> bool,
    known: &mut HashSet<u64>,
) -> Result<(), Violation> {
    let (mut w, mut trail, mut passed) = (w.clone(), Vec::new(), Vec::new());
    for _ in 0..SETTLE {
        let key = w.key();
        if done(&w) || known.contains(&key) {
            known.extend(passed);
            return Ok(());
        }
        passed.push(key);
        match w.settle_step(t0) {
            Some(Ok(label)) => trail.push(label),
            Some(Err(v)) => return Err((v, trail)),
            None => return Err(("nothing in flight and no timer armed".to_string(), trail)),
        }
    }
    Err((format!("still not done after {SETTLE} transitions"), trail))
}

/// What a search found: the states it saw, and the first violation
/// with the shortest trace to it.
struct Outcome {
    states: usize,
    violation: Option<(Vec<String>, Violation)>,
}

fn explore<C: Model>(depth: usize) -> Outcome {
    let t0 = time::real_now();
    let start = World::<C>::start(t0);
    // Each state's parent and the transition from it, for the trace.
    let mut seen: HashMap<u64, (u64, String)> = HashMap::new();
    seen.insert(start.key(), (0, String::new()));
    let (mut delivered, mut torn_down) = (HashSet::new(), HashSet::new());
    let trace = |seen: &HashMap<u64, (u64, String)>, mut key: u64| {
        let mut steps = Vec::new();
        while let Some((parent, label)) = seen.get(&key).filter(|(_, l)| !l.is_empty()) {
            steps.push(label.clone());
            key = *parent;
        }
        steps.reverse();
        steps
    };
    let mut frontier = vec![start];
    for _ in 0..depth {
        let mut next = Vec::new();
        for w in &frontier {
            let parent = w.key();
            for (label, after) in w.successors(t0) {
                let w2 = match after {
                    Ok(w2) => w2,
                    Err(v) => {
                        let mut steps = trace(&seen, parent);
                        steps.push(label);
                        return Outcome { states: seen.len(), violation: Some((steps, (v, Vec::new()))) };
                    }
                };
                let key = w2.key();
                if seen.contains_key(&key) {
                    continue;
                }
                seen.insert(key, (parent, label));
                let checked = w2.safe().map_err(|v| (v, Vec::new())).and_then(|()| {
                    if w2.both_closed() {
                        settle(&w2, t0, |w| w.ends.iter().all(End::finished), &mut torn_down)
                    } else if !w2.ends.iter().any(|e| e.closed || e.freed) {
                        settle(&w2, t0, World::all_delivered, &mut delivered)
                    } else {
                        Ok(())
                    }
                });
                if let Err(v) = checked {
                    return Outcome { states: seen.len(), violation: Some((trace(&seen, key), v)) };
                }
                next.push(w2);
            }
        }
        frontier = next;
    }
    Outcome { states: seen.len(), violation: None }
}

fn check<C: Model>() {
    let t = time::real_now();
    let out = explore::<C>(DEPTH);
    let took = t.elapsed();
    println!("{}: {} states to depth {DEPTH}, {FAULTS} fault, in {took:.2?}", C::NAME, out.states);
    if let Some((steps, (what, settled))) = out.violation {
        let mut report = format!("{}: {what}\n  after:\n", C::NAME);
        for (n, s) in steps.iter().enumerate() {
            let _ = writeln!(report, "    {:>2}. {s}", n + 1);
        }
        if !settled.is_empty() {
            let _ = writeln!(report, "  then, settling losslessly:");
            for s in settled.iter().take(40) {
                let _ = writeln!(report, "        {s}");
            }
            if settled.len() > 40 {
                let _ = writeln!(report, "        ... and {} more", settled.len() - 40);
            }
        }
        panic!("{report}");
    }
    assert!(took < Duration::from_secs(45), "{}: the search took {took:?}", C::NAME);
}

#[test]
fn il_cores_keep_their_promises() {
    check::<il::State>();
}

#[test]
fn tcp_cores_keep_their_promises() {
    check::<tcp::State>();
}

#[test]
fn urp_cores_keep_their_promises() {
    check::<urp::State>();
}
