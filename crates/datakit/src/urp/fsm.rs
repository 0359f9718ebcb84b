//! URP's core: the protocol as a state machine. Every change to a
//! conversation's state is one call of [`State::step`](Core::step),
//! which holds no lock, reads no clock of its own (it is handed the
//! time, or the shell's clock to read once) and sends nothing. It
//! returns what the change asks of the world — cells to send, where the
//! prober's timer is to be, whom to wake — and the one shell
//! (`support::step::Shell`, in [`UrpConn`](super::UrpConn)) does that
//! once it has dropped the conversation lock. So the two ends of a
//! conversation can be explored with no circuit, wheel or clock
//! (`tests/protocol_checker.rs`).

use plan9_support::step::{Core, Duration, Instant, Now, Out, Wake};
use std::collections::VecDeque;

/// Outstanding-cell window; 7 so sequence arithmetic mod 8 stays
/// unambiguous.
pub const URP_WINDOW: usize = 7;

/// A data cell; with EOM, the last of its message.
pub const T_DATA: u8 = 0x00;
pub const T_DATA_EOM: u8 = 0x08;
/// A probe: which cell does the receiver expect next?
pub const T_ENQ: u8 = 0x10;
/// The receiver's volunteered acknowledgment.
pub const T_ACK: u8 = 0x18;
/// The answer to an ENQ: the cell the receiver expects next.
pub const T_ECHO: u8 = 0x20;
/// An out-of-sequence arrival: resend from this cell.
pub const T_REJ: u8 = 0x30;
pub const T_CLOSE: u8 = 0x40;
/// A cell's control byte: the type in the high bits, the sequence
/// number in the low three.
pub const TYPE_MASK: u8 = 0x78;
pub const SEQ_MASK: u8 = 0x07;

/// How long cells may sit unacknowledged, with no acknowledgment
/// arriving, before the prober sends an ENQ; the k-th ENQ in a row that
/// nothing answers waits `ENQ_TIMEOUT × (1 + k/8)` for its answer.
const ENQ_TIMEOUT: Duration = Duration::from_millis(40);
/// The repair interval: at most one REJ, and one rewind, per interval.
const REPAIR: Duration = Duration::from_millis(15);
/// Unanswered ENQs in a row after which the peer is given up: about
/// 104 s of silence.
const MAX_PROBES: u32 = 200;
/// The receiver volunteers an ACK after this many data cells, so the
/// sender's window drains during bulk transfers without an ENQ.
const ACK_EVERY: u8 = 4;

/// Whether a control byte is a data cell's.
pub fn is_data(ctl: u8) -> bool {
    matches!(ctl & TYPE_MASK, T_DATA | T_DATA_EOM)
}

/// One unacked cell.
#[derive(Clone, Debug)]
struct Cell {
    seq: u8,
    bytes: Vec<u8>,
    /// How many ENQs had been sent when the cell last left the line;
    /// `None` while it is queued for or crossing the line.
    left: Option<u64>,
}

/// One conversation's state, both directions.
#[derive(Clone, Debug)]
pub struct State {
    /// Next sequence number to assign.
    next_seq: u8,
    /// Unacked cells, oldest first.
    unacked: VecDeque<Cell>,
    /// ENQs sent: an ECHO answers the last of them.
    enqs: u64,
    /// ENQs sent since the last news: an ACK, an ECHO or a rewind.
    silent: u32,
    /// When the last news came (or a cell went into an empty window),
    /// or the last unanswered ENQ went.
    quiet_since: Instant,
    /// Where the prober is to resend from, until it starts.
    rewind: Option<u8>,
    /// The prober is resending a rewound window: new cells wait.
    resending: bool,
    /// When we last rewound, to damp retransmission storms.
    last_rewind: Option<Instant>,
    /// The receiving side: the sequence number expected next, the
    /// message being assembled and those assembled.
    expected: u8,
    assembly: Vec<u8>,
    messages: VecDeque<Vec<u8>>,
    cells_since_ack: u8,
    /// When we last rejected, to damp REJ storms.
    last_rej: Option<Instant>,
    /// Both directions are over: hung up, or the peer given up.
    closed: bool,
}

/// What happens to a conversation.
pub enum Input<'a> {
    /// A cell came.
    Cell(&'a [u8]),
    /// The circuit hung up.
    Hangup,
    /// Its user sends a cell of a message, the last if the flag is set;
    /// the shell sends only while [`State::open`] says so.
    Send(&'a [u8], bool),
    /// A data cell has left the line.
    Left(u8),
    /// A rewind's cells have all left the line.
    Resent,
    /// The prober's timer fired.
    Timer,
    /// Its user hangs up.
    Close,
}

/// What a step asks of the shell, in the order the shell does it.
#[derive(Debug, Default)]
pub struct Actions {
    /// Wake readers (a message is queued, or the conversation is over),
    /// writers (cells were acknowledged, a rewind has gone out, or the
    /// conversation is over) and the readiness hook, before the cells
    /// leave.
    pub wake: Wake,
    /// Cells to send; each data cell's leaving the line is an input of
    /// its own (`Left`).
    pub cells: Out<Vec<u8>>,
    /// The data cells among `cells` are a rewind's: `Resent` follows
    /// them.
    pub resend: bool,
    /// Where the prober's timer is to be (`None` disarms it).
    pub deadline: Option<Instant>,
}

impl State {
    /// A conversation at `now`: nothing sent, nothing received.
    pub fn new(now: Instant) -> State {
        State {
            next_seq: 0,
            unacked: VecDeque::new(),
            enqs: 0,
            silent: 0,
            quiet_since: now,
            rewind: None,
            resending: false,
            last_rewind: None,
            expected: 0,
            assembly: Vec::new(),
            messages: VecDeque::new(),
            cells_since_ack: 0,
            last_rej: None,
            closed: false,
        }
    }

    /// Whether a send of `cells` cells would not wait: they fit in the
    /// window and no rewind is pending or going out, or the conversation
    /// is over and the send fails at once.
    pub fn open(&self, cells: usize) -> bool {
        self.closed || (self.rewind.is_none() && !self.resending && self.unacked.len() + cells <= URP_WINDOW)
    }

    /// Whether the conversation is over.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// How many cells sent are unacknowledged.
    pub fn unacked(&self) -> usize {
        self.unacked.len()
    }

    /// What a reader can have without waiting: the next message,
    /// `Some(None)` at the end, `None` while there is neither. A read
    /// frees no window, so it is no input of [`step`].
    pub fn read(&mut self) -> Option<Option<Vec<u8>>> {
        match self.messages.pop_front() {
            Some(msg) => Some(Some(msg)),
            None => self.closed.then_some(None),
        }
    }

    /// News puts off the next probe and ends a silence.
    fn news(&mut self, now: Instant) {
        self.quiet_since = now;
        self.silent = 0;
    }

    /// When the prober is next to send an ENQ, while cells are
    /// unacknowledged: [`ENQ_TIMEOUT`] into the quiet, and longer after
    /// each eight unanswered ENQs.
    fn probe_due(&self) -> Instant {
        self.quiet_since + ENQ_TIMEOUT * (1 + self.silent.saturating_sub(1) / 8)
    }
}

/// URP's core, as its shell, [`UrpConn`](super::UrpConn), drives it.
impl Core for State {
    type Input<'a> = Input<'a>;
    type Actions = Actions;
    const CLASS: &'static str = "datakit.urp.conn";
    const TIMER: Input<'static> = Input::Timer;
    /// The prober's shard is the one after the input's: a rewind
    /// resends up to a window of full cells, which must not hold up the
    /// input.
    const TIMER_SHARD: u64 = 1;

    /// A conversation that is over takes nothing more.
    fn step(&mut self, input: Input, mut now: Now) -> Actions {
        let st = self;
        let mut a = Actions::default();
        if st.closed {
            return a;
        }
        match input {
            Input::Cell(cell) => cell_in(st, cell, &mut now, &mut a),
            Input::Hangup => shut(st, &mut a),
            Input::Send(chunk, eom) => {
                let seq = st.next_seq;
                st.next_seq = (seq + 1) & SEQ_MASK;
                let mut cell = Vec::with_capacity(1 + chunk.len());
                cell.push(if eom { T_DATA_EOM } else { T_DATA } | seq);
                cell.extend_from_slice(chunk);
                st.unacked.push_back(Cell { seq, bytes: cell.clone(), left: None });
                if st.unacked.len() == 1 {
                    // Something is outstanding: the quiet starts now.
                    st.news(now.get());
                }
                a.cells.push(cell);
            }
            Input::Left(seq) => {
                let enqs = st.enqs;
                if let Some(c) = st.unacked.iter_mut().find(|c| c.seq == seq) {
                    c.left = Some(enqs);
                }
            }
            Input::Resent => {
                st.resending = false;
                st.news(now.get());
                a.wake.writable = true;
                a.wake.hook = st.open(1);
            }
            Input::Timer => timer(st, &mut now, &mut a),
            Input::Close => {
                a.cells.push(vec![T_CLOSE]);
                shut(st, &mut a);
            }
        }
        a.deadline = if st.closed || st.resending {
            None
        } else if st.rewind.is_some() {
            Some(now.get())
        } else {
            (!st.unacked.is_empty()).then(|| st.probe_due())
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

/// Marks both directions over and wakes everyone.
fn shut(st: &mut State, a: &mut Actions) {
    st.closed = true;
    (a.wake.readable, a.wake.writable, a.wake.hook) = (true, true, true);
}

/// The prober: it resends a rewound window, so the input, which judges
/// loss, never waits on the line; and if cells sit unacknowledged
/// through a quiet, it sends an ENQ, whose ECHO repairs. It is the only
/// sender of either, and after [`MAX_PROBES`] ENQs in a row that nothing
/// answers it gives the peer up.
fn timer(st: &mut State, now: &mut Now, a: &mut Actions) {
    if let Some(seq) = st.rewind.take() {
        st.resending = true;
        a.resend = true;
        for c in st.unacked.iter_mut().skip_while(|c| c.seq != seq) {
            c.left = None;
            a.cells.push(c.bytes.clone());
        }
        return;
    }
    if st.unacked.is_empty() || now.get() < st.probe_due() {
        return;
    }
    if st.silent == MAX_PROBES {
        return shut(st, a);
    }
    // An ENQ on behalf of every cell that has left the line: the ECHO
    // that answers it rewinds to the first of them still missing.
    st.silent += 1;
    st.enqs += 1;
    st.quiet_since = now.get();
    a.cells.push(vec![T_ENQ | st.next_seq]);
}

/// One cell from the peer.
fn cell_in(st: &mut State, cell: &[u8], now: &mut Now, a: &mut Actions) {
    let Some((&ctl, payload)) = cell.split_first() else { return };
    let seq = ctl & SEQ_MASK;
    match ctl & TYPE_MASK {
        T_DATA => data(st, seq, false, payload, now, a),
        T_DATA_EOM => data(st, seq, true, payload, now, a),
        // Tell the sender what we expect next.
        T_ENQ => a.cells.push(vec![T_ECHO | st.expected]),
        typ @ (T_ACK | T_ECHO) => acked(st, seq, typ == T_ECHO, now.get(), a),
        // The receiver is missing from `seq`.
        T_REJ => rewind_from(st, seq, now.get()),
        T_CLOSE => shut(st, a),
        _ => {}
    }
}

/// A cumulative acknowledgment: the receiver expects `seq` next, so
/// every queued cell before it (in queue order) is done. A `seq` that is
/// neither queued nor the next to be assigned is stale and acknowledges
/// nothing. An ECHO answers the last ENQ as well: a cell that left the
/// line before that ENQ and is still missing was lost. An ACK only
/// acknowledges.
fn acked(st: &mut State, seq: u8, echo: bool, now: Instant, a: &mut Actions) {
    let (was_open, unacked) = (st.open(1), st.unacked.len());
    if let Some(k) = st.unacked.iter().position(|c| c.seq == seq) {
        st.unacked.drain(..k);
    } else if seq == st.next_seq {
        st.unacked.clear();
    }
    let enqs = st.enqs;
    let lost = echo && st.unacked.front().is_some_and(|c| c.seq == seq && c.left.is_some_and(|n| n < enqs));
    st.news(now);
    if lost {
        rewind_from(st, seq, now);
    }
    a.wake.writable = st.unacked.len() < unacked;
    a.wake.hook = !was_open && st.open(1);
}

/// Has the prober resend from `seq` — unless `seq` is not outstanding or
/// has not left the line: echoes and REJs arrive late when the gap was
/// already repaired, mod-8 arithmetic cannot order a stale value, and a
/// cell still crossing cannot have been lost. One that comes while a
/// rewind is going out waits for the ENQ after it, and there is one
/// rewind per repair interval: a storm of REJs must not multiply
/// duplicates — that is the §3 congestion lesson.
fn rewind_from(st: &mut State, seq: u8, now: Instant) {
    if st.resending || !st.unacked.iter().any(|c| c.seq == seq && c.left.is_some()) {
        return;
    }
    if st.last_rewind.is_some_and(|at| now.saturating_duration_since(at) < REPAIR) {
        return;
    }
    st.last_rewind = Some(now);
    st.rewind = Some(seq);
    st.news(now);
}

/// One data cell from the peer.
fn data(st: &mut State, seq: u8, eom: bool, payload: &[u8], now: &mut Now, a: &mut Actions) {
    if seq != st.expected {
        // Out of sequence: ask for a rewind (Datakit circuits do not
        // reorder, so this means loss) — but at most one REJ per repair
        // interval, or duplicates breed duplicates.
        let now = now.get();
        if st.last_rej.is_none_or(|at| now.saturating_duration_since(at) >= REPAIR) {
            st.last_rej = Some(now);
            a.cells.push(vec![T_REJ | st.expected]);
        }
        return;
    }
    st.expected = (st.expected + 1) & SEQ_MASK;
    st.assembly.extend_from_slice(payload);
    st.cells_since_ack += 1;
    // Volunteer an ACK every few cells so bulk windows drain, but not on
    // every message end — a lone ACK ahead of the reply data would
    // serialize on the line and inflate round trips. Straggler
    // acknowledgments are the prober's job.
    if st.cells_since_ack >= ACK_EVERY {
        st.cells_since_ack = 0;
        a.cells.push(vec![T_ACK | st.expected]);
    }
    if eom {
        st.messages.push_back(std::mem::take(&mut st.assembly));
        (a.wake.readable, a.wake.hook) = (true, true);
    }
}
