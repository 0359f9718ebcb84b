//! URP: the Universal Receiver Protocol, Datakit's error-recovery and
//! flow-control layer.
//!
//! URP moves *cells* over a circuit. Each data cell carries a 3-bit
//! sequence number; at most [`URP_WINDOW`] cells are outstanding. The
//! receiver volunteers an **ACK** every few cells. The sender probes
//! with **ENQ** cells; the receiver answers with **ECHO** carrying the
//! sequence number it expects next, and the sender rewinds and
//! retransmits from there (go-back). Out-of-sequence arrivals elicit a
//! **REJ**. The last cell of a user message is flagged **EOM**, so
//! message boundaries survive — the property 9P demands.
//!
//! A circuit delivers in order, so an ECHO speaks for every cell that
//! left the line before its ENQ did. Nothing the receiver says can mean
//! that a cell still queued for or crossing the line was lost. On a
//! paced Datakit line a full cell is 8 ms of transmission: a rewind on
//! such news sends a duplicate, the duplicate's REJ names the cell
//! crossing behind it, and so on, one duplicate per cell for as long as
//! the transfer runs. So each unacked cell records when it left the
//! line (`Cell::left`): an ECHO rewinds only to a cell that left
//! before its ENQ, a REJ only to a cell that has left the line, and an
//! ACK never. The prober sends what a rewind resends, so the input
//! process that judges loss never waits on the line.

use plan9_support::sync::{Condvar, Mutex};
use plan9_support::{time, vtime};
use plan9_netsim::fabric::{Circuit, DatakitLine, IncomingCall};
use plan9_netsim::wire::RecvOutcome;
use plan9_netlog::{Counter, Registry};
use plan9_ninep::NineError;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outstanding-cell window; 7 so sequence arithmetic mod 8 stays
/// unambiguous.
pub const URP_WINDOW: usize = 7;

/// Cell control-byte layout: low 3 bits sequence, high bits type.
const T_DATA: u8 = 0x00;
const T_DATA_EOM: u8 = 0x08;
const T_ENQ: u8 = 0x10;
const T_ACK: u8 = 0x18;
const T_ECHO: u8 = 0x20;
const T_REJ: u8 = 0x30;
const T_CLOSE: u8 = 0x40;
const TYPE_MASK: u8 = 0x78;
const SEQ_MASK: u8 = 0x07;

/// How long cells may sit unacknowledged, with no acknowledgment
/// arriving, before the sender probes.
const ENQ_TIMEOUT: Duration = Duration::from_millis(40);
const MAX_PROBES: u32 = 200;
/// The receiver volunteers an ACK after this many data cells, so the
/// sender's window drains during bulk transfers without an ENQ.
const ACK_EVERY: u8 = 4;

/// Traffic counters: a conversation's own, or one set shared by every
/// conversation of a Datakit line (`/net/dk/stats`).
pub struct UrpStats {
    /// Data cells sent (first transmissions).
    pub tx_cells: Counter,
    /// Data cells retransmitted after a rewind.
    pub retransmit_cells: Counter,
    /// ENQ probes sent.
    pub enqs: Counter,
    /// REJ cells sent for out-of-sequence arrivals.
    pub rejs: Counter,
}

impl UrpStats {
    /// The `urp.*` cells of `reg`, the table that shows them.
    pub fn new(reg: &Registry) -> UrpStats {
        UrpStats {
            tx_cells: reg.counter("urp.tx"),
            retransmit_cells: reg.counter("urp.rexmit"),
            enqs: reg.counter("urp.enq"),
            rejs: reg.counter("urp.rej"),
        }
    }
}

/// One unacked cell.
struct Cell {
    seq: u8,
    bytes: Vec<u8>,
    /// How many ENQs had been sent when the cell last left the line;
    /// `None` while it is queued for or crossing the line.
    left: Option<u64>,
}

struct SendState {
    /// Next sequence number to assign.
    next_seq: u8,
    /// Unacked cells, oldest first.
    unacked: VecDeque<Cell>,
    /// Set when an ACK or ECHO arrives.
    echo_seen: Option<u8>,
    /// ENQs sent: an ECHO answers the last of them.
    enqs: u64,
    /// Where the prober is to resend from, until it has.
    rewind: Option<u8>,
    /// When we last rewound, to damp retransmission storms.
    last_rewind: Option<Instant>,
    closed: bool,
}

impl SendState {
    /// Applies a cumulative acknowledgment: the receiver expects `e`
    /// next, so every queued cell strictly before `e` (in queue order) is
    /// done. An `e` that is neither in the queue nor equal to the next
    /// sequence to be assigned is stale and ignored.
    fn ack_upto(&mut self, e: u8) {
        if let Some(k) = self.unacked.iter().position(|c| c.seq == e) {
            self.unacked.drain(..k);
        } else if e == self.next_seq {
            self.unacked.clear();
        }
    }

    /// Records that cell `seq`, if still unacked, has left the line.
    fn left_line(&mut self, seq: u8) {
        let enqs = self.enqs;
        if let Some(c) = self.unacked.iter_mut().find(|c| c.seq == seq) {
            c.left = Some(enqs);
        }
    }
}

struct RecvState {
    expected: u8,
    assembly: Vec<u8>,
    messages: VecDeque<Vec<u8>>,
    hungup: bool,
    cells_since_ack: u8,
    /// When we last rejected, to damp REJ storms.
    last_rej: Option<Instant>,
}

/// One end of a URP conversation.
pub struct UrpConn {
    circuit: Arc<Circuit>,
    send: Mutex<SendState>,
    echo_cv: Condvar,
    recv: Mutex<RecvState>,
    recv_cv: Condvar,
    /// Traffic counters.
    pub stats: Arc<UrpStats>,
    /// Per-cell payload capacity on this circuit.
    cell_payload: usize,
}

impl UrpConn {
    /// Wraps an established circuit in URP and starts the receive
    /// process.
    pub fn new(circuit: Circuit) -> Arc<UrpConn> {
        UrpConn::with_stats(circuit, Arc::new(UrpStats::new(&Registry::new())))
    }

    /// As [`UrpConn::new`], counting into `stats`, which the caller
    /// shares among the conversations of one line.
    pub fn with_stats(circuit: Circuit, stats: Arc<UrpStats>) -> Arc<UrpConn> {
        let cell_payload = circuit.mtu().saturating_sub(1).max(16);
        let conn = Arc::new(UrpConn {
            circuit: Arc::new(circuit),
            send: Mutex::new(SendState {
                next_seq: 0,
                unacked: VecDeque::new(),
                echo_seen: None,
                enqs: 0,
                rewind: None,
                last_rewind: None,
                closed: false,
            }),
            echo_cv: Condvar::new(),
            recv: Mutex::new(RecvState {
                expected: 0,
                assembly: Vec::new(),
                messages: VecDeque::new(),
                hungup: false,
                cells_since_ack: 0,
                last_rej: None,
            }),
            recv_cv: Condvar::new(),
            stats,
            cell_payload,
        });
        let rx = Arc::clone(&conn);
        vtime::kproc("urp-rx", move || rx.input_loop()).expect("spawn urp rx");
        let prober = Arc::clone(&conn);
        vtime::kproc("urp-probe", move || prober.probe_loop()).expect("spawn urp prober");
        conn
    }

    /// The enquiry kernel process: if cells sit unacknowledged for
    /// [`ENQ_TIMEOUT`] with no acknowledgment arriving, probe with ENQ;
    /// the ECHO reply repairs. It is also what resends a rewound window,
    /// so the input process, which judges loss, never waits on the line
    /// and judges on news as fresh as the circuit brings it. With nothing
    /// outstanding it sleeps until a cell is sent.
    fn probe_loop(self: Arc<Self>) {
        let mut send = self.send.lock();
        while !send.closed {
            if let Some(seq) = send.rewind {
                let cells: Vec<(u8, Vec<u8>)> = send
                    .unacked
                    .iter_mut()
                    .skip_while(|c| c.seq != seq)
                    .map(|c| {
                        c.left = None;
                        (c.seq, c.bytes.clone())
                    })
                    .collect();
                self.stats.retransmit_cells.add(cells.len() as u64);
                drop(send);
                for (seq, c) in cells {
                    let _ = self.circuit.send(&c);
                    self.send.lock().left_line(seq);
                }
                send = self.send.lock();
                send.rewind = None;
                self.echo_cv.notify_all();
            } else if send.unacked.is_empty() {
                self.echo_cv.wait(&mut send);
            } else if self
                .echo_cv
                .wait_until(&mut send, time::now() + ENQ_TIMEOUT)
                .timed_out()
                && !send.unacked.is_empty()
            {
                drop(send);
                let _ = self.enquire();
                send = self.send.lock();
            }
        }
    }

    /// Sends an ENQ on behalf of every cell that has left the line: the
    /// ECHO that answers it rewinds to the first of them still missing.
    fn enquire(&self) -> crate::Result<()> {
        let next = {
            let mut send = self.send.lock();
            send.enqs += 1;
            send.next_seq
        };
        self.stats.enqs.inc();
        self.circuit.send(&[T_ENQ | next]).map_err(NineError::new)
    }

    /// The local Datakit address.
    pub fn local_addr(&self) -> String {
        self.circuit.local_addr().to_string()
    }

    /// The remote Datakit address.
    pub fn remote_addr(&self) -> String {
        self.circuit.remote_addr().to_string()
    }

    /// A status line for the `status` file.
    pub fn status_string(&self) -> String {
        let send = self.send.lock();
        let state = if send.closed { "Hungup" } else { "Established" };
        format!(
            "{} unacked {} window {}",
            state,
            send.unacked.len(),
            URP_WINDOW
        )
    }

    /// The receive kernel process: dispatches cells from the circuit.
    fn input_loop(self: Arc<Self>) {
        loop {
            let cell = match self.circuit.recv_timeout(Duration::from_millis(50)) {
                RecvOutcome::Frame(f) => f,
                RecvOutcome::TimedOut => {
                    if self.send.lock().closed && self.recv.lock().hungup {
                        return;
                    }
                    continue;
                }
                RecvOutcome::Hangup => return self.shut(),
            };
            let Some(&ctl) = cell.first() else { continue };
            let seq = ctl & SEQ_MASK;
            match ctl & TYPE_MASK {
                T_DATA | T_DATA_EOM => self.accept_data(seq, ctl & TYPE_MASK == T_DATA_EOM, &cell[1..]),
                T_ENQ => {
                    // Tell the sender what we expect next.
                    let expected = self.recv.lock().expected;
                    let _ = self.circuit.send(&[T_ECHO | expected]);
                }
                T_ACK | T_ECHO => {
                    let lost = {
                        let mut send = self.send.lock();
                        send.echo_seen = Some(seq);
                        send.ack_upto(seq);
                        // An ECHO answers the last ENQ: a cell that left
                        // the line before it and is still missing was
                        // lost. An ACK only acknowledges.
                        let enqs = send.enqs;
                        let before = |c: &Cell| c.seq == seq && c.left.is_some_and(|n| n < enqs);
                        self.echo_cv.notify_all();
                        ctl & TYPE_MASK == T_ECHO && send.unacked.front().is_some_and(before)
                    };
                    if lost {
                        self.rewind_from(seq);
                    }
                }
                T_REJ => {
                    // Receiver is missing from `seq`: rewind.
                    self.rewind_from(seq);
                }
                T_CLOSE => return self.shut(),
                _ => {}
            }
        }
    }

    fn accept_data(&self, seq: u8, eom: bool, payload: &[u8]) {
        let mut recv = self.recv.lock();
        if seq != recv.expected {
            // Out of sequence: ask for a rewind (Datakit circuits do not
            // reorder, so this means loss) — but at most one REJ per
            // repair interval, or duplicates breed duplicates.
            let damped = recv
                .last_rej
                .map(|at| time::now().saturating_duration_since(at) < Duration::from_millis(15))
                .unwrap_or(false);
            if !damped {
                recv.last_rej = Some(time::now());
                self.stats.rejs.inc();
                let expected = recv.expected;
                drop(recv);
                let _ = self.circuit.send(&[T_REJ | expected]);
            }
            return;
        }
        recv.expected = (recv.expected + 1) & SEQ_MASK;
        recv.assembly.extend_from_slice(payload);
        recv.cells_since_ack += 1;
        // Volunteer an ACK every few cells so bulk windows drain, but
        // not on every message end — a lone ACK ahead of the reply data
        // would serialize on the line and inflate round trips. Straggler
        // acknowledgments are the prober's job.
        let volunteer = recv.cells_since_ack >= ACK_EVERY;
        if volunteer {
            recv.cells_since_ack = 0;
        }
        let expected = recv.expected;
        if eom {
            let msg = std::mem::take(&mut recv.assembly);
            recv.messages.push_back(msg);
            self.recv_cv.notify_all();
        }
        drop(recv);
        if volunteer {
            let _ = self.circuit.send(&[T_ACK | expected]);
        }
    }

    fn rewind_from(&self, seq: u8) {
        let mut send = self.send.lock();
        // Ignore the request unless `seq` is outstanding and has left
        // the line: echoes and REJs arrive late when the gap was already
        // repaired, mod-8 arithmetic cannot order a stale value, and a
        // cell still crossing cannot have been lost.
        if !send.unacked.iter().any(|c| c.seq == seq && c.left.is_some()) {
            return;
        }
        // Damping: one rewind per repair interval. A storm of REJs must
        // not multiply duplicates — that is the §3 congestion lesson.
        if let Some(at) = send.last_rewind {
            if time::now().saturating_duration_since(at) < Duration::from_millis(15) {
                return;
            }
        }
        send.last_rewind = Some(time::now());
        send.rewind = Some(seq);
        self.echo_cv.notify_all();
    }

    /// Sends one message, splitting it into cells and recovering from
    /// loss; blocks until the whole message is acknowledged.
    pub fn send(&self, msg: &[u8]) -> crate::Result<()> {
        // Empty messages still need one (empty) EOM cell.
        let chunks: Vec<&[u8]> = if msg.is_empty() {
            vec![&msg[0..0]]
        } else {
            msg.chunks(self.cell_payload).collect()
        };
        let n = chunks.len();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let eom = i + 1 == n;
            // Wait for a window slot, and for the prober to finish a
            // rewind: a new cell between resent ones is out of sequence.
            {
                let mut send = self.send.lock();
                loop {
                    if send.closed {
                        break;
                    } else if send.rewind.is_some() {
                        self.echo_cv.wait(&mut send);
                    } else if send.unacked.len() >= URP_WINDOW {
                        // Probe and wait: the window opens when an ACK lands.
                        drop(send);
                        self.probe_and_wait(false)?;
                        send = self.send.lock();
                    } else {
                        break;
                    }
                }
                if send.closed {
                    return Err(NineError::new("hungup"));
                }
                let seq = send.next_seq;
                send.next_seq = (send.next_seq + 1) & SEQ_MASK;
                let mut cell = Vec::with_capacity(1 + chunk.len());
                cell.push(if eom { T_DATA_EOM } else { T_DATA } | seq);
                cell.extend_from_slice(chunk);
                send.unacked.push_back(Cell { seq, bytes: cell.clone(), left: None });
                if send.unacked.len() == 1 {
                    // Wake the prober: something is outstanding.
                    self.echo_cv.notify_all();
                }
                self.stats.tx_cells.inc();
                drop(send);
                self.circuit.send(&cell).map_err(NineError::new)?;
                self.send.lock().left_line(seq);
            }
        }
        // The message is on the wire; the probe process and the
        // receiver's volunteered ACKs finish the acknowledgment
        // asynchronously, so back-to-back sends pipeline.
        Ok(())
    }

    /// Blocks until every sent cell has been acknowledged (used by
    /// close and by tests that need a quiescent line).
    pub fn drain(&self) -> crate::Result<()> {
        for _ in 0..MAX_PROBES {
            {
                let send = self.send.lock();
                if send.unacked.is_empty() {
                    return Ok(());
                }
                if send.closed {
                    return Err(NineError::new("hungup"));
                }
            }
            self.probe_and_wait(true)?;
        }
        Err(NineError::new("urp: drain failed"))
    }

    /// Probes with ENQ until there is progress: room in the window, or
    /// a fully drained queue when `until_empty` is set. Only consecutive
    /// *silent* rounds count against the retry bound.
    fn probe_and_wait(&self, until_empty: bool) -> crate::Result<()> {
        let done = |send: &SendState| {
            if until_empty {
                send.unacked.is_empty()
            } else {
                send.unacked.len() < URP_WINDOW
            }
        };
        let mut silent_rounds = 0u32;
        while silent_rounds < MAX_PROBES {
            {
                let send = self.send.lock();
                if send.closed {
                    return Err(NineError::new("hungup"));
                }
                if done(&send) {
                    return Ok(());
                }
            }
            self.enquire()?;
            let deadline = time::now() + ENQ_TIMEOUT * (1 + silent_rounds / 8);
            let mut send = self.send.lock();
            send.echo_seen = None;
            loop {
                if send.closed || done(&send) {
                    return Ok(());
                }
                if let Some(_echo) = send.echo_seen.take() {
                    // Progress or repair is the input process's business
                    // (the rewind lives in the ECHO handler); any ACK or
                    // ECHO resets the silence counter.
                    silent_rounds = 0;
                    break;
                }
                if self.echo_cv.wait_until(&mut send, deadline).timed_out() {
                    silent_rounds += 1;
                    break;
                }
            }
        }
        Err(NineError::new("urp: too many retries"))
    }

    /// Blocks for the next message; `None` is EOF/hangup.
    pub fn recv(&self) -> Option<Vec<u8>> {
        let mut recv = self.recv.lock();
        loop {
            if let Some(msg) = recv.messages.pop_front() {
                return Some(msg);
            }
            if recv.hungup {
                return None;
            }
            self.recv_cv.wait(&mut recv);
        }
    }

    /// Closes the conversation, after draining outstanding cells.
    pub fn close(&self) {
        let _ = self.drain();
        let _ = self.circuit.send(&[T_CLOSE]);
        self.shut();
    }

    /// Marks both directions closed and wakes every waiter.
    fn shut(&self) {
        self.recv.lock().hungup = true;
        self.send.lock().closed = true;
        self.recv_cv.notify_all();
        self.echo_cv.notify_all();
    }
}

/// Dials a Datakit destination (`nj/astro/helix!9fs`) and wraps the
/// circuit in URP.
pub fn urp_dial(line: &DatakitLine, dest: &str) -> crate::Result<Arc<UrpConn>> {
    let circuit = line.dial(dest).map_err(NineError::new)?;
    Ok(UrpConn::new(circuit))
}

/// A URP listener on a Datakit line.
pub struct UrpListener {
    line: DatakitLine,
}

impl UrpListener {
    /// Wraps a line for accepting calls.
    pub fn new(line: DatakitLine) -> UrpListener {
        UrpListener { line }
    }

    /// Blocks for an incoming call; returns the conversation, caller's
    /// address and requested service.
    pub fn accept(&self) -> Option<(Arc<UrpConn>, String, String)> {
        let IncomingCall {
            from,
            service,
            circuit,
        } = self.line.listen()?;
        Some((UrpConn::new(circuit), from, service))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_netsim::fabric::DatakitSwitch;
    use plan9_netsim::profile::Profiles;

    fn pair() -> (Arc<UrpConn>, Arc<UrpConn>) {
        pair_with(Profiles::datakit_fast())
    }

    fn pair_with(profile: plan9_netsim::profile::LinkProfile) -> (Arc<UrpConn>, Arc<UrpConn>) {
        let sw = DatakitSwitch::new(profile);
        let a = sw.attach("nj/astro/a").unwrap();
        let b = sw.attach("nj/astro/b").unwrap();
        let listener = UrpListener::new(b);
        let t = std::thread::spawn(move || listener.accept().unwrap().0);
        let ca = urp_dial(&a, "nj/astro/b!test").unwrap();
        let cb = t.join().unwrap();
        (ca, cb)
    }

    #[test]
    fn message_round_trip() {
        let (a, b) = pair();
        a.send(b"Tversion-ish message").unwrap();
        assert_eq!(b.recv().unwrap(), b"Tversion-ish message");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn delimiters_preserved() {
        let (a, b) = pair();
        for n in [0usize, 1, 100, 5000] {
            a.send(&vec![9u8; n]).unwrap();
        }
        for n in [0usize, 1, 100, 5000] {
            assert_eq!(b.recv().unwrap().len(), n);
        }
    }

    #[test]
    fn large_message_crosses_many_cells() {
        let (a, b) = pair();
        let msg: Vec<u8> = (0..30_000u32).map(|i| i as u8).collect();
        let expect = msg.clone();
        let t = std::thread::spawn(move || b.recv().unwrap());
        a.send(&msg).unwrap();
        assert_eq!(t.join().unwrap(), expect);
        assert!(a.stats.tx_cells.get() > URP_WINDOW as u64);
    }

    #[test]
    fn survives_cell_loss() {
        let (a, b) = pair_with(Profiles::datakit_fast().with_loss(0.1));
        let msgs: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 100]).collect();
        let expect = msgs.clone();
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(b.recv().unwrap());
            }
            got
        });
        for m in &msgs {
            a.send(m).unwrap();
        }
        assert_eq!(t.join().unwrap(), expect);
        assert!(
            a.stats.retransmit_cells.get() > 0
                || a.stats.enqs.get() > 0
        );
    }

    #[test]
    fn close_gives_eof() {
        let (a, b) = pair();
        a.send(b"last words").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        a.close();
        assert_eq!(b.recv().unwrap(), b"last words");
        assert_eq!(b.recv(), None);
        assert!(a.send(b"after close").is_err());
    }

    #[test]
    fn rejection_reason_visible() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let srv = sw.attach("nj/astro/srv").unwrap();
        let cli = sw.attach("nj/astro/cli").unwrap();
        let t = std::thread::spawn(move || {
            let call = srv.listen_timeout(Duration::from_secs(2)).expect("a call");
            call.circuit.reject("no such service");
        });
        let circuit = cli.dial("nj/astro/srv!bogus").unwrap();
        assert_eq!(circuit.recv(), None);
        assert_eq!(circuit.reject_reason().unwrap(), "no such service");
        t.join().unwrap();
    }

    #[test]
    fn status_reports_window() {
        let (a, _b) = pair();
        assert!(a.status_string().contains("window 7"), "{}", a.status_string());
        assert!(a.local_addr().contains("nj/astro/a"));
        assert!(a.remote_addr().contains("nj/astro/b"));
    }
}
