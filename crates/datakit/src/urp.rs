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
//! that judges loss never waits on the line.
//!
//! URP is a core and a shell, as IL and TCP are. The core, [`fsm`], is
//! `State::step(&mut self, Input, Now) -> Actions`, and nothing else
//! changes a conversation's state. The shell is the one that drives all
//! three cores, `support::step::Shell`: it takes the conversation's one
//! lock per input, steps, aims the prober's timer in that hold, and
//! wakes readers and writers and fires the readiness hook after
//! dropping it, before the cells leave. What is URP's own is the cells:
//! a data cell's leaving the line is an input of its own (`Left`), and
//! so is a rewind's end (`Resent`).
//!
//! A conversation costs no kernel process. Its input,
//! [`UrpConn::input`], is the circuit's handler: it runs on whichever
//! thread delivers the cell, at the cell's arrival (§2.4: a protocol's
//! input runs in whoever delivers the data). The prober is one timer
//! wheel entry, on a pool key of its own: a rewind resends up to a
//! window of full cells, and that must not hold up the input. It is the
//! only sender of an ENQ or of a rewind, and it gives a silent peer up,
//! whether or not anyone waits on the conversation. A writer waits for
//! room in the window, and `close` for the last acknowledgment, on the
//! conversation lock. A reader that does not wait (9P served where its
//! requests arrive) takes messages with [`UrpConn::try_recv`] when the
//! readiness hook fires: a message queued, the hangup, or the window
//! opening.

use plan9_support::step::{Conv, On, Shell};
use plan9_support::time;
use plan9_netsim::fabric::{Announcement, Circuit, DatakitLine, IncomingCall};
use plan9_netlog::{Counter, Registry};
use plan9_ninep::NineError;
use fsm::{Actions, Input, State, SEQ_MASK, TYPE_MASK, T_ENQ, T_REJ};
use std::sync::Arc;

pub mod fsm;

pub use fsm::URP_WINDOW;

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

/// One end of a URP conversation: the [`Shell`] that drives [`fsm`],
/// and the circuit its cells cross.
pub struct UrpConn {
    circuit: Circuit,
    pub(crate) shell: Shell<State>,
    /// Traffic counters.
    pub stats: Arc<UrpStats>,
    /// Per-cell payload capacity on this circuit.
    cell_payload: usize,
}

impl UrpConn {
    /// Wraps an established circuit in URP: its cells go to
    /// [`UrpConn::input`] as they arrive.
    pub fn new(circuit: Circuit) -> Arc<UrpConn> {
        UrpConn::with_stats(circuit, Arc::new(UrpStats::new(&Registry::new())))
    }

    /// As [`UrpConn::new`], counting into `stats`, which the caller
    /// shares among the conversations of one line.
    pub fn with_stats(circuit: Circuit, stats: Arc<UrpStats>) -> Arc<UrpConn> {
        let cell_payload = circuit.mtu().saturating_sub(1).max(16);
        let shell = Shell::new(State::new(time::now()), circuit.rx_key());
        let conn = Arc::new(UrpConn { circuit, shell, stats, cell_payload });
        // Held weakly, so a conversation its owner lets go of hangs up.
        let input = Arc::downgrade(&conn);
        conn.circuit.set_rx_handler(move |cell| {
            if let Some(conn) = input.upgrade() {
                conn.input(cell)
            }
        });
        conn
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
        let held = self.shell.lock();
        let state = if held.st.closed() { "Hungup" } else { "Established" };
        format!("{state} unacked {} window {URP_WINDOW}", held.st.unacked())
    }

    /// The conversation's input: one cell, or `None` when the circuit
    /// hangs up. Run by whichever thread delivers the cell; it never
    /// waits, though an answer it sends is paced onto the line.
    pub fn input(self: &Arc<Self>, cell: Option<Vec<u8>>) {
        let _ = self.shell.run(self, match &cell {
            Some(cell) => Input::Cell(cell),
            None => Input::Hangup,
        });
    }

    /// Sends one message, cell by cell, each once the window has room
    /// for it and no rewind is going out (a new cell between resent ones
    /// is out of sequence). It returns when the last cell is on the
    /// line: the prober and the receiver's ACKs see to the
    /// acknowledgment, so back-to-back sends pipeline.
    pub fn send(self: &Arc<Self>, msg: &[u8]) -> crate::Result<()> {
        // An empty message is still one (empty) EOM cell.
        let last = msg.len().div_ceil(self.cell_payload).max(1) - 1;
        let cells = msg.chunks(self.cell_payload).chain(msg.is_empty().then_some(msg));
        for (i, chunk) in cells.enumerate() {
            let acts = self.shell.wait(On::Writable, None, |held| match (held.st.open(1), held.st.closed()) {
                (false, _) => None,
                (true, true) => Some(Err(NineError::new("hungup"))),
                (true, false) => Some(Ok(self.shell.step(self, held, Input::Send(chunk, i == last)).0)),
            })?;
            self.perform(acts)?;
        }
        Ok(())
    }

    /// The next message if one is at hand, `None` if not; an error at
    /// the end of the conversation.
    pub fn try_recv(&self) -> crate::Result<Option<Vec<u8>>> {
        let got = self.shell.lock().st.read();
        match got {
            Some(None) => Err(NineError::new("hungup")),
            got => Ok(got.flatten()),
        }
    }

    /// Whether a message of `len` bytes would be sent without waiting:
    /// every cell of it (one, for an empty message) fits in the window.
    pub fn can_send(&self, len: usize) -> bool {
        self.shell.lock().st.open(len.div_ceil(self.cell_payload).max(1))
    }

    /// Blocks for the next message; `None` is EOF/hangup.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.shell.wait(On::Readable, None, |held| held.st.read())
    }

    /// Closes the conversation once every cell sent is acknowledged, or
    /// the prober has given the peer up.
    pub fn close(self: &Arc<Self>) {
        let acts = self.shell.wait(On::Writable, None, |held| {
            let done = held.st.unacked() == 0 || held.st.closed();
            done.then(|| self.shell.step(self, held, Input::Close).0)
        });
        let _ = self.perform(acts);
    }

    /// Closes the conversation at once, whatever is unacknowledged.
    pub fn hangup(self: &Arc<Self>) {
        let _ = self.shell.run(self, Input::Close);
    }
}

impl Conv for UrpConn {
    type Core = State;
    type Done = crate::Result<()>;

    fn shell(&self) -> &Shell<State> {
        &self.shell
    }

    /// Does what a step asked, the lock dropped: wakes readers and
    /// writers and fires the hook, then sends the cells (a data cell's
    /// leaving the line is an input of its own, and so is a rewind's
    /// end). Returns the first send's failure.
    fn perform(self: &Arc<Self>, acts: Actions) -> crate::Result<()> {
        self.shell.perform(&acts, || {
            let mut sent = Ok(());
            for cell in acts.cells.iter() {
                let (ctl, data) = (cell[0], fsm::is_data(cell[0]));
                match ctl & TYPE_MASK {
                    T_ENQ => self.stats.enqs.inc(),
                    T_REJ => self.stats.rejs.inc(),
                    _ if data && acts.resend => self.stats.retransmit_cells.inc(),
                    _ if data => self.stats.tx_cells.inc(),
                    _ => {}
                }
                match self.circuit.send(cell) {
                    // A cell leaving the line asks nothing of the shell.
                    Ok(()) if data => drop(self.shell.step(self, &mut self.shell.lock(), Input::Left(ctl & SEQ_MASK))),
                    Ok(()) => {}
                    Err(e) => sent = sent.and(Err(NineError::new(e))),
                }
            }
            if acts.resend {
                sent = sent.and(self.shell.run(self, Input::Resent));
            }
            sent
        })
    }
}

/// Dials a Datakit destination (`nj/astro/helix!9fs`) and wraps the
/// circuit in URP.
pub fn urp_dial(line: &DatakitLine, dest: &str) -> crate::Result<Arc<UrpConn>> {
    let circuit = line.dial(dest).map_err(NineError::new)?;
    Ok(UrpConn::new(circuit))
}

/// A URP listener on a Datakit line: it takes the line's catch-all, so
/// every call to the line that no announcement names.
pub struct UrpListener {
    /// `None` if the line's catch-all was announced already.
    calls: Option<Announcement>,
    _line: DatakitLine,
}

impl UrpListener {
    /// Wraps a line for accepting calls.
    pub fn new(line: DatakitLine) -> UrpListener {
        UrpListener { calls: line.announce("*").ok(), _line: line }
    }

    /// Blocks for an incoming call; returns the conversation, caller's
    /// address and requested service.
    pub fn accept(&self) -> Option<(Arc<UrpConn>, String, String)> {
        let IncomingCall { from, service, circuit } = self.calls.as_ref()?.accept()?;
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
        let bogus = srv.announce("bogus").unwrap();
        let t = std::thread::spawn(move || {
            let call = bogus.accept().expect("a call");
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
