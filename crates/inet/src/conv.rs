//! Connection management for the conversation protocols.
//!
//! IL and TCP differ in how they make delivery reliable — query against
//! blind retransmission, messages against a byte stream, a fixed window
//! against congestion control — and each keeps that to itself. What a
//! conversation *is* they share, and it lives here once: the key that
//! names one, the id that shards its work, sequence-space arithmetic,
//! the round-trip estimator behind the adaptive timeout (§3), local
//! ports, and the table of conversations and listeners a packet is
//! demultiplexed through. The one wheel timer a conversation keeps
//! armed is `support::wheel::rearm`'s, which URP shares.

use crate::addr::IpAddr;
use crate::ip::IpStack;
use plan9_ninep::NineError;
use plan9_support::chan::{bounded, Receiver, Sender, TrySendError};
use plan9_support::fnv::{self, FnvMap};
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::time;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
/// The time types, for the protocol cores: they take the time they are
/// given and never read the clock (`support::time`) themselves.
pub(crate) use std::time::{Duration, Instant};
/// What a core's step is given and gives back, shared with URP's core.
pub use plan9_support::step::{Now, Out};

/// First ephemeral port handed out to unbound local ends.
pub(crate) const EPHEMERAL_BASE: u16 = 5000;

/// How long an acknowledgment waits for a message or segment going the
/// other way to carry it, before it is sent by itself: long enough for
/// an RPC's reply, and well under either protocol's shortest
/// retransmission timeout.
pub(crate) const ACK_DELAY: Duration = Duration::from_millis(5);

/// Established calls a listener holds for `accept`; later ones are hung
/// up.
const BACKLOG: usize = 64;

/// Tracks which local ports of one protocol are in use and hands out
/// ephemeral ones.
pub(crate) struct PortSpace {
    used: Mutex<(HashSet<u16>, u16)>,
}

impl PortSpace {
    pub(crate) fn new() -> PortSpace {
        PortSpace {
            used: Mutex::named((HashSet::new(), EPHEMERAL_BASE), "inet.ports"),
        }
    }

    /// Claims `port`, failing if it is taken; port 0 asks for a free
    /// ephemeral one. Returns the port claimed.
    pub(crate) fn claim(&self, port: u16) -> crate::Result<u16> {
        let mut used = self.used.lock();
        if port != 0 {
            if !used.0.insert(port) {
                return Err(NineError::new(format!("port {port} in use")));
            }
            return Ok(port);
        }
        for _ in 0..=u16::MAX {
            let candidate = used.1;
            used.1 = if used.1 == u16::MAX {
                EPHEMERAL_BASE
            } else {
                used.1 + 1
            };
            if candidate >= EPHEMERAL_BASE && used.0.insert(candidate) {
                return Ok(candidate);
            }
        }
        Err(NineError::new("out of ports"))
    }

    /// Releases a port for reuse.
    pub(crate) fn release(&self, port: u16) {
        self.used.lock().0.remove(&port);
    }
}

/// What names a conversation within one protocol on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConnKey {
    pub(crate) lport: u16,
    pub(crate) raddr: IpAddr,
    pub(crate) rport: u16,
}

impl ConnKey {
    /// The conversation id that keys this conversation's timer fires
    /// and readiness service onto one worker-pool shard, so all of its
    /// work serializes. The salt keeps two protocols' conversations on
    /// the same ports apart.
    pub(crate) fn conv_id(&self, salt: &[u8]) -> u64 {
        let ports = self.lport.to_be_bytes().into_iter().chain(self.rport.to_be_bytes());
        fnv::hash(salt.iter().copied().chain(self.raddr.0.to_be_bytes()).chain(ports))
    }

    /// The `local` file string: `ip port`.
    pub(crate) fn local_string(&self, stack: &Weak<IpStack>) -> String {
        match stack.upgrade() {
            Some(s) => format!("{} {}", s.addr(), self.lport),
            None => format!("? {}", self.lport),
        }
    }
}

/// Wrapping sequence comparison: is `a` strictly before `b`?
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

pub(crate) fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// A clock-derived initial sequence number, like 4.4BSD's. The wall
/// clock is a support-layer privilege (see `plan9_support::time`).
pub(crate) fn initial_seq() -> u32 {
    time::unix_subsec_nanos().wrapping_mul(2246822519)
}

/// The round-trip estimator: smoothed RTT and its variance give the
/// retransmission timeout, clamped to the protocol's bounds.
#[derive(Clone, Debug)]
pub(crate) struct Rtt {
    pub(crate) srtt: Option<Duration>,
    rttvar: Duration,
    /// The current timeout: the estimate, or what backoff made of it.
    pub(crate) rto: Duration,
    min: Duration,
    max: Duration,
}

impl Rtt {
    pub(crate) fn new(initial: Duration, min: Duration, max: Duration) -> Rtt {
        Rtt {
            srtt: None,
            rttvar: Duration::ZERO,
            rto: initial,
            min,
            max,
        }
    }

    /// Feeds one round-trip sample (the caller applies Karn's rule).
    pub(crate) fn sample(&mut self, sample: Duration) {
        self.srtt = Some(match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                self.rttvar = (self.rttvar * 3 + srtt.abs_diff(sample)) / 4;
                (srtt * 7 + sample) / 8
            }
        });
        self.settle();
    }

    /// Puts the timeout back on the estimate, undoing any backoff; a
    /// no-op before the first sample.
    pub(crate) fn settle(&mut self) {
        if let Some(srtt) = self.srtt {
            self.rto = (srtt + 4 * self.rttvar).clamp(self.min, self.max);
        }
    }

    /// Lengthens the timeout by `num/den` after silence.
    pub(crate) fn backoff(&mut self, num: u32, den: u32) {
        self.rto = (self.rto * num / den).min(self.max);
    }

    /// The smoothed estimate as a `status` file shows it.
    pub(crate) fn srtt_string(&self) -> String {
        self.srtt
            .map(|d| format!("{}us", d.as_micros()))
            .unwrap_or_else(|| "-".to_string())
    }
}

/// One protocol's conversations, listeners and local ports on one host.
pub(crate) struct ConvTable<C> {
    /// Each conversation, and whether it claimed its local port itself:
    /// an answered call sits on its listener's port, which is the
    /// listener's to release.
    conns: Mutex<FnvMap<ConnKey, (Arc<C>, bool)>>,
    /// Signalled each time a conversation leaves `conns`.
    retired: Condvar,
    /// The sending end of each listener's backlog.
    listeners: Mutex<HashMap<u16, Sender<Arc<C>>>>,
    ports: PortSpace,
    /// The protocol's close, for a call no listener takes.
    close: fn(&Arc<C>),
}

impl<C> ConvTable<C> {
    pub(crate) fn new(close: fn(&Arc<C>)) -> Arc<ConvTable<C>> {
        Arc::new(ConvTable {
            conns: Mutex::named(FnvMap::default(), "inet.conv.conns"),
            retired: Condvar::new(),
            listeners: Mutex::named(HashMap::new(), "inet.conv.listeners"),
            ports: PortSpace::new(),
            close,
        })
    }

    /// Enters an outgoing call from `lport` (0 = ephemeral) built by
    /// `make` from its key.
    pub(crate) fn open(
        &self,
        lport: u16,
        raddr: IpAddr,
        rport: u16,
        make: impl FnOnce(ConnKey) -> Arc<C>,
    ) -> crate::Result<Arc<C>> {
        let lport = self.ports.claim(lport)?;
        let key = ConnKey { lport, raddr, rport };
        let conn = make(key);
        let mut conns = self.conns.lock();
        // A call answered on this port may outlive its listener.
        if conns.contains_key(&key) {
            drop(conns);
            self.ports.release(lport);
            return Err(NineError::new("connection already exists"));
        }
        conns.insert(key, (Arc::clone(&conn), true));
        Ok(conn)
    }

    /// Enters an incoming call for `key`, built by `make`, if someone
    /// listens on its local port.
    pub(crate) fn answer(&self, key: ConnKey, make: impl FnOnce() -> Arc<C>) -> Option<Arc<C>> {
        if !self.listeners.lock().contains_key(&key.lport) {
            return None;
        }
        let conn = make();
        self.conns.lock().insert(key, (Arc::clone(&conn), false));
        Some(conn)
    }

    pub(crate) fn lookup(&self, key: &ConnKey) -> Option<Arc<C>> {
        self.conns.lock().get(key).map(|(conn, _)| Arc::clone(conn))
    }

    /// Hands an answered call, its handshake complete, to whoever
    /// listens on its port now. One that no listener takes (the
    /// backlog is full, or the listener has gone) is hung up.
    pub(crate) fn established(&self, key: &ConnKey) {
        let Some(conn) = self.lookup(key) else { return };
        let listeners = self.listeners.lock();
        let refused = match listeners.get(&key.lport) {
            Some(backlog) => match backlog.try_send(conn) {
                Ok(()) => None,
                Err(TrySendError::Full(conn) | TrySendError::Disconnected(conn)) => Some(conn),
            },
            None => Some(conn),
        };
        drop(listeners);
        if let Some(conn) = refused {
            (self.close)(&conn);
        }
    }

    pub(crate) fn retire(&self, key: &ConnKey) {
        let Some((_, owns_port)) = self.conns.lock().remove(key) else { return };
        if owns_port {
            self.ports.release(key.lport);
        }
        self.retired.notify_all();
    }

    pub(crate) fn len(&self) -> usize {
        self.conns.lock().len()
    }

    /// Waits on the current clock until no conversation is left, or
    /// until `horizon` passes with none leaving; returns how many are.
    pub(crate) fn settle(&self, horizon: Duration) -> usize {
        let mut conns = self.conns.lock();
        let mut deadline = time::now() + horizon;
        // Each wake is a departure, which starts the horizon again.
        while !conns.is_empty() && !self.retired.wait_until(&mut conns, deadline).timed_out() {
            deadline = time::now() + horizon;
        }
        conns.len()
    }

    pub(crate) fn conns(&self) -> Vec<Arc<C>> {
        self.conns.lock().values().map(|(conn, _)| Arc::clone(conn)).collect()
    }

    /// Passively opens `port` (0 = ephemeral).
    pub(crate) fn listen(self: &Arc<Self>, port: u16) -> crate::Result<Listener<C>> {
        let port = self.ports.claim(port)?;
        let (tx, backlog) = bounded(BACKLOG);
        self.listeners.lock().insert(port, tx);
        Ok(Listener { table: Arc::downgrade(self), port, backlog })
    }
}

/// A passive listener for conversations of type `C`.
pub struct Listener<C> {
    table: Weak<ConvTable<C>>,
    port: u16,
    backlog: Receiver<Arc<C>>,
}

impl<C> Listener<C> {
    /// The listening port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Blocks for the next established connection.
    pub fn accept(&self) -> crate::Result<Arc<C>> {
        self.backlog.recv().map_err(|_| NineError::new("listener closed"))
    }

    /// Waits for a connection until the timeout elapses.
    pub fn accept_timeout(&self, d: Duration) -> crate::Result<Arc<C>> {
        self.backlog.recv_timeout(d).map_err(|_| NineError::new("timed out"))
    }

    /// Stops taking calls: new ones are refused, the backlog's sender
    /// goes, so an `accept` waiting or to come fails with "listener
    /// closed", and every call still queued is hung up. The port stays
    /// the listener's until it is dropped.
    pub fn close(&self) {
        let Some(table) = self.table.upgrade() else { return };
        table.listeners.lock().remove(&self.port);
        while let Ok(conn) = self.backlog.try_recv() {
            (table.close)(&conn);
        }
    }
}

impl<C> Drop for Listener<C> {
    fn drop(&mut self) {
        self.close();
        if let Some(table) = self.table.upgrade() {
            table.ports.release(self.port);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Conversation ids decide shard assignment, and with it the order
    /// a seeded replay runs in: these are the values the per-protocol
    /// functions computed before they were folded into one.
    #[test]
    fn conversation_ids_are_pinned() {
        let key = ConnKey { lport: 5012, raddr: IpAddr::new(135, 104, 9, 31), rport: 17008 };
        assert_eq!(key.conv_id(&[]), 0x9e6e_c48d_84e1_186f, "il");
        assert_eq!(key.conv_id(&[crate::tcp::TCP_PROTO]), 0x0a14_5fcc_0a25_685b, "tcp");
    }

    #[test]
    fn first_rtt_sample_seeds_the_estimate() {
        let mut rtt = Rtt::new(50 * MS, MS, 1000 * MS);
        assert_eq!((rtt.srtt, rtt.rto), (None, 50 * MS));
        rtt.sample(40 * MS);
        // srtt = sample, rttvar = sample / 2, rto = srtt + 4 rttvar.
        assert_eq!((rtt.srtt, rtt.rto), (Some(40 * MS), 120 * MS));
    }

    #[test]
    fn later_rtt_samples_are_smoothed() {
        let mut rtt = Rtt::new(50 * MS, MS, 1000 * MS);
        rtt.sample(40 * MS);
        rtt.sample(80 * MS);
        // srtt = 7/8 * 40 + 1/8 * 80; rttvar = 3/4 * 20 + 1/4 * |40 - 80|.
        assert_eq!((rtt.srtt, rtt.rto), (Some(45 * MS), 145 * MS));
        // Backoff stretches the timeout; settling returns to the estimate.
        rtt.backoff(3, 2);
        assert_eq!(rtt.rto, 145 * MS * 3 / 2);
        rtt.settle();
        assert_eq!(rtt.rto, 145 * MS);
    }

    #[test]
    fn rto_is_clamped_to_the_protocols_bounds() {
        let mut rtt = Rtt::new(50 * MS, 20 * MS, 100 * MS);
        rtt.sample(MS);
        assert_eq!(rtt.rto, 20 * MS, "floor");
        rtt.sample(2000 * MS);
        assert_eq!(rtt.rto, 100 * MS, "ceiling");
        rtt.backoff(2, 1);
        assert_eq!(rtt.rto, 100 * MS, "backoff stops at the ceiling");
        // Before any sample there is no estimate to settle on.
        let mut fresh = Rtt::new(50 * MS, 20 * MS, 100 * MS);
        fresh.settle();
        assert_eq!(fresh.rto, 50 * MS);
    }

    #[test]
    fn claim_conflict_detected() {
        let p = PortSpace::new();
        p.claim(564).unwrap();
        assert!(p.claim(564).is_err());
        p.release(564);
        p.claim(564).unwrap();
    }

    #[test]
    fn ephemeral_ports_unique() {
        let p = PortSpace::new();
        let a = p.claim(0).unwrap();
        let b = p.claim(0).unwrap();
        assert_ne!(a, b);
        assert!(a >= EPHEMERAL_BASE && b >= EPHEMERAL_BASE);
    }

    #[test]
    fn ephemeral_skips_claimed() {
        let p = PortSpace::new();
        p.claim(EPHEMERAL_BASE).unwrap();
        assert_ne!(p.claim(0).unwrap(), EPHEMERAL_BASE);
    }

    /// Who owns a local port, in the model of a conversation table.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Owner {
        Listener,
        Conv(ConnKey),
    }

    /// What the table should hold: each claimed port's owner, each
    /// conversation and whether it owns its port, and the ephemeral
    /// cursor.
    struct Model {
        owner: HashMap<u16, Owner>,
        conns: HashMap<ConnKey, bool>,
        cursor: u16,
    }

    impl Model {
        /// The ephemeral port a claim of port 0 gets: the first free one
        /// from the cursor on, wrapping from 65535 back to 5000.
        fn ephemeral(&mut self) -> u16 {
            loop {
                let port = self.cursor;
                self.cursor = if port == u16::MAX { EPHEMERAL_BASE } else { port + 1 };
                if !self.owner.contains_key(&port) {
                    return port;
                }
            }
        }

        /// Claims `port` (0 = ephemeral) for `owner` when it is free.
        fn claim(&mut self, port: u16) -> Option<u16> {
            let port = if port == 0 { self.ephemeral() } else { port };
            (!self.owner.contains_key(&port)).then_some(port)
        }
    }

    /// Fixed ports a case draws from: two at each end of the ephemeral
    /// range, so fixed and ephemeral claims collide, and one below it.
    const FIXED: [u16; 5] = [564, EPHEMERAL_BASE, EPHEMERAL_BASE + 1, u16::MAX - 1, u16::MAX];

    fn fixed(g: &mut Gen) -> u16 {
        FIXED[g.usize_in(0..FIXED.len())]
    }

    /// A fixed port, or now and then 0.
    fn port(g: &mut Gen) -> u16 {
        if g.usize_in(0..3) == 0 {
            0
        } else {
            fixed(g)
        }
    }

    /// A key on a port `lport` draws, from one of two hosts' two ports.
    fn key(g: &mut Gen, lport: fn(&mut Gen) -> u16) -> ConnKey {
        ConnKey { lport: lport(g), raddr: IpAddr::new(10, 0, 0, g.u8() % 2 + 1), rport: g.u16_in(1..3) }
    }

    /// A live conversation's key, or (always when there is none, else
    /// one time in `odds`) a key drawn afresh.
    fn live_or_new(g: &mut Gen, m: &Model, odds: usize) -> ConnKey {
        let live: Vec<ConnKey> = m.conns.keys().copied().collect();
        if live.is_empty() || g.usize_in(0..odds) == 0 {
            key(g, port)
        } else {
            live[g.usize_in(0..live.len())]
        }
    }

    use plan9_support::check::Gen;

    plan9_support::props! {
        /// `listen` and its drop, `open` on a fixed or an ephemeral port,
        /// `answer` and `retire`, against a model of who owns each port.
        fn prop_the_table_gives_each_port_one_owner(g, cases = 300) {
            let table: Arc<ConvTable<ConnKey>> = ConvTable::new(|_| {});
            let cursor = if g.bool() { g.u16_in(u16::MAX - 4..u16::MAX) } else { EPHEMERAL_BASE };
            table.ports.used.lock().1 = cursor;
            let mut m = Model { owner: HashMap::new(), conns: HashMap::new(), cursor };
            let mut listeners: Vec<Listener<ConnKey>> = Vec::new();
            for step in 0..60 {
                match g.usize_in(0..6) {
                    0 => {
                        let want = port(g);
                        let got = table.listen(want).map(|l| {
                            let p = l.port();
                            listeners.push(l);
                            p
                        });
                        let model = m.claim(want);
                        assert_eq!(got.ok(), model, "step {step}: listen({want})");
                        if let Some(p) = model {
                            m.owner.insert(p, Owner::Listener);
                        }
                    }
                    1 if !listeners.is_empty() => {
                        let l = listeners.remove(g.usize_in(0..listeners.len()));
                        assert_eq!(m.owner.remove(&l.port()), Some(Owner::Listener));
                    }
                    2 | 3 => {
                        // Half the time the key of a live conversation:
                        // an answered call's must fail while it lives.
                        let want = live_or_new(g, &m, 2);
                        let got = table.open(want.lport, want.raddr, want.rport, Arc::new).ok();
                        let model = m.claim(want.lport).map(|lport| ConnKey { lport, ..want });
                        let model = model.filter(|k| !m.conns.contains_key(k));
                        assert_eq!(got.as_deref(), model.as_ref(), "step {step}: open({want:?})");
                        if let Some(k) = model {
                            assert!(!m.owner.contains_key(&k.lport), "an owned port was claimed");
                            m.owner.insert(k.lport, Owner::Conv(k));
                            m.conns.insert(k, true);
                        }
                    }
                    4 => {
                        // As a protocol answers: only a call it does not
                        // already have.
                        let key = key(g, fixed);
                        if table.lookup(&key).is_none() {
                            let got = table.answer(key, || Arc::new(key));
                            let listening = m.owner.get(&key.lport) == Some(&Owner::Listener);
                            assert_eq!(got.is_some(), listening, "step {step}: answer({key:?})");
                            if listening {
                                m.conns.insert(key, false);
                            }
                        }
                    }
                    _ => {
                        let key = live_or_new(g, &m, 4);
                        table.retire(&key);
                        if m.conns.remove(&key) == Some(true) {
                            assert_eq!(m.owner.remove(&key.lport), Some(Owner::Conv(key)));
                        }
                    }
                }
                let mut claimed: Vec<u16> = table.ports.used.lock().0.iter().copied().collect();
                let mut owned: Vec<u16> = m.owner.keys().copied().collect();
                claimed.sort_unstable();
                owned.sort_unstable();
                assert_eq!(claimed, owned, "step {step}: the ports claimed");
                assert_eq!(table.len(), m.conns.len(), "step {step}: the conversations");
                for k in m.conns.keys() {
                    assert_eq!(table.lookup(k).as_deref(), Some(k), "step {step}: {k:?} outlived");
                }
            }
        }
    }
}
