//! Connection management for the conversation protocols.
//!
//! IL and TCP differ in how they make delivery reliable — query against
//! blind retransmission, messages against a byte stream, a fixed window
//! against congestion control — and each keeps that to itself. What a
//! conversation *is* they share, and it lives here once: the key that
//! names one, the id that shards its work, sequence-space arithmetic,
//! the round-trip estimator behind the adaptive timeout (§3), the one
//! wheel timer a conversation keeps armed, local ports, and the table
//! of conversations and listeners a packet is demultiplexed through.

use crate::addr::IpAddr;
use crate::ip::IpStack;
use plan9_ninep::NineError;
use plan9_support::chan::{bounded, Receiver, Sender};
use plan9_support::sync::Mutex;
use plan9_support::{time, wheel};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// First ephemeral port handed out to unbound local ends.
pub(crate) const EPHEMERAL_BASE: u16 = 5000;

/// How long an acknowledgment waits for a message or segment going the
/// other way to carry it, before it is sent by itself: long enough for
/// an RPC's reply, and well under either protocol's shortest
/// retransmission timeout.
pub(crate) const ACK_DELAY: Duration = Duration::from_millis(5);

/// Established calls a listener holds for `accept`; later ones are
/// dropped and the caller's handshake retransmission tries again.
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

/// The FNV-1a hash behind every pool/wheel shard key. A hash of what
/// names the thing — not a global counter — so a seeded vtime replay
/// shards identically run after run.
pub(crate) fn shard_key(name: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl ConnKey {
    /// The conversation id that keys this conversation's timer fires
    /// and readiness service onto one worker-pool shard, so all of its
    /// work serializes. The salt keeps two protocols' conversations on
    /// the same ports apart.
    pub(crate) fn conv_id(&self, salt: &[u8]) -> u64 {
        let ports = self.lport.to_be_bytes().into_iter().chain(self.rport.to_be_bytes());
        shard_key(salt.iter().copied().chain(self.raddr.0.to_be_bytes()).chain(ports))
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

/// Aims a conversation's one entry on the shared timer wheel at `want`
/// ("a helper kernel process awakens periodically to perform any
/// necessary retransmissions" — §2.4, as one wheel for every
/// conversation). Never extends an armed timer: it may already be in
/// flight, an early fire just re-evaluates and re-arms, and a missing
/// one would wedge the conversation. `None` cancels. `fire` runs on the
/// shard of `conv`. The spawn error (the wheel or pool thread could not
/// start) propagates so dial and announce fail loudly.
pub(crate) fn rearm(
    timer: &mut Option<wheel::TimerId>,
    conv: u64,
    want: Option<Instant>,
    fire: impl FnOnce() + Send + 'static,
) -> std::io::Result<()> {
    if let Some(id) = *timer {
        if want.is_some_and(|w| id.deadline() <= w) {
            return Ok(());
        }
        wheel::cancel(id);
        *timer = None;
    }
    if let Some(want) = want {
        *timer = Some(wheel::schedule(conv, want, fire)?);
    }
    Ok(())
}

/// One protocol's conversations, listeners and local ports on one host.
pub(crate) struct ConvTable<C> {
    /// Each conversation, and whether it claimed its local port itself:
    /// an answered call sits on its listener's port, which is the
    /// listener's to release.
    conns: Mutex<HashMap<ConnKey, (Arc<C>, bool)>>,
    /// The sending end of each listener's backlog.
    listeners: Mutex<HashMap<u16, Sender<Arc<C>>>>,
    ports: PortSpace,
}

impl<C> ConvTable<C> {
    pub(crate) fn new() -> Arc<ConvTable<C>> {
        Arc::new(ConvTable {
            conns: Mutex::named(HashMap::new(), "inet.conv.conns"),
            listeners: Mutex::named(HashMap::new(), "inet.conv.listeners"),
            ports: PortSpace::new(),
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
    /// listens on its port now. A full backlog drops it.
    pub(crate) fn established(&self, key: &ConnKey) {
        let Some(conn) = self.lookup(key) else { return };
        if let Some(backlog) = self.listeners.lock().get(&key.lport) {
            let _ = backlog.try_send(conn);
        }
    }

    pub(crate) fn retire(&self, key: &ConnKey) {
        let gone = self.conns.lock().remove(key);
        if gone.is_some_and(|(_, owns_port)| owns_port) {
            self.ports.release(key.lport);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.conns.lock().len()
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

    /// Closes the listener on `port` out from under its owner (a
    /// gateway being killed). The map entry goes, so new calls are
    /// refused, and the backlog's only sender with it, so a blocked
    /// `accept()` — and the protocol-device open parked inside it —
    /// errors with "listener closed" instead of waiting forever. The
    /// port itself is released by the [`Listener`]'s own drop, as
    /// usual. Returns false if no listener was on `port`.
    pub(crate) fn unlisten(&self, port: u16) -> bool {
        self.listeners.lock().remove(&port).is_some()
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
}

impl<C> Drop for Listener<C> {
    fn drop(&mut self) {
        if let Some(table) = self.table.upgrade() {
            table.listeners.lock().remove(&self.port);
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
    fn an_armed_timer_is_never_extended() {
        let far = time::now() + Duration::from_secs(3600);
        let mut timer = None;
        rearm(&mut timer, 7, Some(far), || {}).unwrap();
        let armed = timer.expect("armed");
        assert_eq!(armed.deadline(), far);
        // Later or equal: the armed entry stays as it is.
        rearm(&mut timer, 7, Some(far + Duration::from_secs(1)), || {}).unwrap();
        rearm(&mut timer, 7, Some(far), || {}).unwrap();
        assert_eq!(timer, Some(armed));
        // Earlier: the old entry is cancelled and a new one scheduled.
        let near = far - Duration::from_secs(1);
        rearm(&mut timer, 7, Some(near), || {}).unwrap();
        assert_eq!(timer.expect("re-armed").deadline(), near);
        assert!(!wheel::cancel(armed), "the old entry was already cancelled");
        rearm(&mut timer, 7, None, || {}).unwrap();
    }

    #[test]
    fn wanting_nothing_cancels_the_timer() {
        let mut timer = None;
        rearm(&mut timer, 7, None, || {}).unwrap();
        assert_eq!(timer, None);
        rearm(&mut timer, 7, Some(time::now() + Duration::from_secs(3600)), || {}).unwrap();
        let armed = timer.expect("armed");
        rearm(&mut timer, 7, None, || {}).unwrap();
        assert_eq!(timer, None);
        assert!(!wheel::cancel(armed), "the entry was already cancelled");
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
}
