//! A Datakit-style virtual-circuit switch fabric.
//!
//! Datakit [Fra80] is a circuit network: a host dials an address string
//! like `nj/astro/helix` and the switch establishes a full-duplex
//! circuit. The dial string may carry a service (`nj/astro/helix!9fs`):
//! the switch routes the call, on the dialer's thread, to the callee
//! line's announcement of that service, which accepts it or rejects it
//! with a reason — the paper notes "some networks such as Datakit accept
//! a reason for a rejection" (§5.2). A call no announcement takes is
//! rejected with `unknown service: S`.
//!
//! Circuits deliver frames in order; reliability and flow control are the
//! business of URP, the protocol the `plan9-datakit` crate pushes on top.
//!
//! Constructors here (and in [`ether`](crate::ether)/[`wire`](crate::wire))
//! bind the fabric to whatever clock is installed at build time: link
//! pacing, propagation delay, and impairment timing all read
//! `plan9_support::time`, so a fabric built under
//! `plan9_support::vtime::enter` runs entirely on the discrete-event
//! virtual clock, and every impairment draw comes from the profile's
//! [`seed`](crate::profile::LinkProfile::seed).

use crate::profile::LinkProfile;
use crate::wire::{wire_on_medium, Medium, WireRx, WireTx};
use plan9_support::chan::{unbounded, Receiver, SendError, Sender};
use plan9_support::fnv;
use plan9_support::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Tag bytes prefixed to circuit frames, so hangup reasons travel
/// in-band the way Datakit supervisory messages did.
const TAG_DATA: u8 = 0;
const TAG_REJECT: u8 = 1;

struct SwitchInner {
    lines: Mutex<HashMap<String, Services>>,
    profile: LinkProfile,
}

/// A line's announced services, each the queue its calls wait on; `*`
/// is the catch-all, which takes a call to any service not announced.
type Services = HashMap<String, Sender<IncomingCall>>;

/// What the switch answers a call no announcement takes.
fn unknown(service: &str) -> String {
    format!("unknown service: {service}")
}

/// The switch: a name table of attached lines.
pub struct DatakitSwitch {
    inner: Arc<SwitchInner>,
}

impl DatakitSwitch {
    /// Creates a switch whose circuits use the given link profile.
    pub fn new(profile: LinkProfile) -> Arc<DatakitSwitch> {
        Arc::new(DatakitSwitch {
            inner: Arc::new(SwitchInner {
                lines: Mutex::named(HashMap::new(), "netsim.fabric.lines"),
                profile,
            }),
        })
    }

    /// Attaches a host line under a Datakit address (`nj/astro/helix`),
    /// which is the line's until it is dropped.
    pub fn attach(&self, addr: &str) -> crate::Result<DatakitLine> {
        let mut lines = self.inner.lines.lock();
        if lines.contains_key(addr) {
            return Err(format!("datakit address in use: {addr}"));
        }
        lines.insert(addr.to_string(), Services::new());
        Ok(DatakitLine {
            addr: addr.to_string(),
            inner: Arc::clone(&self.inner),
        })
    }

    /// The circuit MTU for this switch.
    pub fn mtu(&self) -> usize {
        self.inner.profile.mtu.saturating_sub(1)
    }
}

/// A host's line into the switch.
pub struct DatakitLine {
    addr: String,
    inner: Arc<SwitchInner>,
}

/// A call presented to an announcement.
pub struct IncomingCall {
    /// The caller's Datakit address.
    pub from: String,
    /// The service named in the dial string (after `!`), if any.
    pub service: String,
    /// The circuit; use it to converse, or [`Circuit::reject`] it.
    pub circuit: Circuit,
}

impl DatakitLine {
    /// This line's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Announces `service` on this line (`*`: the catch-all). Calls
    /// naming it queue on the [`Announcement`] until it is closed.
    pub fn announce(&self, service: &str) -> crate::Result<Announcement> {
        let (tx, calls) = unbounded();
        let mut lines = self.inner.lines.lock();
        let services = lines.get_mut(&self.addr).ok_or_else(|| format!("line down: {}", self.addr))?;
        if services.contains_key(service) {
            return Err(format!("service in use: {service}"));
        }
        services.insert(service.to_string(), tx);
        Ok(Announcement {
            line: self.addr.clone(),
            service: service.to_string(),
            inner: Arc::clone(&self.inner),
            calls,
            closed: AtomicBool::new(false),
        })
    }

    /// Dials `dest` (an address, optionally `addr!service`) and returns
    /// the local end of the circuit. The call queues on the service's
    /// announcement, else on the line's catch-all, else is rejected;
    /// the switch never waits.
    pub fn dial(&self, dest: &str) -> crate::Result<Circuit> {
        let (addr, service) = dest.split_once('!').unwrap_or((dest, ""));
        let route = {
            let lines = self.inner.lines.lock();
            let services = lines.get(addr).ok_or_else(|| format!("no route to {addr}"))?;
            services.get(service).or_else(|| services.get("*")).cloned()
        };
        // Two wires, one per direction, each paced independently
        // (Datakit lines are full duplex).
        let wire = |from: &str, to: &str| {
            wire_on_medium(Medium::new(self.inner.profile.clone()), circuit_key(from, to))
        };
        let (a2b_tx, a2b_rx) = wire(&self.addr, addr);
        let (b2a_tx, b2a_rx) = wire(addr, &self.addr);
        let near = Circuit {
            local: self.addr.clone(),
            remote: addr.to_string(),
            tx: a2b_tx,
            rx: b2a_rx,
            reject_reason: Arc::new(Mutex::named(None, "netsim.fabric.reject")),
        };
        let far = Circuit {
            local: addr.to_string(),
            remote: self.addr.clone(),
            tx: b2a_tx,
            rx: a2b_rx,
            reject_reason: Arc::new(Mutex::named(None, "netsim.fabric.reject")),
        };
        let call = IncomingCall {
            from: self.addr.clone(),
            service: service.to_string(),
            circuit: far,
        };
        let unrouted = match route {
            Some(calls) => calls.send(call).err().map(|SendError(call)| call),
            None => Some(call),
        };
        if let Some(call) = unrouted {
            call.circuit.reject(&unknown(service));
        }
        Ok(near)
    }
}

impl Drop for DatakitLine {
    /// Takes the line out of the switch: its address is free again, and
    /// its announcements take no further call.
    fn drop(&mut self) {
        let services = self.inner.lines.lock().remove(&self.addr);
        drop(services);
    }
}

/// A service announced on a line: the queue its calls wait on until it
/// is closed. Dropping it closes it.
pub struct Announcement {
    line: String,
    service: String,
    inner: Arc<SwitchInner>,
    calls: Receiver<IncomingCall>,
    closed: AtomicBool,
}

impl Announcement {
    /// Blocks for the next call; `None` once the announcement is closed
    /// or its line is gone.
    pub fn accept(&self) -> Option<IncomingCall> {
        loop {
            let call = self.calls.recv().ok()?;
            // A dial routed here before a close may queue its call after
            // it: that call is rejected, never accepted.
            if !self.closed.load(Ordering::Acquire) {
                return Some(call);
            }
            call.circuit.reject(&unknown(&self.service));
        }
    }

    /// Ends the announcement: the service is free again, a waiting
    /// `accept` returns `None`, and every call queued is rejected.
    pub fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            let mut lines = self.inner.lines.lock();
            let ours = lines
                .get_mut(&self.line)
                .filter(|services| services.get(&self.service).is_some_and(|tx| self.calls.is_fed_by(tx)));
            let sender = ours.and_then(|services| services.remove(&self.service));
            drop(lines);
            drop(sender);
        }
        while let Ok(call) = self.calls.try_recv() {
            call.circuit.reject(&unknown(&self.service));
        }
    }
}

impl Drop for Announcement {
    fn drop(&mut self) {
        self.close();
    }
}

/// The pool key a circuit's frames from `from` to `to` arrive on: an
/// FNV-1a hash of the two addresses, so a seeded run replays.
fn circuit_key(from: &str, to: &str) -> u64 {
    fnv::hash(from.bytes().chain([0]).chain(to.bytes()))
}

/// One end of an established circuit.
pub struct Circuit {
    local: String,
    remote: String,
    tx: WireTx,
    rx: WireRx,
    reject_reason: Arc<Mutex<Option<String>>>,
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Circuit({} -> {})", self.local, self.remote)
    }
}

impl Circuit {
    /// The local address.
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// The peer's address.
    pub fn remote_addr(&self) -> &str {
        &self.remote
    }

    /// Sends one frame in order.
    pub fn send(&self, frame: &[u8]) -> crate::Result<()> {
        let mut buf = Vec::with_capacity(frame.len() + 1);
        buf.push(TAG_DATA);
        buf.extend_from_slice(frame);
        self.tx.send(&buf)
    }

    /// Blocks for the next frame; `None` means the peer hung up (check
    /// [`Circuit::reject_reason`] for a Datakit rejection).
    pub fn recv(&self) -> Option<Vec<u8>> {
        classify(&self.reject_reason, self.rx.recv()?)
    }

    /// Hands each frame to `handler` instead, at its arrival, and then
    /// `None` once for the hangup (a rejection is one too); see
    /// [`WireRx::set_rx_handler`].
    pub fn set_rx_handler(&self, handler: impl Fn(Option<Vec<u8>>) + Send + Sync + 'static) {
        let reason = Arc::clone(&self.reject_reason);
        self.rx.set_rx_handler(move |frame| handler(frame.and_then(|f| classify(&reason, f))));
    }

    /// The pool key this end's arrivals run on.
    pub fn rx_key(&self) -> u64 {
        self.rx.key()
    }

    /// Rejects the call with a reason and hangs up.
    pub fn reject(self, reason: &str) {
        let mut buf = vec![TAG_REJECT];
        buf.extend_from_slice(reason.as_bytes());
        let _ = self.tx.send(&buf);
        // Dropping self hangs up the circuit.
    }

    /// Why the peer rejected the call, if it did.
    pub fn reject_reason(&self) -> Option<String> {
        self.reject_reason.lock().clone()
    }

    /// The largest frame the circuit carries.
    pub fn mtu(&self) -> usize {
        self.tx.medium().profile().mtu.saturating_sub(1)
    }
}

/// A frame's data without its tag; `None` for a rejection, whose reason
/// is kept in `reason`.
fn classify(reason: &Mutex<Option<String>>, frame: Vec<u8>) -> Option<Vec<u8>> {
    match frame.first() {
        Some(&TAG_DATA) => Some(frame[1..].to_vec()),
        Some(&TAG_REJECT) => {
            *reason.lock() = Some(String::from_utf8_lossy(&frame[1..]).to_string());
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiles;

    #[test]
    fn dial_and_converse() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let helix = sw.attach("nj/astro/helix").unwrap();
        let gnot = sw.attach("nj/astro/philw-gnot").unwrap();
        let fs = helix.announce("9fs").unwrap();
        let listener = std::thread::spawn(move || {
            let call = fs.accept().unwrap();
            assert_eq!(call.from, "nj/astro/philw-gnot");
            assert_eq!(call.service, "9fs");
            let msg = call.circuit.recv().unwrap();
            call.circuit.send(&msg).unwrap(); // echo
            call.circuit.recv() // wait for hangup
        });
        let c = gnot.dial("nj/astro/helix!9fs").unwrap();
        c.send(b"Tattach").unwrap();
        assert_eq!(c.recv().unwrap(), b"Tattach");
        drop(c);
        assert_eq!(listener.join().unwrap(), None);
    }

    #[test]
    fn dial_unknown_address_fails() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let line = sw.attach("nj/astro/a").unwrap();
        let err = line.dial("nj/astro/nowhere").unwrap_err();
        assert!(err.contains("no route"), "{err}");
    }

    #[test]
    fn duplicate_address_refused() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let _a = sw.attach("nj/astro/x").unwrap();
        assert!(sw.attach("nj/astro/x").is_err());
    }

    #[test]
    fn rejection_carries_reason() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let srv = sw.attach("nj/astro/srv").unwrap();
        let cli = sw.attach("nj/astro/cli").unwrap();
        let nope = srv.announce("nope").unwrap();
        std::thread::spawn(move || {
            let call = nope.accept().unwrap();
            call.circuit.reject("service not available");
        });
        let c = cli.dial("nj/astro/srv!nope").unwrap();
        assert_eq!(c.recv(), None);
        assert_eq!(c.reject_reason().unwrap(), "service not available");
    }

    #[test]
    fn a_call_no_announcement_takes_is_rejected() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let srv = sw.attach("nj/astro/srv").unwrap();
        let cli = sw.attach("nj/astro/cli").unwrap();
        let rejected = |dest: &str| {
            let c = cli.dial(dest).unwrap();
            assert_eq!(c.recv(), None);
            c.reject_reason().unwrap()
        };
        assert_eq!(rejected("nj/astro/srv!echo"), "unknown service: echo");
        // Announced, a call queues; closed, the queued call is rejected
        // and the service is free to announce again.
        let echo = srv.announce("echo").unwrap();
        assert_eq!(srv.announce("echo").err().unwrap(), "service in use: echo");
        let queued = cli.dial("nj/astro/srv!echo").unwrap();
        echo.close();
        assert!(echo.accept().is_none());
        assert_eq!(queued.recv(), None);
        assert_eq!(queued.reject_reason().unwrap(), "unknown service: echo");
        drop(echo);
        let _again = srv.announce("echo").unwrap();
        // The catch-all takes what no announcement names.
        let all = srv.announce("*").unwrap();
        let _c = cli.dial("nj/astro/srv!other").unwrap();
        assert_eq!(all.accept().unwrap().service, "other");
        // A dropped line frees its address.
        drop(srv);
        assert!(cli.dial("nj/astro/srv!echo").unwrap_err().contains("no route"));
        assert!(sw.attach("nj/astro/srv").is_ok());
    }

    #[test]
    fn frames_stay_ordered() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let a = sw.attach("a").unwrap();
        let b = sw.attach("b").unwrap();
        let all = b.announce("*").unwrap();
        let t = std::thread::spawn(move || {
            let call = all.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(call.circuit.recv().unwrap()[0]);
            }
            got
        });
        let c = a.dial("b").unwrap();
        for i in 0..50u8 {
            c.send(&[i]).unwrap();
        }
        let got = t.join().unwrap();
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn hangup_follows_the_last_frame() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let a = sw.attach("a").unwrap();
        let b = sw.attach("b").unwrap();
        let all = b.announce("*").unwrap();
        let c = a.dial("b").unwrap();
        let call = all.accept().unwrap();
        c.send(b"bye").unwrap();
        drop(c);
        assert_eq!(call.circuit.recv().unwrap(), b"bye");
        assert_eq!(call.circuit.recv(), None);
        assert_eq!(call.circuit.recv(), None, "the hangup stays");
    }
}
