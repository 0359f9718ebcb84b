//! A Datakit-style virtual-circuit switch fabric.
//!
//! Datakit [Fra80] is a circuit network: a host dials an address string
//! like `nj/astro/helix` and the switch establishes a full-duplex
//! circuit. The dial string may carry a service (`nj/astro/helix!9fs`),
//! delivered to the callee during call setup; the callee accepts or
//! rejects with a reason — the paper notes "some networks such as Datakit
//! accept a reason for a rejection" (§5.2).
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
use crate::wire::{wire_pair, RecvOutcome, WireRx, WireTx};
use plan9_support::chan::{unbounded, Receiver, Sender};
use plan9_support::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Tag bytes prefixed to circuit frames, so hangup reasons travel
/// in-band the way Datakit supervisory messages did.
const TAG_DATA: u8 = 0;
const TAG_REJECT: u8 = 1;

struct SwitchInner {
    lines: Mutex<HashMap<String, Sender<IncomingCall>>>,
    profile: LinkProfile,
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

    /// Attaches a host line under a Datakit address (`nj/astro/helix`).
    pub fn attach(&self, addr: &str) -> crate::Result<DatakitLine> {
        let (tx, rx) = unbounded();
        let mut lines = self.inner.lines.lock();
        if lines.contains_key(addr) {
            return Err(format!("datakit address in use: {addr}"));
        }
        lines.insert(addr.to_string(), tx);
        Ok(DatakitLine {
            addr: addr.to_string(),
            inner: Arc::clone(&self.inner),
            incoming: rx,
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
    incoming: Receiver<IncomingCall>,
}

/// A call presented to a listening line.
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

    /// Dials `dest` (an address, optionally `addr!service`) and returns
    /// the local end of the circuit.
    pub fn dial(&self, dest: &str) -> crate::Result<Circuit> {
        let (addr, service) = match dest.split_once('!') {
            Some((a, s)) => (a, s),
            None => (dest, ""),
        };
        let peer_tx = {
            let lines = self.inner.lines.lock();
            lines
                .get(addr)
                .cloned()
                .ok_or_else(|| format!("no route to {addr}"))?
        };
        // Two wires, one per direction, each paced independently
        // (Datakit lines are full duplex).
        let (a2b_tx, a2b_rx) = wire_pair(self.inner.profile.clone());
        let (b2a_tx, b2a_rx) = wire_pair(self.inner.profile.clone());
        let near = Circuit {
            local: self.addr.clone(),
            remote: addr.to_string(),
            tx: a2b_tx,
            rx: Mutex::named(b2a_rx, "netsim.fabric.rx"),
            reject_reason: Mutex::named(None, "netsim.fabric.reject"),
        };
        let far = Circuit {
            local: addr.to_string(),
            remote: self.addr.clone(),
            tx: b2a_tx,
            rx: Mutex::named(a2b_rx, "netsim.fabric.rx"),
            reject_reason: Mutex::named(None, "netsim.fabric.reject"),
        };
        peer_tx
            .send(IncomingCall {
                from: self.addr.clone(),
                service: service.to_string(),
                circuit: far,
            })
            .map_err(|_| format!("line down: {addr}"))?;
        Ok(near)
    }

    /// Blocks for the next incoming call; `None` once the line is
    /// unplugged and the calls already placed have been taken.
    pub fn listen(&self) -> Option<IncomingCall> {
        self.incoming.recv().ok()
    }

    /// Takes the line out of the switch: its address is free again and
    /// no further call reaches it.
    pub fn unplug(&self) {
        self.inner.lines.lock().remove(&self.addr);
    }

    /// Waits for an incoming call with a timeout.
    pub fn listen_timeout(&self, d: Duration) -> Option<IncomingCall> {
        self.incoming.recv_timeout(d).ok()
    }
}

/// One end of an established circuit.
pub struct Circuit {
    local: String,
    remote: String,
    tx: WireTx,
    rx: Mutex<WireRx>,
    reject_reason: Mutex<Option<String>>,
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
        let frame = self.rx.lock().recv()?;
        self.classify(frame)
    }

    /// Waits for a frame until the timeout elapses.
    pub fn recv_timeout(&self, d: Duration) -> RecvOutcome {
        let out = self.rx.lock().recv_timeout(d);
        match out {
            RecvOutcome::Frame(frame) => match self.classify(frame) {
                Some(f) => RecvOutcome::Frame(f),
                None => RecvOutcome::Hangup,
            },
            other => other,
        }
    }

    fn classify(&self, frame: Vec<u8>) -> Option<Vec<u8>> {
        match frame.first() {
            Some(&TAG_DATA) => Some(frame[1..].to_vec()),
            Some(&TAG_REJECT) => {
                let reason = String::from_utf8_lossy(&frame[1..]).to_string();
                *self.reject_reason.lock() = Some(reason);
                None
            }
            _ => None,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiles;

    #[test]
    fn dial_and_converse() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let helix = sw.attach("nj/astro/helix").unwrap();
        let gnot = sw.attach("nj/astro/philw-gnot").unwrap();
        let listener = std::thread::spawn(move || {
            let call = helix.listen().unwrap();
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
        std::thread::spawn(move || {
            let call = srv.listen().unwrap();
            call.circuit.reject("service not available");
        });
        let c = cli.dial("nj/astro/srv!nope").unwrap();
        assert_eq!(c.recv(), None);
        assert_eq!(c.reject_reason().unwrap(), "service not available");
    }

    #[test]
    fn frames_stay_ordered() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let a = sw.attach("a").unwrap();
        let b = sw.attach("b").unwrap();
        let t = std::thread::spawn(move || {
            let call = b.listen().unwrap();
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
    fn hangup_detected_by_timeout_recv() {
        let sw = DatakitSwitch::new(Profiles::datakit_fast());
        let a = sw.attach("a").unwrap();
        let b = sw.attach("b").unwrap();
        let c = a.dial("b").unwrap();
        let call = b.listen().unwrap();
        drop(c);
        assert_eq!(
            call.circuit.recv_timeout(Duration::from_millis(50)),
            RecvOutcome::Hangup
        );
    }
}
