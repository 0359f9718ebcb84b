//! Cyclone point-to-point fiber links (§7).
//!
//! "A link consists of two VME cards connected by a pair of optical
//! fibers ... drive the lines at 125 Mbit/sec. Software in the VME card
//! reduces latency by copying messages from system memory to fiber
//! without intermediate buffering." The simulated link is a reliable,
//! ordered, full-duplex frame pipe whose calibrated profile reflects the
//! VME-copy-limited effective throughput the paper measured (3.2 MB/s).

use crate::profile::LinkProfile;
use crate::wire::{wire_on_medium, Medium, WireRx, WireTx};
use std::sync::Arc;

/// One end of a Cyclone link.
pub struct CycloneEnd {
    tx: WireTx,
    rx: WireRx,
}

impl CycloneEnd {
    /// Sends one message; the VME card preserves message boundaries.
    pub fn send(&self, frame: &[u8]) -> crate::Result<()> {
        self.tx.send(frame)
    }

    /// Blocks for the next message; `None` means the far end is gone.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.rx.recv()
    }

    /// Hands each message to `handler` instead of queueing it for
    /// [`recv`](CycloneEnd::recv), then `None` once the far end is gone
    /// (see [`WireRx::set_rx_handler`]).
    pub fn set_rx_handler(&self, handler: impl Fn(Option<Vec<u8>>) + Send + Sync + 'static) {
        self.rx.set_rx_handler(handler)
    }

    /// The largest message the link carries.
    pub fn mtu(&self) -> usize {
        self.tx.medium().profile().mtu
    }

    /// The medium of this end's *transmit* fiber. A full-duplex link is
    /// two independent fibers; reach the other direction through the
    /// other end's `medium()`.
    pub fn medium(&self) -> &Arc<Medium> {
        self.tx.medium()
    }
}

/// Creates a full-duplex Cyclone link (two fibers, one per direction),
/// whose arrivals run on the pool keys `profile.seed` and the one after.
pub fn cyclone_link(profile: LinkProfile) -> (CycloneEnd, CycloneEnd) {
    let key = profile.seed;
    let (a2b_tx, a2b_rx) = wire_on_medium(Medium::new(profile.clone()), key);
    let (b2a_tx, b2a_rx) = wire_on_medium(Medium::new(profile), key.wrapping_add(1));
    (CycloneEnd { tx: a2b_tx, rx: b2a_rx }, CycloneEnd { tx: b2a_tx, rx: a2b_rx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiles;

    #[test]
    fn full_duplex_round_trip() {
        let (a, b) = cyclone_link(Profiles::cyclone_fast());
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn large_messages_up_to_mtu() {
        let (a, b) = cyclone_link(Profiles::cyclone_fast());
        let msg = vec![0xCD; a.mtu()];
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), msg);
        assert!(a.send(&vec![0u8; a.mtu() + 1]).is_err());
    }

    #[test]
    fn hangup_on_drop() {
        let (a, b) = cyclone_link(Profiles::cyclone_fast());
        drop(a);
        assert_eq!(b.recv(), None);
    }

    #[test]
    fn directions_are_independent() {
        // A send in one direction doesn't block the other direction.
        let (a, b) = cyclone_link(Profiles::cyclone_fast());
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
            b.send(&[i + 100]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), &[i]);
            assert_eq!(a.recv().unwrap(), &[i + 100]);
        }
    }
}
