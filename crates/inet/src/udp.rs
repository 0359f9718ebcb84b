//! UDP: unreliable datagrams. "UDP, while cheap, does not provide
//! reliable sequenced delivery" (§3) — it is here as the datagram
//! baseline and as the carrier for DNS queries.

use crate::addr::IpAddr;
use crate::checksum::{internet_checksum, internet_checksum_gather};
use crate::ip::IpStack;
use crate::conv::PortSpace;
use plan9_netlog::{Counter, Facility, NetLog};
use plan9_support::chan::{bounded, Receiver, Sender};
use plan9_support::sync::Mutex;
use plan9_ninep::NineError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// The IP protocol number for UDP.
pub const UDP_PROTO: u8 = 17;

/// Bytes of UDP header.
pub const UDP_HDR: usize = 8;

/// Per-socket receive queue depth; datagrams beyond it are dropped, as
/// UDP is entitled to do.
const SOCK_QUEUE: usize = 512;

type Datagram = (IpAddr, u16, Vec<u8>);

/// The per-stack UDP state.
pub struct UdpModule {
    binds: Mutex<HashMap<u16, Sender<Datagram>>>,
    ports: PortSpace,
    /// Datagrams dropped because no socket was bound.
    pub unreachable: Counter,
    /// Datagrams dropped for a bad length or checksum.
    pub csum_errors: Counter,
    /// Datagrams dropped because the socket queue was full.
    pub queue_drops: Counter,
    netlog: Arc<NetLog>,
}

impl UdpModule {
    pub(crate) fn new(netlog: &Arc<NetLog>) -> UdpModule {
        let reg = &netlog.registry;
        UdpModule {
            binds: Mutex::named(HashMap::new(), "inet.udp.binds"),
            ports: PortSpace::new(),
            unreachable: reg.counter("udp.unreachable"),
            csum_errors: reg.counter("udp.csumerr"),
            queue_drops: reg.counter("udp.queuedrops"),
            netlog: Arc::clone(netlog),
        }
    }

    /// Binds a socket on `port` (0 = ephemeral).
    pub fn bind(&self, stack: &Arc<IpStack>, port: u16) -> crate::Result<UdpSocket> {
        let port = self.ports.claim(port)?;
        let (tx, rx) = bounded(SOCK_QUEUE);
        self.binds.lock().insert(port, tx);
        Ok(UdpSocket {
            stack: Arc::downgrade(stack),
            port,
            rx,
            closed: AtomicBool::new(false),
        })
    }

    pub(crate) fn input(stack: &Arc<IpStack>, src: IpAddr, datagram: &[u8]) {
        let Some((sport, dport, payload)) = decode_udp(datagram) else {
            stack.udp.csum_errors.inc();
            stack
                .udp
                .netlog
                .events
                .log(Facility::Udp, || format!("csum error from {src}"));
            return;
        };
        let binds = stack.udp.binds.lock();
        match binds.get(&dport) {
            Some(tx) => {
                // try_send: a full queue drops the datagram, which UDP may.
                if tx.try_send((src, sport, payload.to_vec())).is_err() {
                    stack.udp.queue_drops.inc();
                }
            }
            None => {
                stack.udp.unreachable.inc();
                stack.udp.netlog.events.log(Facility::Udp, || {
                    format!("unreachable port {dport} from {src}")
                });
            }
        }
    }

    fn unbind(&self, port: u16) {
        self.binds.lock().remove(&port);
        self.ports.release(port);
    }
}

/// A bound UDP endpoint.
pub struct UdpSocket {
    stack: Weak<IpStack>,
    port: u16,
    rx: Receiver<Datagram>,
    closed: AtomicBool,
}

impl UdpSocket {
    /// The bound local port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Sends one datagram.
    pub fn send_to(&self, dst: IpAddr, dport: u16, payload: &[u8]) -> crate::Result<()> {
        let stack = self
            .stack
            .upgrade()
            .ok_or_else(|| NineError::new("stack is down"))?;
        let len = u16::try_from(UDP_HDR + payload.len())
            .map_err(|_| NineError::new("datagram too large for udp"))?;
        stack.send(dst, UDP_PROTO, &[&header(self.port, dport, len, payload), payload])
    }

    /// Blocks for the next datagram.
    pub fn recv(&self) -> crate::Result<Datagram> {
        self.rx
            .recv()
            .map_err(|_| NineError::new("socket closed"))
    }

    /// Waits for a datagram until the timeout elapses.
    pub fn recv_timeout(&self, d: Duration) -> crate::Result<Datagram> {
        self.rx
            .recv_timeout(d)
            .map_err(|_| NineError::new("timed out"))
    }

    /// Gives the port back, once. The binding held the queue's only
    /// sender, so a reader parked in [`UdpSocket::recv`] wakes with
    /// "socket closed" when what was queued has been read.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(stack) = self.stack.upgrade() {
            stack.udp.unbind(self.port);
        }
    }
}

impl Drop for UdpSocket {
    fn drop(&mut self) {
        self.close();
    }
}

/// The header of a datagram `len` bytes long carrying `payload`, its
/// checksum taken across both where they lie.
fn header(sport: u16, dport: u16, len: u16, payload: &[u8]) -> [u8; UDP_HDR] {
    let mut h = [0u8; UDP_HDR];
    h[0..2].copy_from_slice(&sport.to_be_bytes());
    h[2..4].copy_from_slice(&dport.to_be_bytes());
    h[4..6].copy_from_slice(&len.to_be_bytes());
    let sum = internet_checksum_gather(&[&h, payload]);
    h[6..8].copy_from_slice(&sum.to_be_bytes());
    h
}

/// Serializes a UDP datagram into a buffer of its own: the owning form
/// of the header [`UdpSocket::send_to`] hands to IP beside its payload.
/// A payload too long for the 16-bit length field has no encoding, and
/// `send_to` refuses it.
pub fn encode_udp(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    let len = (UDP_HDR + payload.len()) as u16;
    let mut b = Vec::with_capacity(len as usize);
    b.extend_from_slice(&header(sport, dport, len, payload));
    b.extend_from_slice(payload);
    b
}

/// Parses a UDP datagram, verifying length and checksum.
pub fn decode_udp(datagram: &[u8]) -> Option<(u16, u16, &[u8])> {
    if datagram.len() < UDP_HDR {
        return None;
    }
    let len = u16::from_be_bytes([datagram[4], datagram[5]]) as usize;
    if len < UDP_HDR || len > datagram.len() {
        return None;
    }
    if internet_checksum(&datagram[..len]) != 0 {
        return None;
    }
    Some((
        u16::from_be_bytes([datagram[0], datagram[1]]),
        u16::from_be_bytes([datagram[2], datagram[3]]),
        &datagram[UDP_HDR..len],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::tests::two_hosts;

    #[test]
    fn codec_round_trip() {
        let d = encode_udp(5000, 53, b"query");
        let (s, p, data) = decode_udp(&d).unwrap();
        assert_eq!((s, p, data), (5000, 53, &b"query"[..]));
    }

    #[test]
    fn corruption_detected() {
        let mut d = encode_udp(1, 2, b"fragile");
        d[9] ^= 0x40;
        assert!(decode_udp(&d).is_none());
    }

    #[test]
    fn datagrams_flow_both_ways() {
        let (a, b) = two_hosts();
        let sa = a.udp_module().bind(&a, 1000).unwrap();
        let sb = b.udp_module().bind(&b, 2000).unwrap();
        sa.send_to(b.addr(), 2000, b"ping").unwrap();
        let (src, sport, data) = sb.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((src, sport, data.as_slice()), (a.addr(), 1000, &b"ping"[..]));
        sb.send_to(a.addr(), 1000, b"pong").unwrap();
        let (_, _, data) = sa.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(data, b"pong");
    }

    #[test]
    fn double_bind_fails_and_drop_releases() {
        let (a, _b) = two_hosts();
        let s = a.udp_module().bind(&a, 53).unwrap();
        assert!(a.udp_module().bind(&a, 53).is_err());
        drop(s);
        let _again = a.udp_module().bind(&a, 53).unwrap();
    }

    #[test]
    fn unbound_port_counts_unreachable() {
        let (a, b) = two_hosts();
        let sa = a.udp_module().bind(&a, 0).unwrap();
        sa.send_to(b.addr(), 4444, b"void").unwrap();
        // Give the receiver a moment.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.udp.unreachable.get(), 1);
    }
}
