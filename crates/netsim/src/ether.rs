//! A shared-medium Ethernet segment.
//!
//! "Connections from the servers fan out to local terminals using medium
//! speed networks such as Ethernet." The segment is a true bus: every
//! transmission serializes all stations on one medium, and every station
//! is offered a copy of every frame. A station's controller filters by
//! address only when asked to ([`EtherStation::set_address_filter`]);
//! packet-type filtering is done *above*, in the Ethernet device driver,
//! because Plan 9's driver supports per-conversation packet types, the
//! `-1` receive-everything type, and promiscuous mode (§2.2), for which
//! it releases the address filter again.

use crate::profile::LinkProfile;
use crate::wire::{arrive, Medium};
use plan9_support::buf::Bytes;
use plan9_support::chan::{unbounded, Receiver};
use plan9_support::sync::Mutex;
use plan9_support::time;
use std::sync::Arc;
use std::time::Duration;

/// A six-byte station address.
pub type MacAddr = [u8; 6];

/// The broadcast address.
pub const BROADCAST: MacAddr = [0xff; 6];

/// Bytes of Ethernet header: dst(6) + src(6) + type(2).
pub const ETHER_HDR: usize = 14;

/// Largest frame (header + payload).
pub const ETHER_MTU: usize = 1514;

/// Formats a MAC address the way Plan 9's ndb does: 12 hex digits.
pub fn mac_to_string(m: &MacAddr) -> String {
    m.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a 12-hex-digit MAC address.
pub fn mac_from_string(s: &str) -> Option<MacAddr> {
    if s.len() != 12 {
        return None;
    }
    let mut m = [0u8; 6];
    for i in 0..6 {
        m[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
    }
    Some(m)
}

/// An assembled Ethernet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EtherFrame {
    /// Destination station.
    pub dst: MacAddr,
    /// Source station.
    pub src: MacAddr,
    /// Packet type (0x0800 = IP, 0x0806 = ARP, ...).
    pub ethertype: u16,
    /// Payload bytes: for a received frame, a view of the wire bytes
    /// every station on the segment shares.
    pub payload: Bytes,
}

/// Starts a frame: a buffer with room for `payload_len` more bytes,
/// holding the header. The caller appends the payload, so the wire
/// bytes are written once, where they are produced. The destination
/// is the frame's first six bytes, for a sender that learns it later
/// than it builds the frame (ARP's hold queue) to fill in then.
pub fn frame_with_header(
    dst: MacAddr,
    src: MacAddr,
    ethertype: u16,
    payload_len: usize,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ETHER_HDR + payload_len);
    buf.extend_from_slice(&dst);
    buf.extend_from_slice(&src);
    buf.extend_from_slice(&ethertype.to_be_bytes());
    buf
}

impl EtherFrame {
    /// Serializes the frame for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = frame_with_header(self.dst, self.src, self.ethertype, self.payload.len());
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Parses a frame from a copy of `buf`.
    pub fn decode(buf: &[u8]) -> Option<EtherFrame> {
        EtherFrame::from_wire(Bytes::from(buf.to_vec()))
    }

    /// Parses a frame off the wire; the payload is a view of `wire`.
    pub fn from_wire(wire: Bytes) -> Option<EtherFrame> {
        Some(EtherFrame {
            dst: wire.get(0..6)?.try_into().ok()?,
            src: wire.get(6..12)?.try_into().ok()?,
            ethertype: u16::from_be_bytes(wire.get(12..ETHER_HDR)?.try_into().ok()?),
            payload: wire.slice(ETHER_HDR..wire.len()),
        })
    }
}

/// What a station's controller hands each frame it accepts; see
/// [`EtherStation::set_rx_handler`].
type RxHandler = Arc<dyn Fn(EtherFrame) + Send + Sync>;

/// The pool key a station's frames arrive on until it registers a
/// handler: they only queue there for a blocking receive.
const QUEUE_KEY: u64 = 0;

#[derive(Clone)]
struct StationSlot {
    id: u64,
    addr: MacAddr,
    /// The pool shard key and the handler: at first the station's
    /// queue, which [`EtherStation::recv`] reads.
    handler: (u64, RxHandler),
    /// Hardware address filter: when set, the controller only accepts
    /// frames addressed to this station or to the broadcast address.
    /// Default is promiscuous (bridges and wire sniffers need every
    /// frame); endpoint stacks opt in so a busy shared segment costs
    /// each host only its own traffic.
    filtered: bool,
}

/// A shared Ethernet segment: attach stations, then send and receive.
pub struct EtherSegment {
    medium: Arc<Medium>,
    /// Copied on write: a transmitter takes the table and lets go of
    /// the lock before it delivers, so that a delivery it runs itself
    /// (see [`pool`]) runs under no lock of its.
    stations: Mutex<Arc<Vec<StationSlot>>>,
}

impl EtherSegment {
    /// Creates a segment with the given link profile.
    pub fn new(profile: LinkProfile) -> Arc<EtherSegment> {
        Arc::new(EtherSegment {
            medium: Medium::new(profile),
            stations: Mutex::named(Arc::default(), "netsim.ether.stations"),
        })
    }

    /// Attaches a station with the given address.
    pub fn attach(self: &Arc<Self>, addr: MacAddr) -> EtherStation {
        let (tx, rx) = unbounded();
        // try_send: the queue is unbounded and won't make a pool job wait.
        let queue: RxHandler = Arc::new(move |f| {
            let _ = tx.try_send(f);
        });
        let mut stations = self.stations.lock();
        let stations = Arc::make_mut(&mut stations);
        let id = stations.len() as u64;
        stations.push(StationSlot { id, addr, handler: (QUEUE_KEY, queue), filtered: false });
        EtherStation {
            addr,
            id,
            segment: Arc::clone(self),
            rx,
        }
    }

    /// The MTU of this segment.
    pub fn mtu(&self) -> usize {
        self.medium.profile().mtu
    }

    /// The shared medium under this segment (for its frame counters).
    pub fn medium(&self) -> &Arc<Medium> {
        &self.medium
    }

    /// Transmits raw frame bytes from `from`, offering them to every
    /// *other* station (bus semantics; controllers do not hear their own
    /// transmissions). The segment takes the frame: what the medium
    /// leaves of it is shared, not copied, among the receivers.
    fn broadcast(&self, from: MacAddr, mut frame: Vec<u8>) -> crate::Result<()> {
        if frame.len() < ETHER_HDR {
            return Err(format!(
                "runt ether frame of {} bytes has no header",
                frame.len()
            ));
        }
        if frame.len() > self.medium.profile().mtu {
            return Err(format!(
                "ether frame of {} bytes exceeds mtu {}",
                frame.len(),
                self.medium.profile().mtu
            ));
        }
        // The wire-delivery span: bus acquisition plus serialization,
        // attributed to whatever RPC is transmitting on this thread.
        let cur = plan9_netlog::trace::current();
        let t0 = cur.as_ref().map(|_| time::now());
        // Book a paced bus for the transmission time: a sender with a
        // thread of its own waits it out, a pool job does not.
        let off = self.medium.put(frame.len());
        if let (Some(h), Some(t0)) = (&cur, t0) {
            h.span(
                plan9_netlog::Facility::Ether,
                &format!("wire tx {}B", frame.len()),
                t0,
                time::now(),
            );
        }
        let (copies, extra) = self.medium.impair(&mut frame);
        if copies == 0 {
            return Ok(());
        }
        let at = self.medium.due(off, extra);
        // The one buffer the sender filled feeds every station's timer
        // event: a broadcast on a 250-host city segment costs no
        // memcpy at all, and each handler's frame is a view of it.
        let shared = Bytes::from(frame);
        // The destination address straight off the wire, for the
        // controllers' hardware filters.
        let dst: MacAddr = std::array::from_fn(|i| shared[i]);
        let bcast = dst == BROADCAST;
        let stations = Arc::clone(&self.stations.lock());
        for s in stations.iter() {
            if s.addr == from {
                continue;
            }
            if s.filtered && !bcast && dst != s.addr {
                continue;
            }
            // Arrival is the due-frame rule's: a wheel entry at the
            // propagation deadline, or a job on the station's shard now
            // if the frame is already due (an unpaced medium), which a
            // transmitter holding no lock runs itself: no thread handoff
            // and no clock read at all. The shard serializes a
            // station's deliveries.
            let (key, h) = &s.handler;
            for _ in 0..copies {
                let (h, wire) = (Arc::clone(h), shared.clone());
                arrive(*key, at, move || {
                    if let Some(f) = EtherFrame::from_wire(wire) {
                        h(f)
                    }
                });
            }
        }
        Ok(())
    }
}

/// One station (interface) on a segment.
pub struct EtherStation {
    /// The station's address.
    pub addr: MacAddr,
    id: u64,
    segment: Arc<EtherSegment>,
    rx: Receiver<EtherFrame>,
}

impl EtherStation {
    /// Transmits a frame; the source address is stamped from the station.
    pub fn send(&self, dst: MacAddr, ethertype: u16, payload: &[u8]) -> crate::Result<()> {
        let mut frame = frame_with_header(dst, self.addr, ethertype, payload.len());
        frame.extend_from_slice(payload);
        self.send_frame(frame)
    }

    /// Transmits a frame its sender built, header and all (see
    /// [`frame_with_header`]); the wire takes the buffer as it is.
    pub fn send_frame(&self, frame: Vec<u8>) -> crate::Result<()> {
        self.segment.broadcast(self.addr, frame)
    }

    /// Transmits a copy of pre-encoded frame bytes (a bridge's path).
    pub fn send_raw(&self, frame: &[u8]) -> crate::Result<()> {
        self.send_frame(frame.to_vec())
    }

    /// Blocks for the next frame on the wire (unfiltered), until the
    /// station registers a handler.
    pub fn recv(&self) -> Option<EtherFrame> {
        self.rx.recv().ok()
    }

    /// Waits for a frame until the timeout elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<EtherFrame> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Engages (or releases) the controller's hardware address filter:
    /// when on, only frames for this station's address or the broadcast
    /// address are accepted. Off by default — a bridge must stay
    /// promiscuous — but an endpoint stack should switch it on, so a
    /// shared segment of hundreds of hosts charges each one for its own
    /// traffic instead of the whole bus's.
    pub fn set_address_filter(&self, on: bool) {
        let mut stations = self.segment.stations.lock();
        if let Some(slot) = Arc::make_mut(&mut stations).iter_mut().find(|s| s.id == self.id) {
            slot.filtered = on;
        }
    }

    /// Hands each frame, decoded, to `handler` on the worker-pool shard
    /// for `key` instead of queueing it for
    /// [`recv`](EtherStation::recv). No receiver thread is needed, so a
    /// fabric of thousands of stations runs on O(cores) threads.
    /// Deliveries to one station are serialized by the shared shard
    /// key; the handler must not block on virtual time (it runs as a
    /// pool job, on a worker or on the transmitting thread).
    pub fn set_rx_handler(
        &self,
        key: u64,
        handler: impl Fn(EtherFrame) + Send + Sync + 'static,
    ) {
        let mut stations = self.segment.stations.lock();
        if let Some(slot) = Arc::make_mut(&mut stations).iter_mut().find(|s| s.id == self.id) {
            slot.handler = (key, Arc::new(handler));
        }
    }

    /// The maximum payload this station can send.
    pub fn payload_mtu(&self) -> usize {
        self.segment.mtu() - ETHER_HDR
    }

    /// The segment's shared medium (for its frame counters).
    pub fn medium(&self) -> &Arc<Medium> {
        self.segment.medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiles;
    use std::time::Instant;

    fn mac(n: u8) -> MacAddr {
        [0x08, 0x00, 0x69, 0x02, 0x22, n]
    }

    #[test]
    fn frame_codec_round_trip() {
        let f = EtherFrame {
            dst: BROADCAST,
            src: mac(1),
            ethertype: 0x0800,
            payload: b"payload".to_vec().into(),
        };
        assert_eq!(EtherFrame::decode(&f.encode()).unwrap(), f);
        assert!(EtherFrame::decode(&[0u8; 5]).is_none());
    }

    #[test]
    fn mac_string_round_trip() {
        let m = mac(0xf0);
        assert_eq!(mac_to_string(&m), "08006902 22f0".replace(' ', ""));
        assert_eq!(mac_from_string(&mac_to_string(&m)).unwrap(), m);
        assert!(mac_from_string("xyz").is_none());
    }

    #[test]
    fn every_other_station_hears() {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let a = seg.attach(mac(1));
        let b = seg.attach(mac(2));
        let c = seg.attach(mac(3));
        a.send(mac(2), 0x0800, b"to b").unwrap();
        // Both b and c hear it (bus); the driver filters by address.
        assert_eq!(b.recv().unwrap().payload, b"to b");
        assert_eq!(c.recv().unwrap().payload, b"to b");
        assert!(a.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn shared_medium_serializes_senders() {
        // With a 1 Mbit/s bus, 8 frames of 1250 bytes take 80 ms even
        // when sent from two stations concurrently.
        let profile = crate::profile::LinkProfile {
            bandwidth_bps: 1_000_000,
            ..Profiles::ether_fast()
        };
        let seg = EtherSegment::new(profile);
        let a = seg.attach(mac(1));
        let b = seg.attach(mac(2));
        let c = seg.attach(mac(3));
        let start = Instant::now();
        let ha = std::thread::spawn(move || {
            for _ in 0..4 {
                a.send(mac(3), 1, &[0u8; 1250]).unwrap();
            }
        });
        let hb = std::thread::spawn(move || {
            for _ in 0..4 {
                b.send(mac(3), 1, &[0u8; 1250]).unwrap();
            }
        });
        ha.join().unwrap();
        hb.join().unwrap();
        let mut got = 0;
        while c.recv_timeout(Duration::from_millis(100)).is_some() {
            got += 1;
            if got == 8 {
                break;
            }
        }
        assert_eq!(got, 8);
        assert!(start.elapsed() >= Duration::from_millis(75));
    }

    #[test]
    fn a_runt_frame_is_refused() {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let a = seg.attach(mac(1));
        let b = seg.attach(mac(2));
        // Too short to hold the addresses the segment routes by.
        for len in [0, 5, ETHER_HDR - 1] {
            let err = a.send_raw(&vec![0xff; len]).unwrap_err();
            assert!(err.contains("runt"), "{err}");
        }
        assert_eq!(seg.medium().stats().sent.get(), 0, "a runt reached the medium");
        // A header and nothing else is a frame.
        a.send_raw(&[0xff; ETHER_HDR]).unwrap();
        let f = b.recv().unwrap();
        assert_eq!((f.dst, f.ethertype, f.payload.len()), (BROADCAST, 0xffff, 0));
    }

    #[test]
    fn mtu_enforced() {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let a = seg.attach(mac(1));
        let _b = seg.attach(mac(2));
        assert!(a.send(mac(2), 1, &vec![0u8; 1600]).is_err());
    }
}
