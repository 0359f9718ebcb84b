//! The IP layer: encapsulation, ARP resolution, routing to the gateway,
//! fragmentation and reassembly, and dispatch to the transport modules.
//!
//! One [`IpStack`] represents one host's IP interface on one Ethernet
//! segment, and owns the interface's one station. The station runs in
//! push mode: every inbound frame, and every packet the host sends
//! itself, is a job on the stack's worker-pool shard that dispatches to
//! UDP, TCP or IL. ARP and IP are the kernel's own conversations on the
//! interface (packet types 2054 and 2048, §2.2); the Ethernet device's
//! conversations read the same frames through [`IpStack::set_rx_tap`].

use crate::addr::IpAddr;
use crate::arp::{ArpCache, ArpPacket, ARP_ETHERTYPE, ARP_REPLY, ARP_REQUEST, IP_ETHERTYPE};
use crate::checksum::internet_checksum;
use crate::conv::shard_key;
use crate::{il, tcp, udp};
use plan9_netlog::{Counter, NetLog, Registry};
use plan9_support::buf::Bytes;
use plan9_support::copysite::Site;
use plan9_support::sync::Mutex;
use plan9_support::{pool, time};

static ENCODE_SITE: Site = Site::new("ip.encode");
static REASSEMBLE_SITE: Site = Site::new("ip.reassemble");
use plan9_netsim::ether::{
    frame_with_header, EtherFrame, EtherStation, MacAddr, BROADCAST, ETHER_HDR,
};
use plan9_ninep::NineError;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Bytes of IP header (no options).
pub const IP_HDR: usize = 20;

/// The largest transport datagram: what the header's 16-bit total
/// length can say, less the header. Its last fragment then starts at
/// most 8189 eight-byte units in, inside the 13-bit offset field.
pub const IP_MAX_DATAGRAM: usize = u16::MAX as usize - IP_HDR;

/// How long a partially reassembled datagram is kept.
pub const FRAG_TTL: Duration = Duration::from_secs(5);

/// Interface configuration, as it would come from the ndb entry for the
/// system (`ip=135.104.9.31 ipmask=255.255.255.0 ipgw=135.104.9.1`).
#[derive(Debug, Clone)]
pub struct IpConfig {
    /// This interface's address.
    pub addr: IpAddr,
    /// The subnet mask.
    pub mask: IpAddr,
    /// Default gateway for off-subnet destinations.
    pub gateway: Option<IpAddr>,
}

impl IpConfig {
    /// A host on a /24 with no gateway.
    pub fn local(addr: &str) -> IpConfig {
        IpConfig {
            // checked: config-time constructor over a literal, not a packet path
            addr: IpAddr::parse(addr).expect("bad address literal"),
            mask: IpAddr::new(255, 255, 255, 0),
            gateway: None,
        }
    }
}

/// Counters reported through the protocol devices' `stats` files.
/// All live in the stack's netlog [`Registry`] under `ip.*` names.
pub struct IpStats {
    /// Packets delivered up from the wire.
    pub rx_packets: Counter,
    /// Packets sent.
    pub tx_packets: Counter,
    /// Packets dropped for bad checksum or malformed headers.
    pub rx_errors: Counter,
    /// Datagrams reassembled from fragments.
    pub reassembled: Counter,
    /// Fragments emitted.
    pub fragments_out: Counter,
    /// Packets parked on the ARP hold queue awaiting resolution.
    pub arp_held: Counter,
    /// Packets dropped because the hold queue was full.
    pub arp_dropped: Counter,
}

impl IpStats {
    fn new(reg: &Registry) -> IpStats {
        IpStats {
            rx_packets: reg.counter("ip.rx"),
            tx_packets: reg.counter("ip.tx"),
            rx_errors: reg.counter("ip.rxerr"),
            reassembled: reg.counter("ip.reassembled"),
            fragments_out: reg.counter("ip.fragout"),
            arp_held: reg.counter("ip.arpheld"),
            arp_dropped: reg.counter("ip.arpdrop"),
        }
    }
}

struct FragBuf {
    /// Views of the frames the fragments arrived in, by offset.
    parts: BTreeMap<u16, Bytes>,
    total: Option<usize>,
    created: Instant,
}

/// A parsed IP datagram header.
#[derive(Debug, Clone, Copy)]
pub struct IpHeader {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport protocol number.
    pub proto: u8,
    /// Identification for reassembly.
    pub id: u16,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// More-fragments flag.
    pub more_frags: bool,
}

type RxTap = Box<dyn Fn(&EtherFrame) + Send + Sync>;

/// One host interface: IP over a simulated Ethernet station.
pub struct IpStack {
    cfg: IpConfig,
    station: EtherStation,
    /// Self-reference for requeueing loopback packets onto the pool.
    me: Weak<IpStack>,
    /// The pool/wheel shard key that serializes this station's frames.
    shard: u64,
    /// The Ethernet device's view of the receive path.
    tap: OnceLock<RxTap>,
    /// The ARP cache (public for diagnostics and tests).
    pub arp: ArpCache,
    frag: Mutex<HashMap<(u32, u16), FragBuf>>,
    ip_id: AtomicU16,
    closed: AtomicBool,
    /// Traffic counters.
    pub stats: IpStats,
    /// The machine-wide instrumentation block: metric registry plus
    /// the `/net/log` event ring. One per stack, so simulated hosts
    /// sharing a process keep separate diagnostics.
    netlog: Arc<NetLog>,
    pub(crate) udp: udp::UdpModule,
    pub(crate) tcp: tcp::TcpModule,
    pub(crate) il: il::IlModule,
}

impl IpStack {
    /// Brings up an interface. There are no receiver threads: the
    /// station is switched to push mode and every inbound frame is
    /// serviced on this stack's worker-pool shard, so a fabric of
    /// thousands of hosts runs on O(cores) threads.
    ///
    /// Service jobs may not wait on virtual time, and the transmit
    /// path never does: an ARP miss parks the packet on the cache's
    /// hold queue and the receive path flushes it once the mapping is
    /// learned, so even a first-contact transmit from an ack or a
    /// retransmission timer is safe on a shard.
    pub fn new_pooled(station: EtherStation, cfg: IpConfig) -> Arc<IpStack> {
        // Named by the MAC plus the interface address.
        let shard = shard_key(station.addr.into_iter().chain(cfg.addr.0.to_be_bytes()));
        // An IP host only consumes its own unicasts and broadcasts;
        // let the controller filter the rest off the bus.
        station.set_address_filter(true);
        let netlog = NetLog::new();
        // The wire's own frame accounting is every station's to show.
        for cell in station.medium().stats().cells() {
            netlog.registry.adopt(cell);
        }
        let stack = Arc::new_cyclic(|me| IpStack {
            cfg,
            station,
            me: me.clone(),
            shard,
            tap: OnceLock::new(),
            arp: ArpCache::new(),
            frag: Mutex::named(HashMap::new(), "inet.ip.frag"),
            ip_id: AtomicU16::new(1),
            closed: AtomicBool::new(false),
            stats: IpStats::new(&netlog.registry),
            udp: udp::UdpModule::new(&netlog),
            tcp: tcp::TcpModule::new(&netlog),
            il: il::IlModule::new(&netlog),
            netlog,
        });
        let me = Arc::downgrade(&stack);
        stack.station.set_rx_handler(shard, move |frame| {
            let Some(stack) = me.upgrade() else { return };
            if stack.is_shutdown() {
                return;
            }
            if let Some(tap) = stack.tap.get() {
                tap(&frame);
            }
            match frame.ethertype {
                ARP_ETHERTYPE => stack.handle_arp(&frame.payload),
                IP_ETHERTYPE => stack.handle_ip(Some(frame.src), frame.payload),
                _ => {}
            }
        });
        stack
    }

    /// Registers the interface's second reader: `tap` is called on the
    /// station's shard for every frame the controller accepts, before
    /// ARP and IP see it — "if several connections on an interface are
    /// configured for a particular packet type, each receives a copy"
    /// (§2.2), and this is where the Ethernet device takes its copies.
    /// Like the handler it rides in, `tap` may not wait. An interface
    /// has one device, so a second registration is a bug.
    pub fn set_rx_tap(&self, tap: impl Fn(&EtherFrame) + Send + Sync + 'static) {
        assert!(self.tap.set(Box::new(tap)).is_ok(), "rx tap already registered");
    }

    /// The interface's station, for the Ethernet device to send on and
    /// to release the address filter of.
    pub fn station(&self) -> &EtherStation {
        &self.station
    }

    /// This interface's address.
    pub fn addr(&self) -> IpAddr {
        self.cfg.addr
    }

    /// The largest transport payload that fits in one IP packet on this
    /// medium without fragmentation.
    pub fn mtu(&self) -> usize {
        self.station.payload_mtu() - IP_HDR
    }

    /// Stops servicing frames. Existing connections will fail.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether the stack has been shut down.
    fn is_shutdown(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Access to the UDP transport.
    pub fn udp_module(&self) -> &udp::UdpModule {
        &self.udp
    }

    /// Access to the TCP transport.
    pub fn tcp_module(&self) -> &tcp::TcpModule {
        &self.tcp
    }

    /// Access to the IL transport.
    pub fn il_module(&self) -> &il::IlModule {
        &self.il
    }

    /// The stack's instrumentation block (metrics + event log).
    pub fn netlog(&self) -> &Arc<NetLog> {
        &self.netlog
    }

    fn handle_arp(&self, payload: &[u8]) {
        let Some(pkt) = ArpPacket::decode(payload) else {
            return;
        };
        // Learn the sender unconditionally; hosts that talk to us are
        // hosts we will talk back to.
        self.arp.learn(pkt.sender_ip, pkt.sender_mac);
        self.flush_held(pkt.sender_ip, pkt.sender_mac);
        if pkt.op == ARP_REQUEST && pkt.target_ip == self.cfg.addr {
            let reply = ArpPacket {
                op: ARP_REPLY,
                sender_mac: self.station.addr,
                sender_ip: self.cfg.addr,
                target_mac: pkt.sender_mac,
                target_ip: pkt.sender_ip,
            };
            let _ = self
                .station
                .send(pkt.sender_mac, ARP_ETHERTYPE, &reply.encode());
        }
    }

    fn handle_ip(self: &Arc<Self>, src_mac: Option<MacAddr>, packet: Bytes) {
        let Some((hdr, payload)) = decode_ip(&packet) else {
            self.stats.rx_errors.inc();
            return;
        };
        // The transports get a view of the frame, not a copy.
        let payload = packet.slice(IP_HDR..IP_HDR + payload.len());
        if hdr.dst != self.cfg.addr && hdr.dst != IpAddr::BROADCAST {
            // Not ours: hosts do not forward, and a promiscuous ether
            // conversation lets other hosts' unicasts past the
            // controller's address filter.
            return;
        }
        // In-band ARP: a frame from a peer *is* its address mapping.
        // Without this, a host that learned our address passively (from
        // a broadcast it overheard) dials us without ever ARPing, and
        // our replies would sit on the hold queue until it did.
        // Transparent bridges preserve the original source address, so
        // the mapping is correct across segments too.
        if let Some(mac) = src_mac {
            if self.arp.lookup(hdr.src).is_none() {
                self.arp.learn(hdr.src, mac);
            }
            self.flush_held(hdr.src, mac);
        }
        let assembled = if hdr.frag_offset == 0 && !hdr.more_frags {
            Some(payload)
        } else {
            self.reassemble(&hdr, payload)
        };
        let Some(data) = assembled else {
            return;
        };
        self.stats.rx_packets.inc();
        match hdr.proto {
            udp::UDP_PROTO => udp::UdpModule::input(self, hdr.src, &data),
            tcp::TCP_PROTO => tcp::TcpModule::input(self, hdr.src, data),
            il::IL_PROTO => il::IlModule::input(self, hdr.src, data),
            _ => {}
        }
    }

    /// Holds a fragment; the one that completes its datagram gets the
    /// whole, which is the only time the fragments' bytes are copied.
    fn reassemble(&self, hdr: &IpHeader, payload: Bytes) -> Option<Bytes> {
        let mut frags = self.frag.lock();
        // Purge stale entries while we are here.
        let now = time::now();
        frags.retain(|_, f| now.saturating_duration_since(f.created) < FRAG_TTL);
        let key = (hdr.src.0, hdr.id);
        let buf = frags.entry(key).or_insert_with(|| FragBuf {
            parts: BTreeMap::new(),
            total: None,
            created: time::now(),
        });
        if !hdr.more_frags {
            buf.total = Some(hdr.frag_offset as usize * 8 + payload.len());
        }
        buf.parts.insert(hdr.frag_offset, payload);
        let total = buf.total?;
        // Check contiguity from offset zero.
        let mut have = 0usize;
        for (off, part) in &buf.parts {
            if *off as usize * 8 != have {
                return None;
            }
            have += part.len();
        }
        if have != total {
            return None;
        }
        REASSEMBLE_SITE.record(total);
        let mut out = Vec::with_capacity(total);
        for part in buf.parts.values() {
            out.extend_from_slice(part);
        }
        frags.remove(&key);
        self.stats.reassembled.inc();
        Some(Bytes::from(out))
    }

    /// Sends a transport datagram to `dst`, fragmenting as needed. The
    /// datagram is the concatenation of `parts` (a transport's header,
    /// then its payload): each is copied from where it lies into the
    /// frames that carry it, and nowhere else on the way to the wire.
    pub fn send(&self, dst: IpAddr, proto: u8, parts: &[&[u8]]) -> crate::Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > IP_MAX_DATAGRAM {
            return Err(NineError::new(format!(
                "datagram of {len} bytes exceeds the {IP_MAX_DATAGRAM} ip can carry"
            )));
        }
        let cur = plan9_netlog::trace::current();
        let t0 = cur.as_ref().map(|_| time::now());
        let r = self.send_inner(dst, proto, parts, len);
        if let (Some(h), Some(t0)) = (cur, t0) {
            h.span(
                plan9_netlog::Facility::Ip,
                &format!("ip tx {len}B"),
                t0,
                time::now(),
            );
        }
        r
    }

    fn send_inner(&self, dst: IpAddr, proto: u8, parts: &[&[u8]], len: usize) -> crate::Result<()> {
        let id = self.ip_id.fetch_add(1, Ordering::Relaxed);
        let mtu_payload = self.mtu();
        if len <= mtu_payload {
            return self.send_one(dst, proto, id, parts, 0..len, false);
        }
        // Fragment on 8-byte boundaries.
        let chunk = mtu_payload & !7;
        let mut off = 0usize;
        while off < len {
            let end = (off + chunk).min(len);
            self.send_one(dst, proto, id, parts, off..end, end < len)?;
            self.stats.fragments_out.inc();
            off = end;
        }
        Ok(())
    }

    /// Builds and transmits the frame carrying bytes `range` of the
    /// datagram `parts` — the one copy between a transport's buffers
    /// and the controller.
    fn send_one(
        &self,
        dst: IpAddr,
        proto: u8,
        id: u16,
        parts: &[&[u8]],
        range: std::ops::Range<usize>,
        more_frags: bool,
    ) -> crate::Result<()> {
        let hdr = IpHeader {
            src: self.cfg.addr,
            dst,
            proto,
            id,
            // In range: `send` bounds the datagram by IP_MAX_DATAGRAM.
            frag_offset: (range.start / 8) as u16,
            more_frags,
        };
        // The station address to send to is filled in below, or when
        // ARP learns it.
        let mut frame =
            frame_with_header([0; 6], self.station.addr, IP_ETHERTYPE, IP_HDR + range.len());
        put_header(&mut frame, &hdr, (IP_HDR + range.len()) as u16);
        let (mut skip, mut want) = (range.start, range.len());
        for part in parts {
            let from = skip.min(part.len());
            let upto = part.len().min(from + want);
            frame.extend_from_slice(&part[from..upto]);
            skip -= from;
            want -= upto - from;
        }
        ENCODE_SITE.record(frame.len());
        self.stats.tx_packets.inc();
        if dst == self.cfg.addr {
            // Loopback: serviced on this stack's own shard, like a
            // frame off the wire.
            let me = self.me.clone();
            let packet = Bytes::from(frame);
            pool::submit_or_run(self.shard, move || {
                if let Some(stack) = me.upgrade() {
                    if !stack.is_shutdown() {
                        stack.handle_ip(None, packet.slice(ETHER_HDR..packet.len()));
                    }
                }
            });
            return Ok(());
        }
        if dst == IpAddr::BROADCAST {
            return self.transmit(BROADCAST, frame);
        }
        let next_hop = self.next_hop(dst)?;
        if let Some(mac) = self.arp.lookup(next_hop) {
            return self.transmit(mac, frame);
        }
        // ARP miss. The transmit path runs on pool shards and wheel
        // callbacks where sleeping on virtual time deadlocks the
        // kernel, so there is no waiting here at all: park the packet
        // on the cache's hold queue, solicit, and let the receive path
        // flush it when the reply (or any frame from the peer) teaches
        // us the mapping. An unreachable host costs a bounded hold
        // queue, not a stalled shard.
        if self.arp.hold(next_hop, frame) {
            self.stats.arp_held.inc();
        } else {
            self.stats.arp_dropped.inc();
        }
        let req = ArpPacket {
            op: ARP_REQUEST,
            sender_mac: self.station.addr,
            sender_ip: self.cfg.addr,
            target_mac: [0; 6],
            target_ip: next_hop,
        };
        self.station
            .send(BROADCAST, ARP_ETHERTYPE, &req.encode())
            .map_err(NineError::new)?;
        // The reply may have raced the hold: flush immediately if the
        // mapping is already in.
        if let Some(mac) = self.arp.lookup(next_hop) {
            self.flush_held(next_hop, mac);
        }
        Ok(())
    }

    /// Routes `dst` to the on-link next hop.
    fn next_hop(&self, dst: IpAddr) -> crate::Result<IpAddr> {
        if self.cfg.addr.same_net(dst, self.cfg.mask) {
            Ok(dst)
        } else {
            self.cfg
                .gateway
                .ok_or_else(|| NineError::new(format!("no route to {dst}")))
        }
    }

    /// Addresses a built frame to `mac` and gives it to the wire.
    fn transmit(&self, mac: MacAddr, mut frame: Vec<u8>) -> crate::Result<()> {
        frame[..6].copy_from_slice(&mac);
        self.station.send_frame(frame).map_err(NineError::new)
    }

    /// Sends every frame parked for `ip` now that its MAC is known.
    fn flush_held(&self, ip: IpAddr, mac: MacAddr) {
        for frame in self.arp.take_held(ip) {
            let _ = self.transmit(mac, frame);
        }
    }
}

/// Appends the IP header of a packet `total` bytes long, all told.
fn put_header(b: &mut Vec<u8>, hdr: &IpHeader, total: u16) {
    let at = b.len();
    b.push(0x45); // version 4, ihl 5
    b.push(0); // tos
    b.extend_from_slice(&total.to_be_bytes());
    b.extend_from_slice(&hdr.id.to_be_bytes());
    let frag_word = (hdr.frag_offset & 0x1fff) | if hdr.more_frags { 0x2000 } else { 0 };
    b.extend_from_slice(&frag_word.to_be_bytes());
    b.push(64); // ttl
    b.push(hdr.proto);
    b.extend_from_slice(&[0, 0]); // checksum placeholder
    b.extend_from_slice(&hdr.src.octets());
    b.extend_from_slice(&hdr.dst.octets());
    let sum = internet_checksum(&b[at..]);
    b[at + 10..at + 12].copy_from_slice(&sum.to_be_bytes());
}

/// Serializes an IP header + payload into a packet of its own: the
/// owning form of the header [`IpStack::send`] writes into its frames.
/// `payload` is at most [`IP_MAX_DATAGRAM`] bytes, as `send` ensures of
/// its own: the length field is 16 bits.
pub fn encode_ip(hdr: &IpHeader, payload: &[u8]) -> Vec<u8> {
    let total = (IP_HDR + payload.len()) as u16;
    ENCODE_SITE.record(total as usize);
    let mut b = Vec::with_capacity(total as usize);
    put_header(&mut b, hdr, total);
    b.extend_from_slice(payload);
    b
}

/// Parses an IP packet, verifying the header checksum and length.
pub fn decode_ip(packet: &[u8]) -> Option<(IpHeader, &[u8])> {
    if packet.len() < IP_HDR || packet[0] != 0x45 {
        return None;
    }
    if internet_checksum(&packet[..IP_HDR]) != 0 {
        return None;
    }
    let total = u16::from_be_bytes([packet[2], packet[3]]) as usize;
    if total < IP_HDR || total > packet.len() {
        return None;
    }
    let frag_word = u16::from_be_bytes([packet[6], packet[7]]);
    Some((
        IpHeader {
            src: IpAddr(u32::from_be_bytes(packet.get(12..16)?.try_into().ok()?)),
            dst: IpAddr(u32::from_be_bytes(packet.get(16..20)?.try_into().ok()?)),
            proto: packet[9],
            id: u16::from_be_bytes([packet[4], packet[5]]),
            frag_offset: frag_word & 0x1fff,
            more_frags: frag_word & 0x2000 != 0,
        },
        &packet[IP_HDR..total],
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use plan9_netsim::ether::EtherSegment;
    use plan9_netsim::profile::Profiles;

    fn mac(n: u8) -> plan9_netsim::ether::MacAddr {
        [0x08, 0x00, 0x69, 0, 0, n]
    }

    pub(crate) fn two_hosts() -> (Arc<IpStack>, Arc<IpStack>) {
        two_hosts_on(&EtherSegment::new(Profiles::ether_fast()))
    }

    /// Two hosts on `seg`, for a test that means to cut the wire.
    pub(crate) fn two_hosts_on(seg: &Arc<EtherSegment>) -> (Arc<IpStack>, Arc<IpStack>) {
        let a = IpStack::new_pooled(seg.attach(mac(1)), IpConfig::local("10.0.0.1"));
        let b = IpStack::new_pooled(seg.attach(mac(2)), IpConfig::local("10.0.0.2"));
        (a, b)
    }

    #[test]
    fn header_codec_round_trip() {
        let hdr = IpHeader {
            src: IpAddr::new(10, 0, 0, 1),
            dst: IpAddr::new(10, 0, 0, 2),
            proto: 40,
            id: 7,
            frag_offset: 0,
            more_frags: false,
        };
        let pkt = encode_ip(&hdr, b"data");
        let (h2, p2) = decode_ip(&pkt).unwrap();
        assert_eq!(h2.src, hdr.src);
        assert_eq!(h2.dst, hdr.dst);
        assert_eq!(h2.proto, 40);
        assert_eq!(p2, b"data");
    }

    #[test]
    fn corrupted_header_rejected() {
        let hdr = IpHeader {
            src: IpAddr::new(1, 2, 3, 4),
            dst: IpAddr::new(5, 6, 7, 8),
            proto: 6,
            id: 1,
            frag_offset: 0,
            more_frags: false,
        };
        let mut pkt = encode_ip(&hdr, b"x");
        pkt[12] ^= 0xff;
        assert!(decode_ip(&pkt).is_none());
    }

    #[test]
    fn arp_resolution_happens_automatically() {
        let (a, b) = two_hosts();
        // UDP send triggers ARP under the hood.
        let sock_b = b.udp_module().bind(&b, 9999).unwrap();
        let sock_a = a.udp_module().bind(&a, 0).unwrap();
        sock_a
            .send_to(IpAddr::parse("10.0.0.2").unwrap(), 9999, b"hello")
            .unwrap();
        let (src, _sport, data) = sock_b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(data, b"hello");
        assert_eq!(src, IpAddr::parse("10.0.0.1").unwrap());
        assert!(!a.arp.is_empty());
    }

    #[test]
    fn off_subnet_without_gateway_fails() {
        let (a, _b) = two_hosts();
        let err = a.send(IpAddr::new(192, 168, 1, 1), 17, &[b"x"]).unwrap_err();
        assert!(err.0.contains("no route"), "{err}");
    }

    #[test]
    fn unreachable_host_parks_without_blocking() {
        // A send to a silent host must return immediately — the tx
        // path runs on shards and wheel callbacks where sleeping in
        // ARP resolution (the old behavior) stalls the kernel. The
        // packet parks on the hold queue instead, bounded per host.
        let (a, _b) = two_hosts();
        let ghost = IpAddr::new(10, 0, 0, 99);
        let t0 = std::time::Instant::now();
        for _ in 0..(crate::arp::HOLD_PER_HOST + 3) {
            a.send(ghost, 17, &[b"x"]).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "send blocked: {:?}",
            t0.elapsed()
        );
        assert_eq!(a.arp.held_len(), crate::arp::HOLD_PER_HOST);
        assert_eq!(a.stats.arp_dropped.get(), 3);
    }

    #[test]
    fn held_packet_flushes_when_peer_resolves() {
        // The first datagram to a cold peer rides the hold queue: the
        // send returns at once, the ARP exchange happens in the
        // background, and the parked packet goes out when the reply
        // lands — nothing is lost and nothing blocks. This is the
        // checkflow blocking-context finding (wheel/pool transmit
        // reaching the old blocking `resolve`) fixed for real.
        let (a, b) = two_hosts();
        let sock_b = b.udp_module().bind(&b, 4242).unwrap();
        let sock_a = a.udp_module().bind(&a, 0).unwrap();
        assert!(a.arp.lookup(IpAddr::new(10, 0, 0, 2)).is_none());
        sock_a
            .send_to(IpAddr::parse("10.0.0.2").unwrap(), 4242, b"first-contact")
            .unwrap();
        let (_src, _sport, data) = sock_b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(data, b"first-contact");
        // Resolution completed behind the send.
        assert!(a.arp.lookup(IpAddr::new(10, 0, 0, 2)).is_some());
    }

    #[test]
    fn loopback_delivery() {
        let (a, _b) = two_hosts();
        let sock = a.udp_module().bind(&a, 777).unwrap();
        let me = a.addr();
        sock.send_to(me, 777, b"self").unwrap();
        let (_src, _sport, data) = sock.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(data, b"self");
    }

    #[test]
    fn fragmentation_and_reassembly() {
        let (a, b) = two_hosts();
        let sock_b = b.udp_module().bind(&b, 5001).unwrap();
        let sock_a = a.udp_module().bind(&a, 0).unwrap();
        // Larger than the 1500-byte MTU: must fragment and reassemble.
        let big: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        sock_a
            .send_to(IpAddr::parse("10.0.0.2").unwrap(), 5001, &big)
            .unwrap();
        let (_s, _p, data) = sock_b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(data, big);
        assert!(a.stats.fragments_out.get() >= 3);
        assert_eq!(b.stats.reassembled.get(), 1);
    }
}
