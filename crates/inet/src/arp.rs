//! ARP: resolving IP addresses to Ethernet station addresses.
//!
//! The paper's LANCE driver exposes "user-level protocols like ARP" as
//! connections on the Ethernet device; here ARP is the kernel-side user
//! of that facility, with a cache and request/reply handling.

use crate::addr::IpAddr;
use plan9_support::sync::Mutex;
use plan9_netsim::ether::MacAddr;
use std::collections::HashMap;

/// The Ethernet packet type for ARP.
pub const ARP_ETHERTYPE: u16 = 0x0806;

/// The Ethernet packet type for IP.
pub const IP_ETHERTYPE: u16 = 0x0800;

/// ARP request opcode.
pub const ARP_REQUEST: u16 = 1;

/// ARP reply opcode.
pub const ARP_REPLY: u16 = 2;

/// A parsed ARP packet (Ethernet/IPv4 flavor only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// [`ARP_REQUEST`] or [`ARP_REPLY`].
    pub op: u16,
    /// Sender's station address.
    pub sender_mac: MacAddr,
    /// Sender's IP address.
    pub sender_ip: IpAddr,
    /// Target's station address (zeros in a request).
    pub target_mac: MacAddr,
    /// Target's IP address.
    pub target_ip: IpAddr,
}

impl ArpPacket {
    /// Serializes to the 28-byte wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(28);
        b.extend_from_slice(&1u16.to_be_bytes()); // htype: ethernet
        b.extend_from_slice(&IP_ETHERTYPE.to_be_bytes()); // ptype: ip
        b.push(6); // hlen
        b.push(4); // plen
        b.extend_from_slice(&self.op.to_be_bytes());
        b.extend_from_slice(&self.sender_mac);
        b.extend_from_slice(&self.sender_ip.octets());
        b.extend_from_slice(&self.target_mac);
        b.extend_from_slice(&self.target_ip.octets());
        b
    }

    /// Parses the wire format; `None` for anything but Ethernet/IPv4.
    pub fn decode(b: &[u8]) -> Option<ArpPacket> {
        if b.len() < 28 {
            return None;
        }
        if u16::from_be_bytes([b[0], b[1]]) != 1
            || u16::from_be_bytes([b[2], b[3]]) != IP_ETHERTYPE
            || b[4] != 6
            || b[5] != 4
        {
            return None;
        }
        Some(ArpPacket {
            op: u16::from_be_bytes([b[6], b[7]]),
            sender_mac: b.get(8..14)?.try_into().ok()?,
            sender_ip: IpAddr(u32::from_be_bytes(b.get(14..18)?.try_into().ok()?)),
            target_mac: b.get(18..24)?.try_into().ok()?,
            target_ip: IpAddr(u32::from_be_bytes(b.get(24..28)?.try_into().ok()?)),
        })
    }
}

/// Most packets a single unresolved next-hop may have parked on the
/// cache; older packets are dropped first, like a real ARP hold queue.
pub const HOLD_PER_HOST: usize = 8;

/// Most distinct unresolved next-hops with parked packets.
pub const HOLD_HOSTS: usize = 32;

/// The ARP cache, shared between the sender path (lookups) and the
/// receiver kernel process (learning).
///
/// The cache also carries the *hold queue*: the transmit path runs on
/// pool shards and wheel callbacks where sleeping is forbidden, so an
/// unresolved send parks its packet here ([`ArpCache::hold`]) and the
/// receive path flushes it when the mapping is learned
/// ([`ArpCache::take_held`]).
pub struct ArpCache {
    entries: Mutex<HashMap<IpAddr, MacAddr>>,
    pending: Mutex<HashMap<IpAddr, Vec<Vec<u8>>>>,
}

impl Default for ArpCache {
    fn default() -> Self {
        ArpCache::new()
    }
}

impl ArpCache {
    /// Creates an empty cache.
    pub fn new() -> ArpCache {
        ArpCache {
            entries: Mutex::named(HashMap::new(), "inet.arp"),
            pending: Mutex::named(HashMap::new(), "inet.arp.pending"),
        }
    }

    /// Parks a built frame — complete but for the station address it
    /// is waiting to learn — until `ip` resolves. Returns `false`
    /// when a packet was lost to make room: either the host table is
    /// full (the new packet is dropped) or the per-host queue is full
    /// (the oldest parked packet is evicted — the newest is the live
    /// one). Senders count that, they don't retry here. Bounded in
    /// both dimensions ([`HOLD_PER_HOST`], [`HOLD_HOSTS`]) so a flood
    /// of sends to a silent host cannot grow memory.
    pub fn hold(&self, ip: IpAddr, frame: Vec<u8>) -> bool {
        let mut pending = self.pending.lock();
        if !pending.contains_key(&ip) && pending.len() >= HOLD_HOSTS {
            return false;
        }
        let q = pending.entry(ip).or_default();
        let evicted = q.len() >= HOLD_PER_HOST;
        if evicted {
            q.remove(0);
        }
        q.push(frame);
        !evicted
    }

    /// Takes every frame parked for `ip`, in arrival order.
    pub fn take_held(&self, ip: IpAddr) -> Vec<Vec<u8>> {
        self.pending.lock().remove(&ip).unwrap_or_default()
    }

    /// Packets currently parked across all hosts.
    pub fn held_len(&self) -> usize {
        self.pending.lock().values().map(Vec::len).sum()
    }

    /// Inserts or refreshes a mapping. What waits for it is parked in
    /// the hold queue, which the caller flushes.
    pub fn learn(&self, ip: IpAddr, mac: MacAddr) {
        self.entries.lock().insert(ip, mac);
    }

    /// Non-blocking lookup.
    pub fn lookup(&self, ip: IpAddr) -> Option<MacAddr> {
        self.entries.lock().get(&ip).copied()
    }

    /// A snapshot of the cache for the `/net/arp` diagnostic file.
    pub fn entries(&self) -> Vec<(IpAddr, MacAddr)> {
        let mut out: Vec<(IpAddr, MacAddr)> =
            self.entries.lock().iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_key(|(ip, _)| ip.0);
        out
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip() {
        let p = ArpPacket {
            op: ARP_REQUEST,
            sender_mac: [1, 2, 3, 4, 5, 6],
            sender_ip: IpAddr::new(135, 104, 9, 31),
            target_mac: [0; 6],
            target_ip: IpAddr::new(135, 104, 9, 6),
        };
        assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn decode_rejects_junk() {
        assert!(ArpPacket::decode(&[0u8; 10]).is_none());
        let mut ok = ArpPacket {
            op: ARP_REPLY,
            sender_mac: [0; 6],
            sender_ip: IpAddr::ANY,
            target_mac: [0; 6],
            target_ip: IpAddr::ANY,
        }
        .encode();
        ok[4] = 8; // wrong hlen
        assert!(ArpPacket::decode(&ok).is_none());
    }
}
