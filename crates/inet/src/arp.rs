//! ARP: resolving IP addresses to Ethernet station addresses.
//!
//! The paper's LANCE driver exposes "user-level protocols like ARP" as
//! connections on the Ethernet device; here ARP is the kernel-side user
//! of that facility, with a cache and request/reply handling.

use crate::addr::IpAddr;
use plan9_support::fnv::FnvMap;
use plan9_support::sync::Mutex;
use plan9_netsim::ether::MacAddr;

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
/// receive path (learning).
///
/// The cache also carries the *hold queue*: the transmit path runs on
/// pool shards and wheel callbacks where sleeping is forbidden, so an
/// unresolved send parks its frame here ([`ArpCache::send_or_hold`])
/// and the receive path takes it when the mapping is learned
/// ([`ArpCache::learn`], [`ArpCache::heard`]). Both live under one
/// lock, so a frame is never parked after the mapping it waits for has
/// come, and a frame costs the cache one acquisition on each side.
pub struct ArpCache {
    table: Mutex<Table>,
}

struct Table {
    entries: FnvMap<IpAddr, MacAddr>,
    /// Frames parked for a next hop whose mapping is unknown, in the
    /// order they were sent.
    held: FnvMap<IpAddr, Vec<Vec<u8>>>,
}

/// What [`ArpCache::send_or_hold`] did with a frame.
#[derive(Debug)]
pub enum Resolved {
    /// The mapping is known: the frame goes to this station.
    Known(MacAddr, Vec<u8>),
    /// The frame is parked until the mapping is learned; `false` when a
    /// frame was lost to make room (see [`ArpCache::send_or_hold`]).
    Held(bool),
}

impl Default for ArpCache {
    fn default() -> Self {
        ArpCache::new()
    }
}

impl ArpCache {
    /// Creates an empty cache.
    pub fn new() -> ArpCache {
        let table = Table { entries: FnvMap::default(), held: FnvMap::default() };
        ArpCache { table: Mutex::named(table, "inet.arp") }
    }

    /// Where a built frame for next hop `ip` goes: to the known
    /// mapping, or — complete but for the station address it is
    /// waiting to learn — onto the hold queue until `ip` resolves.
    /// Parking loses a frame when the host table is full (the new
    /// frame is dropped) or the per-host queue is (the oldest parked
    /// frame is evicted — the newest is the live one). Senders count
    /// that, they don't retry here. Bounded in both dimensions
    /// ([`HOLD_PER_HOST`], [`HOLD_HOSTS`]) so a flood of sends to a
    /// silent host cannot grow memory.
    pub fn send_or_hold(&self, ip: IpAddr, frame: Vec<u8>) -> Resolved {
        let mut t = self.table.lock();
        if let Some(&mac) = t.entries.get(&ip) {
            return Resolved::Known(mac, frame);
        }
        if !t.held.contains_key(&ip) && t.held.len() >= HOLD_HOSTS {
            return Resolved::Held(false);
        }
        let q = t.held.entry(ip).or_default();
        let evicted = q.len() >= HOLD_PER_HOST;
        if evicted {
            q.remove(0);
        }
        q.push(frame);
        Resolved::Held(!evicted)
    }

    /// Inserts or refreshes a mapping (an ARP packet's sender), and
    /// takes the frames held for `ip`, in the order they were sent, for
    /// the caller to send to `mac`.
    pub fn learn(&self, ip: IpAddr, mac: MacAddr) -> Vec<Vec<u8>> {
        let mut t = self.table.lock();
        t.entries.insert(ip, mac);
        t.held.remove(&ip).unwrap_or_default()
    }

    /// A frame from `ip` came from station `mac`, which *is* a mapping:
    /// learns it if none is known, but never overwrites a known one
    /// (a frame's source is weaker evidence than an ARP reply). Returns
    /// the mapping in force and the frames held for `ip`, in the order
    /// they were sent, for the caller to send to it. With nothing held
    /// this allocates nothing.
    pub fn heard(&self, ip: IpAddr, mac: MacAddr) -> (MacAddr, Vec<Vec<u8>>) {
        let mut t = self.table.lock();
        let mac = *t.entries.entry(ip).or_insert(mac);
        (mac, t.held.remove(&ip).unwrap_or_default())
    }

    /// Frames currently parked across all hosts.
    pub fn held_len(&self) -> usize {
        self.table.lock().held.values().map(Vec::len).sum()
    }

    /// Non-blocking lookup.
    pub fn lookup(&self, ip: IpAddr) -> Option<MacAddr> {
        self.table.lock().entries.get(&ip).copied()
    }

    /// A snapshot of the cache for the `/net/arp` diagnostic file.
    pub fn entries(&self) -> Vec<(IpAddr, MacAddr)> {
        let mut out: Vec<(IpAddr, MacAddr)> =
            self.table.lock().entries.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_key(|(ip, _)| ip.0);
        out
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.table.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.table.lock().entries.is_empty()
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
