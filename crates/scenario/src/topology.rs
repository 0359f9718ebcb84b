//! Generated topologies: N cities of M pooled machines on per-city
//! Ethernets, Cyclone trunks between cities, gateways at the borders.
//!
//! The layout reproduces the paper's geography in miniature. Each city
//! is one shared Ethernet segment carrying a border gateway (a full
//! [`Machine`] with ndb, CS, DNS and an exportable `/net`) and M pooled
//! host stacks (no threads — frame delivery and protocol timers ride
//! the worker pool). Cities form a line; trunk *t* is a full-duplex
//! Cyclone link between city *t* and city *t+1*, spliced into both
//! segments by transparent bridges. A bridge is no thread either: it is
//! two handlers on the pool, one each way, and a pool job's send books
//! the line without waiting for it.
//!
//! Bridging exploits the addressing plan from
//! [`plan9_ndb::gen::topo_addr`]: byte 3 of every station address *is*
//! the city number, so a bridge needs no learning table. On a line of
//! cities the loop-free rule is positional: the bridge facing higher
//! cities forwards unicast frames addressed above it (and broadcasts
//! travelling up), its mirror forwards the rest. Every segment sees
//! exactly one copy of every frame that must cross it, and since the
//! bus never echoes a sender's own frame back, there are no loops.
//!
//! All interfaces get a zero subnet mask, so IP considers the whole
//! 10.x internet on-link and resolves any destination with ARP — the
//! broadcasts cross the bridges like any other frame. That keeps the
//! simulated internet a flat layer-2 world; what makes the gateways
//! *gateways* is the application layer: each one exports `/net` at the
//! city border (§6.1), which the scenario engine wires into standing
//! import flows.

use plan9_core::machine::{Machine, MachineBuilder};
use plan9_cs::SimInternet;
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_inet::IpAddr;
use plan9_ndb::gen::{generate_topology, TopoNdb};
use plan9_netsim::cyclone::{cyclone_link, CycloneEnd};
use plan9_netsim::ether::{
    mac_from_string, EtherFrame, EtherSegment, EtherStation, MacAddr, BROADCAST,
};
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_netsim::wire::Medium;
use std::sync::Arc;
use std::time::Duration;

/// The paper's global-file scale: "Our global file ... has 43,000
/// lines" (§4.1). [`Topology::grid_with`] pads its generated ndb to
/// this many lines when asked to.
pub const PAPER_NDB_LINES: usize = 43_000;

/// The IL port every city server listens on (`il=9fs` in the service
/// map).
pub const SERVE_PORT: u16 = 17008;

/// One city: a shared segment, its border gateway, and the pooled
/// host stacks. `hosts[0]` doubles as the city's file server in the
/// scenario engine.
pub struct City {
    /// Position on the trunk line.
    pub index: usize,
    /// The city's shared Ethernet.
    pub segment: Arc<EtherSegment>,
    /// The border gateway machine (thread-mode stack, full `/net`).
    pub gateway: Arc<Machine>,
    /// Pooled machine stacks, `hosts[h]` at the address
    /// `topo_addr(index, h + 2)`.
    pub hosts: Vec<Arc<IpStack>>,
}

/// A full-duplex Cyclone trunk between adjacent cities: two
/// independent fibers whose media can be downed and re-upped for
/// flaps and partitions.
pub struct Trunk {
    /// Lower city.
    pub a: usize,
    /// Higher city (`a + 1`).
    pub b: usize,
    media: [Arc<Medium>; 2],
}

impl Trunk {
    /// Downs or restores both fibers.
    pub fn set_up(&self, up: bool) {
        for m in &self.media {
            m.set_up(up);
        }
    }

    /// Whether the trunk currently carries frames.
    pub fn is_up(&self) -> bool {
        self.media.iter().all(|m| m.is_up())
    }

    /// True when this trunk crosses the cut that puts `left` on one
    /// side and everything else on the other.
    pub fn crosses(&self, left: &[usize]) -> bool {
        left.contains(&self.a) != left.contains(&self.b)
    }
}

/// Which way a bridge faces on the trunk line.
#[derive(Clone, Copy)]
enum Facing {
    /// On city `c`, forwarding toward cities above it.
    Higher(usize),
    /// On city `c`, forwarding toward cities below it.
    Lower(usize),
}

fn forwards(facing: Facing, f: &EtherFrame) -> bool {
    let bcast = f.dst == BROADCAST;
    let dst_city = f.dst[3] as usize;
    let src_city = f.src[3] as usize;
    match facing {
        // Broadcasts ride outward from their source city; unicasts
        // follow the city byte. Both rules deliver exactly one copy
        // per segment on a line.
        Facing::Higher(c) => {
            if bcast {
                src_city <= c
            } else {
                dst_city > c
            }
        }
        Facing::Lower(c) => {
            if bcast {
                src_city >= c
            } else {
                dst_city < c
            }
        }
    }
}

/// An N-city internet, alive until [`shutdown`](Topology::shutdown).
pub struct Topology {
    /// The cities, in line order.
    pub cities: Vec<City>,
    /// Trunk `t` joins cities `t` and `t+1`.
    pub trunks: Vec<Arc<Trunk>>,
    /// The generated database: text plus structured host records.
    pub ndb: TopoNdb,
    /// The DNS world every gateway resolves against.
    pub internet: Arc<SimInternet>,
    /// Both ends of every trunk: the bridges' stations hold them only
    /// weakly, so dropping them here ends the bridges.
    ends: Vec<Arc<CycloneEnd>>,
}

/// Fabric-wide frame accounting for one medium.
pub struct MediumReport {
    /// Stable medium name (`city0.ether`, `trunk1-2.up`, ...).
    pub name: String,
    /// Frames offered.
    pub sent: u64,
    /// Copies delivered.
    pub delivered: u64,
    /// Frames dropped (loss or downed link).
    pub dropped: u64,
    /// Extra copies from duplication.
    pub duplicated: u64,
}

impl MediumReport {
    /// The conservation identity every medium must satisfy.
    pub fn holds(&self) -> bool {
        self.delivered == self.sent - self.dropped + self.duplicated
    }
}

/// The fabric-wide conservation check: per-medium reports plus totals.
pub struct Conservation {
    /// One report per medium, in fixed order (cities, then trunks).
    pub media: Vec<MediumReport>,
}

impl Conservation {
    /// Media violating `delivered == sent - dropped + duplicated`.
    pub fn violations(&self) -> usize {
        self.media.iter().filter(|m| !m.holds()).count()
    }

    /// Canonical render: one sorted-order line per medium plus a
    /// total line, byte-stable across identical runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let (mut s, mut d, mut dr, mut du) = (0u64, 0u64, 0u64, 0u64);
        for m in &self.media {
            out.push_str(&format!(
                "conservation {} sent={} delivered={} dropped={} duplicated={} ok={}\n",
                m.name, m.sent, m.delivered, m.dropped, m.duplicated, m.holds()
            ));
            s += m.sent;
            d += m.delivered;
            dr += m.dropped;
            du += m.duplicated;
        }
        out.push_str(&format!(
            "conservation total media={} sent={s} delivered={d} dropped={dr} \
             duplicated={du} violations={}\n",
            self.media.len(),
            self.violations()
        ));
        out
    }
}

/// A modern-ish city Ethernet: gigabit-class pacing with a whisper of
/// propagation, so scenario latencies are physical quantities (a flash
/// crowd queues on the bus and the p99 shows it) without being slow
/// enough for a crowd to starve the handshake timers.
fn city_ether() -> LinkProfile {
    LinkProfile {
        bandwidth_bps: 1_000_000_000,
        propagation: Duration::from_micros(5),
        per_frame: Duration::from_micros(1),
        ..Profiles::ether_fast()
    }
}

/// An inter-city Cyclone trunk: fast fiber, but the cities are far
/// apart — the 300us one-way delay dominates cross-city RTTs the way
/// the paper's long-haul links did.
fn trunk_cyclone() -> LinkProfile {
    LinkProfile {
        bandwidth_bps: 622_000_000,
        propagation: Duration::from_micros(300),
        per_frame: Duration::from_micros(2),
        ..Profiles::cyclone_fast()
    }
}

/// Everything on the flat internet is on-link; ARP does the rest.
fn flat_cfg(ip: &str) -> IpConfig {
    IpConfig {
        addr: IpAddr::parse(ip).expect("generated ip literal"),
        mask: IpAddr::new(0, 0, 0, 0),
        gateway: None,
    }
}

fn parse_mac(ether: &str) -> MacAddr {
    mac_from_string(ether).expect("generated ether literal")
}

impl Topology {
    /// Builds an N-city line whose generated database has `ndb_lines`
    /// lines ([`PAPER_NDB_LINES`] for the paper's scale; tests take
    /// fewer than 43k lines a machine).
    pub fn grid_with(
        n_cities: usize,
        hosts_per_city: usize,
        ndb_lines: usize,
        seed: u64,
    ) -> Topology {
        assert!(n_cities >= 1, "at least one city");
        assert!(hosts_per_city >= 1, "at least one host per city");
        assert!(n_cities < 0xff, "city fits the MAC city byte");
        let ndb = generate_topology(n_cities, hosts_per_city, ndb_lines, seed);

        // The DNS world: a zone per city under `sim`, every generated
        // host and gateway registered, the filler population left out
        // (NXDOMAIN fodder).
        let internet = SimInternet::new();
        internet.add_zone("sim");
        for c in 0..n_cities {
            internet.add_zone(&format!("city{c}.sim"));
        }
        for h in ndb.hosts.iter().chain(ndb.gateways.iter()) {
            internet.register(&h.dom, "ip", &h.ip);
        }

        let segments: Vec<Arc<EtherSegment>> = (0..n_cities)
            .map(|c| {
                EtherSegment::new(city_ether().with_seed(seed.wrapping_add(c as u64)))
            })
            .collect();

        // Trunks and their bridges.
        let mut ends = Vec::new();
        let mut trunks = Vec::new();
        for t in 0..n_cities.saturating_sub(1) {
            let (near, far) =
                cyclone_link(trunk_cyclone().with_seed(seed ^ (0x7071 + t as u64)));
            let (near, far) = (Arc::new(near), Arc::new(far));
            let media = [Arc::clone(near.medium()), Arc::clone(far.medium())];
            trunks.push(Arc::new(Trunk { a: t, b: t + 1, media }));
            // 0x0a in the OUI keeps bridge addresses clear of host
            // space; byte 3 is the bridge's own city so positional
            // filtering stays consistent if anyone ever unicasts one.
            let hi_mac: MacAddr = [0x08, 0x00, 0x0a, t as u8, 0x01, t as u8];
            let lo_mac: MacAddr = [0x08, 0x00, 0x0a, (t + 1) as u8, 0x00, t as u8];
            let key = 0xb21d_6e00 + 2 * t as u64;
            bridge(segments[t].attach(hi_mac), &near, Facing::Higher(t), key);
            bridge(segments[t + 1].attach(lo_mac), &far, Facing::Lower(t + 1), key + 1);
            ends.extend([near, far]);
        }

        // Cities: one gateway machine plus M pooled stacks each.
        let mut cities = Vec::new();
        for (c, segment) in segments.into_iter().enumerate() {
            let gw = &ndb.gateways[c];
            let gateway = MachineBuilder::new(&gw.sys)
                .ether(&segment, parse_mac(&gw.ether), flat_cfg(&gw.ip))
                .ndb(&ndb.text)
                .internet(&internet)
                .build()
                .expect("build gateway machine");
            let hosts: Vec<Arc<IpStack>> = (0..hosts_per_city)
                .map(|h| {
                    let th = &ndb.hosts[c * hosts_per_city + h];
                    IpStack::new_pooled(
                        segment.attach(parse_mac(&th.ether)),
                        flat_cfg(&th.ip),
                    )
                })
                .collect();
            cities.push(City {
                index: c,
                segment,
                gateway,
                hosts,
            });
        }

        Topology {
            cities,
            trunks,
            ndb,
            internet,
            ends,
        }
    }

    /// The trunk joining cities `a` and `b`, if adjacent.
    pub fn trunk_between(&self, a: usize, b: usize) -> Option<&Arc<Trunk>> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.trunks.iter().find(|t| t.a == lo && t.b == hi)
    }

    /// Every live stack: pooled hosts first (city-major), then the
    /// gateways, in a fixed order reports can rely on.
    pub fn stacks(&self) -> Vec<Arc<IpStack>> {
        let mut out = Vec::new();
        for c in &self.cities {
            out.extend(c.hosts.iter().cloned());
        }
        for c in &self.cities {
            out.extend(c.gateway.ip.iter().cloned());
        }
        out
    }

    /// Waits for every stack to settle; returns the conversations left
    /// across the whole fabric.
    pub fn settle(&self) -> usize {
        self.stacks().iter().map(|s| s.settle()).sum()
    }

    /// The fabric-wide frame-conservation check.
    pub fn conservation(&self) -> Conservation {
        let mut media = Vec::new();
        let mut push = |name: String, m: &Arc<Medium>| {
            let st = m.stats();
            media.push(MediumReport {
                name,
                sent: st.sent.get(),
                delivered: st.delivered.get(),
                dropped: st.dropped.get(),
                duplicated: st.duplicated.get(),
            });
        };
        for c in &self.cities {
            push(format!("city{}.ether", c.index), c.segment.medium());
        }
        for t in &self.trunks {
            push(format!("trunk{}-{}.up", t.a, t.b), &t.media[0]);
            push(format!("trunk{}-{}.down", t.a, t.b), &t.media[1]);
        }
        Conservation { media }
    }

    /// Tears the fabric down: shuts every stack down and drops the
    /// trunk ends, which ends the bridges.
    pub fn shutdown(&mut self) {
        for c in &self.cities {
            for h in &c.hosts {
                h.shutdown();
            }
            if let Some(ip) = &c.gateway.ip {
                ip.shutdown();
            }
        }
        self.ends.clear();
    }
}

/// Splices one end of a trunk into `station`'s segment, as two
/// handlers: the station's forwards onto the trunk what `facing` lets
/// through, and the trunk end's puts what arrives onto the bus. Frames
/// are forwarded raw, source address intact — the bridge is
/// transparent. The station holds its end through a `Weak`, so the
/// segment and the trunk do not hold each other.
fn bridge(station: EtherStation, end: &Arc<CycloneEnd>, facing: Facing, shard_key: u64) {
    let trunk = Arc::downgrade(end);
    station.set_rx_handler(shard_key, move |frame| {
        if !forwards(facing, &frame) {
            return;
        }
        // A downed trunk drops this on the floor inside the medium —
        // exactly what a flap should do.
        if let Some(end) = trunk.upgrade() {
            let _ = end.send(&frame.encode());
        }
    });
    end.set_rx_handler(move |bytes| {
        if let Some(bytes) = bytes {
            let _ = station.send_raw(&bytes);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_filter_is_loop_free_on_a_line() {
        // Every (src, dst) unicast pair crosses each segment once.
        let frame = |src_city: u8, dst_city: u8| EtherFrame {
            dst: [0x08, 0x00, 0x09, dst_city, 0, 2],
            src: [0x08, 0x00, 0x09, src_city, 0, 2],
            ethertype: 0x0800,
            payload: vec![].into(),
        };
        // A frame from 0 to 3 is forwarded up by every Higher bridge
        // it meets and by no Lower bridge.
        for c in 0..3 {
            assert!(forwards(Facing::Higher(c), &frame(0, 3)));
            assert!(!forwards(Facing::Lower(c + 1), &frame(0, 3)));
        }
        // Same-city traffic never leaves the segment.
        assert!(!forwards(Facing::Higher(1), &frame(1, 1)));
        assert!(!forwards(Facing::Lower(1), &frame(1, 1)));
        // Broadcasts travel outward only.
        let mut b = frame(2, 0);
        b.dst = BROADCAST;
        assert!(forwards(Facing::Higher(2), &b));
        assert!(forwards(Facing::Lower(2), &b));
        assert!(forwards(Facing::Lower(1), &b)); // keeps going down
        assert!(!forwards(Facing::Higher(1), &b)); // never reflects
    }

    #[test]
    fn two_city_dial_crosses_the_trunk() {
        let mut topo = Topology::grid_with(2, 2, 100, 7);
        let server = Arc::clone(&topo.cities[1].hosts[0]);
        let listener = server
            .il_module()
            .listen(&server, SERVE_PORT)
            .expect("listen");
        let client = Arc::clone(&topo.cities[0].hosts[1]);
        let conn = client
            .il_module()
            .connect(&client, server.addr(), SERVE_PORT)
            .expect("dial across the trunk");
        let srv = listener
            .accept_timeout(Duration::from_secs(10))
            .expect("accept");
        conn.send(b"hello from city 0").expect("send");
        let got = srv.recv().expect("recv").expect("message");
        assert_eq!(got, b"hello from city 0");
        conn.close();
        srv.close();
        drop(listener);
        let cons = topo.conservation();
        assert_eq!(cons.violations(), 0, "{}", cons.render());
        let trunk = Arc::clone(topo.trunk_between(0, 1).expect("trunk"));
        assert!(trunk.is_up());
        // Traffic crossed both fibers.
        let crossed: u64 = cons
            .media
            .iter()
            .filter(|m| m.name.starts_with("trunk"))
            .map(|m| m.delivered)
            .sum();
        assert!(crossed > 0, "no frames crossed the trunk:\n{}", cons.render());
        topo.shutdown();
    }

    #[test]
    fn downed_trunk_partitions_and_heals() {
        let mut topo = Topology::grid_with(2, 1, 100, 3);
        let trunk = Arc::clone(topo.trunk_between(0, 1).expect("trunk"));
        trunk.set_up(false);
        let a = Arc::clone(&topo.cities[0].hosts[0]);
        let b = Arc::clone(&topo.cities[1].hosts[0]);
        // ARP can't cross: the dial fails.
        assert!(a.il_module().connect(&a, b.addr(), SERVE_PORT).is_err());
        trunk.set_up(true);
        let listener = b.il_module().listen(&b, SERVE_PORT).expect("listen");
        let conn = a
            .il_module()
            .connect(&a, b.addr(), SERVE_PORT)
            .expect("dial after heal");
        let srv = listener.accept_timeout(Duration::from_secs(10)).expect("accept");
        conn.close();
        srv.close();
        drop(listener);
        let cons = topo.conservation();
        assert_eq!(cons.violations(), 0, "{}", cons.render());
        topo.shutdown();
    }
}
