//! The Ethernet device driver: the two-level file tree of Figure 1.
//!
//! ```text
//! ether/clone
//! ether/1/{ctl data stats type}
//! ether/2/...
//! ```
//!
//! Each connection directory corresponds to an Ethernet packet type.
//! Writing `connect 2048` to the `ctl` file sets the packet type;
//! reading `type` yields `2048`; the `data` file accesses the media.
//! "If several connections on an interface are configured for a
//! particular packet type, each receives a copy of the incoming packets.
//! The special packet type −1 selects all packets. Writing the strings
//! `promiscuous` and `connect -1` to the ctl file configures a
//! conversation to receive all packets on the Ethernet."
//!
//! Writing the `data` file queues a packet for transmission "after
//! appending a packet header containing the source address and packet
//! type": the written bytes are the six-byte destination followed by the
//! payload; the driver supplies source and type.
//!
//! The interface has one station, the IP stack's; IP and ARP are the
//! kernel's conversations on it. This device sends through that station
//! and reads its receive path through [`IpStack::set_rx_tap`], so a
//! frame is delivered to the machine once, on the station's shard, and
//! no process waits on the wire on the device's behalf.

use plan9_inet::arp::{ARP_ETHERTYPE, IP_ETHERTYPE};
use plan9_inet::ip::IpStack;
use plan9_netlog::Counter;
use plan9_support::chan::{bounded, Receiver, Sender};
use plan9_support::sync::Mutex;
use plan9_netsim::ether::{mac_to_string, EtherFrame, BROADCAST};
use plan9_ninep::procfs::{
    conv_of, conv_parent, conv_path, readstr, ConvFile, ConvTable, Dev, OpenMode, ServeNode,
    ROOT,
};
use plan9_ninep::qid::Qid;
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

// The top-level file, then the file types of a conversation's files.
const Q_CLONE: u32 = 1;
const T_CTL: u32 = 2;
const T_DATA: u32 = 3;
const T_STATS: u32 = 4;
const T_TYPE: u32 = 5;

const TOP_FILES: [ConvFile; 1] = [("clone", Q_CLONE, 0o666)];
const CONV_FILES: [ConvFile; 4] = [
    ("ctl", T_CTL, 0o660),
    ("data", T_DATA, 0o660),
    ("stats", T_STATS, 0o444),
    ("type", T_TYPE, 0o444),
];

struct EtherConv {
    /// The selected packet type; `-1` selects all; `-2` means not yet
    /// configured.
    ptype: AtomicI64,
    promiscuous: AtomicBool,
    rx_tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// The LANCE-style Ethernet device.
pub struct EtherDev {
    stack: Arc<IpStack>,
    convs: ConvTable<EtherConv>,
    /// How many live conversations are promiscuous; while any is, the
    /// controller does not filter by address.
    promiscuous: Mutex<usize>,
    /// Frames the controller accepted from the wire.
    pub in_packets: Counter,
    /// Frames transmitted.
    pub out_packets: Counter,
    /// Accepted frames that neither ARP/IP nor a conversation took.
    pub unrouted: Counter,
}

impl EtherDev {
    /// The device for `stack`'s interface, registered as the second
    /// reader of its receive path.
    ///
    /// Connection directories are numbered from 1, matching Figure 1.
    pub fn new(stack: &Arc<IpStack>) -> Arc<EtherDev> {
        let reg = &stack.netlog().registry;
        let dev = Arc::new(EtherDev {
            stack: Arc::clone(stack),
            convs: ConvTable::new(1, &TOP_FILES, &CONV_FILES),
            promiscuous: Mutex::named(0, "core.ether.promiscuous"),
            in_packets: reg.counter("ether.in"),
            out_packets: reg.counter("ether.out"),
            unrouted: reg.counter("ether.unrouted"),
        });
        // Weak: the stack owns the tap, and the device the stack.
        let tap = Arc::downgrade(&dev);
        stack.set_rx_tap(move |frame| {
            if let Some(dev) = tap.upgrade() {
                dev.route(frame);
            }
        });
        dev
    }

    /// The interface's station address.
    fn addr_string(&self) -> String {
        mac_to_string(&self.stack.station().addr)
    }

    /// One accepted frame, on the station's shard: nothing here may
    /// block. With no conversation open the frame is only counted.
    fn route(&self, frame: &EtherFrame) {
        self.in_packets.inc();
        // ARP and IP are the kernel's conversations; they take theirs.
        let mut routed = matches!(frame.ethertype, ARP_ETHERTYPE | IP_ETHERTYPE);
        let mut encoded = None;
        self.convs.for_each(|conv| {
            let ptype = conv.ptype.load(Ordering::Relaxed);
            let type_ok = ptype == -1 || ptype == frame.ethertype as i64;
            let addr_ok = conv.promiscuous.load(Ordering::Relaxed)
                || frame.dst == self.stack.station().addr
                || frame.dst == BROADCAST;
            if type_ok && addr_ok && ptype != -2 {
                // Each matching conversation receives a copy; full
                // queues drop, as hardware input rings do.
                let bytes = encoded.get_or_insert_with(|| frame.encode());
                let _ = conv.rx_tx.try_send(bytes.clone());
                routed = true;
            }
        });
        if !routed {
            self.unrouted.inc();
        }
    }

    /// The `stats` text: "the interface address, packet input/output
    /// counts, error statistics, and general information about the state
    /// of the interface." The state is a header of `key: value` lines;
    /// the counts are the machine registry's `ether.*`, and `wire.*`
    /// for the shared wire's own frame accounting.
    pub fn stats_text(&self) -> String {
        format!(
            "addr: {}\nconversations: {}\nmtu: {}\n{}",
            self.addr_string(),
            self.convs.conn_count(),
            self.stack.station().payload_mtu(),
            self.stack.netlog().registry.render(&["ether.", "wire."]),
        )
    }
}

impl Dev for EtherDev {
    fn name(&self) -> String {
        "ether".to_string()
    }

    fn root(&self) -> Dir {
        Dir::directory("ether", ROOT, 0o555, "network")
    }

    fn parent(&self, q: Qid) -> Qid {
        conv_parent(q)
    }

    fn rows(&self, dir: Qid) -> Vec<Dir> {
        self.convs.rows(dir)
    }

    fn lookup(&self, dir: Qid, name: &str) -> Option<Dir> {
        self.convs.lookup(dir, name)
    }

    fn entry(&self, q: Qid) -> Option<Dir> {
        self.convs.entry(q)
    }

    fn open_node(&self, n: &ServeNode, _mode: OpenMode) -> Result<ServeNode> {
        let Some((id, _)) = conv_of(n.qid) else {
            if n.qid.path_bits() != Q_CLONE {
                return Ok(*n);
            }
            // "Opening the clone file finds an unused connection
            // directory and opens its ctl file."
            let (rx_tx, rx) = bounded(256);
            let conv = EtherConv {
                ptype: AtomicI64::new(-2),
                promiscuous: AtomicBool::new(false),
                rx_tx,
                rx,
            };
            let id = self.convs.alloc(n.handle, conv);
            return Ok(ServeNode::new(Qid::file(conv_path(id, T_CTL), 0), n.handle));
        };
        self.convs.hold(n.handle, id)?;
        Ok(*n)
    }

    fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let (id, typ) = conv_of(n.qid).ok_or_else(|| NineError::new(errstr::EBADUSE))?;
        let conv = self.convs.get(id)?;
        let text = match typ {
            T_CTL => id.to_string(),
            // "Subsequent reads of the file type yield the string 2048."
            T_TYPE => conv.ptype.load(Ordering::Relaxed).to_string(),
            T_STATS => self.stats_text(),
            // "Reading it returns the next packet of the selected
            // type."
            T_DATA => {
                let mut frame = conv.rx.recv().unwrap_or_default();
                frame.truncate(count);
                return Ok(frame);
            }
            _ => return Err(NineError::new(errstr::EBADUSE)),
        };
        Ok(readstr(&text, offset, count))
    }

    fn write_file(&self, n: &ServeNode, _offset: u64, data: &[u8]) -> Result<usize> {
        let (id, typ) = conv_of(n.qid).ok_or_else(|| NineError::new(errstr::EBADUSE))?;
        let conv = self.convs.get(id)?;
        match typ {
            T_CTL => {
                let cmd = std::str::from_utf8(data)
                    .map_err(|_| NineError::new("control request is not text"))?;
                let fields: Vec<&str> = cmd.split_whitespace().collect();
                match fields.as_slice() {
                    ["connect", t] => {
                        let t: i64 = t
                            .parse()
                            .map_err(|_| NineError::new("bad packet type"))?;
                        conv.ptype.store(t, Ordering::Relaxed);
                        Ok(data.len())
                    }
                    ["promiscuous"] => {
                        // As on a LANCE, the controller stops filtering
                        // by address while any conversation wants every
                        // frame; IP drops what is not for this host.
                        // Under the count's lock, so a clunk restoring
                        // the filter cannot pass this.
                        let mut promiscuous = self.promiscuous.lock();
                        if !conv.promiscuous.swap(true, Ordering::Relaxed) {
                            *promiscuous += 1;
                        }
                        self.stack.station().set_address_filter(false);
                        Ok(data.len())
                    }
                    _ => Err(NineError::new(format!("unknown control request: {cmd}"))),
                }
            }
            T_DATA => {
                // Destination address, then payload; the driver appends
                // the header with source address and the packet type.
                let Some(&dst) = data.first_chunk::<6>() else {
                    return Err(NineError::new("short ether write"));
                };
                let ptype = conv.ptype.load(Ordering::Relaxed);
                if ptype < 0 {
                    return Err(NineError::new("packet type not set"));
                }
                self.stack
                    .station()
                    .send(dst, ptype as u16, &data[6..])
                    .map_err(NineError::new)?;
                self.out_packets.inc();
                Ok(data.len())
            }
            _ => Err(NineError::new(errstr::EPERM)),
        }
    }

    fn clunk_node(&self, n: &ServeNode) {
        let Some(conv) = self.convs.clunk(n.handle) else { return };
        if conv.promiscuous.load(Ordering::Relaxed) {
            let mut promiscuous = self.promiscuous.lock();
            *promiscuous -= 1;
            if *promiscuous == 0 {
                self.stack.station().set_address_filter(true);
            }
        }
    }
}

/// Re-export for callers that parse data-file reads.
pub use plan9_netsim::ether::ETHER_HDR;

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_inet::ip::IpConfig;
    use plan9_ninep::procfs::ProcFs;
    use plan9_netsim::ether::EtherSegment;
    use plan9_netsim::profile::Profiles;

    fn mac(n: u8) -> [u8; 6] {
        [8, 0, 0x69, 2, 0x22, n]
    }

    /// The device of host `n`'s one interface on `seg`.
    fn dev_on(seg: &Arc<EtherSegment>, n: u8) -> Arc<EtherDev> {
        let cfg = IpConfig::local(&format!("10.0.0.{n}"));
        EtherDev::new(&IpStack::new_pooled(seg.attach(mac(n)), cfg))
    }

    fn two_devs() -> (Arc<EtherDev>, Arc<EtherDev>) {
        let seg = EtherSegment::new(Profiles::ether_fast());
        (dev_on(&seg, 1), dev_on(&seg, 2))
    }

    /// Opens the clone file, sets the packet type, returns (ctl, data).
    fn conversation(dev: &Arc<EtherDev>, ctl_cmd: &[&str]) -> (ServeNode, ServeNode) {
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        for cmd in ctl_cmd {
            dev.write(&ctl, 0, cmd.as_bytes()).unwrap();
        }
        let id = String::from_utf8(dev.read(&ctl, 0, 16).unwrap()).unwrap();
        let mut data = dev.attach("u", "").unwrap();
        for elem in [id.as_str(), "data"] {
            data = dev.walk(&data, elem).unwrap();
        }
        let data = dev.open(&data, OpenMode::RDWR).unwrap();
        (ctl, data)
    }

    #[test]
    fn figure_1_tree_shape() {
        let (dev, _) = two_devs();
        let (_ctl, _data) = conversation(&dev, &["connect 2048"]);
        let root = dev.attach("u", "").unwrap();
        let names: Vec<String> = dev
            .read(&root, 0, 4096)
            .unwrap()
            .chunks(plan9_ninep::dir::DIR_LEN)
            .map(|c| Dir::decode(c).unwrap().name)
            .collect();
        assert_eq!(names, vec!["clone", "1"]);
        let conn = dev.walk(&root, "1").unwrap();
        let names: Vec<String> = dev
            .read(&conn, 0, 4096)
            .unwrap()
            .chunks(plan9_ninep::dir::DIR_LEN)
            .map(|c| Dir::decode(c).unwrap().name)
            .collect();
        assert_eq!(names, vec!["ctl", "data", "stats", "type"]);
    }

    #[test]
    fn connect_2048_receives_ip_packets_only() {
        let (a, b) = two_devs();
        let (_actl, adata) = conversation(&a, &["connect 2048"]);
        let (_bctl, bdata) = conversation(&b, &["connect 2048"]);
        // Send an IP-type packet from b to a.
        let mut pkt = mac(1).to_vec();
        pkt.extend_from_slice(b"an ip packet");
        b.write(&bdata, 0, &pkt).unwrap();
        let frame = EtherFrame::decode(&a.read(&adata, 0, 2048).unwrap()).unwrap();
        assert_eq!(frame.ethertype, 2048);
        assert_eq!(frame.payload, b"an ip packet");
        assert_eq!(frame.src, mac(2));
    }

    #[test]
    fn type_file_reads_back() {
        let (dev, _) = two_devs();
        let (_ctl, _data) = conversation(&dev, &["connect 2048"]);
        let root = dev.attach("u", "").unwrap();
        let mut t = root;
        for elem in ["1", "type"] {
            t = dev.walk(&t, elem).unwrap();
        }
        let t = dev.open(&t, OpenMode::READ).unwrap();
        assert_eq!(dev.read(&t, 0, 16).unwrap(), b"2048");
    }

    #[test]
    fn copy_semantics_for_same_type() {
        let (a, b) = two_devs();
        let (_c1, d1) = conversation(&a, &["connect 9"]);
        let (_c2, d2) = conversation(&a, &["connect 9"]);
        let (_bc, bd) = conversation(&b, &["connect 9"]);
        let mut pkt = mac(1).to_vec();
        pkt.extend_from_slice(b"copied");
        b.write(&bd, 0, &pkt).unwrap();
        // Both conversations on a receive a copy.
        assert_eq!(EtherFrame::decode(&a.read(&d1, 0, 2048).unwrap()).unwrap().payload, b"copied");
        assert_eq!(EtherFrame::decode(&a.read(&d2, 0, 2048).unwrap()).unwrap().payload, b"copied");
    }

    #[test]
    fn promiscuous_minus_one_sees_everything() {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let (a, b, c) = (dev_on(&seg, 1), dev_on(&seg, 2), dev_on(&seg, 3));
        // The snooper on c: promiscuous + connect -1 (§2.2).
        let (_cc, cd) = conversation(&c, &["promiscuous", "connect -1"]);
        // b sends to a, type 7 — nothing to do with c.
        let (_bc, bd) = conversation(&b, &["connect 7"]);
        let (_ac, _ad) = conversation(&a, &["connect 7"]);
        let mut pkt = mac(1).to_vec();
        pkt.extend_from_slice(b"sniffed");
        b.write(&bd, 0, &pkt).unwrap();
        let frame = EtherFrame::decode(&c.read(&cd, 0, 2048).unwrap()).unwrap();
        assert_eq!(frame.payload, b"sniffed");
        assert_eq!(frame.dst, mac(1));
    }

    #[test]
    fn non_promiscuous_filters_foreign_addresses() {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let (a, b, c) = (dev_on(&seg, 1), dev_on(&seg, 2), dev_on(&seg, 3));
        let (_cc, _cd) = conversation(&c, &["connect 7"]);
        let (_bc, bd) = conversation(&b, &["connect 7"]);
        let (_ac, ad) = conversation(&a, &["connect 7"]);
        let mut pkt = mac(1).to_vec();
        pkt.extend_from_slice(b"private");
        b.write(&bd, 0, &pkt).unwrap();
        // a sees it...
        assert_eq!(EtherFrame::decode(&a.read(&ad, 0, 2048).unwrap()).unwrap().payload, b"private");
        // ...c's controller never showed it to c (it was addressed to
        // a): the bus offered it to both in one pass, and a has read it.
        assert_eq!(c.in_packets.get(), 0);
        assert_eq!(c.unrouted.get(), 0);
    }

    #[test]
    fn stats_file_reports_interface() {
        let (dev, _) = two_devs();
        let (_ctl, _d) = conversation(&dev, &["connect 2048"]);
        let root = dev.attach("u", "").unwrap();
        let mut s = root;
        for elem in ["1", "stats"] {
            s = dev.walk(&s, elem).unwrap();
        }
        let s = dev.open(&s, OpenMode::READ).unwrap();
        let text = String::from_utf8(dev.read(&s, 0, 4096).unwrap()).unwrap();
        assert!(text.contains("addr: 080069022201"), "{text}");
        assert!(text.contains("ether.out 0\n") && text.contains("wire.sent 0\n"), "{text}");
    }

    #[test]
    fn write_before_connect_refused() {
        let (dev, _) = two_devs();
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let _ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        let mut d = dev.attach("u", "").unwrap();
        for elem in ["1", "data"] {
            d = dev.walk(&d, elem).unwrap();
        }
        let d = dev.open(&d, OpenMode::RDWR).unwrap();
        let mut pkt = mac(2).to_vec();
        pkt.push(0);
        let err = dev.write(&d, 0, &pkt).unwrap_err();
        assert!(err.0.contains("packet type not set"), "{err}");
    }
}
