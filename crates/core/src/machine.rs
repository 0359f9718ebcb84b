//! Assembling a simulated Plan 9 machine.
//!
//! A [`Machine`] owns the hardware-facing pieces (an Ethernet station
//! with its IP stack, a Datakit line, UARTs), the kernel devices built
//! over them, the network database, and the user-level servers (CS,
//! DNS). Its default name space is the conventional one (§6): protocol
//! devices mounted in `/net`, `cs` and `dns` union-mounted alongside,
//! `eia` lines in `/dev`, the database under `/lib/ndb`.

use crate::dev::proto::{AnnounceOps, ConnOps, ProtoDev, ProtoOps};
use crate::dev::{EiaDev, EtherDev, TextDev, TextFile};
use crate::namespace::{Namespace, Source, MAFTER, MREPL};
use crate::proc::Proc;
use plan9_cs::{CsConfig, CsServer, DnsServer, NetworkDecl, SimInternet};
use plan9_datakit::urp::{UrpConn, UrpStats};
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_inet::Listener;
use plan9_inet::IpAddr;
use plan9_ndb::Db;
use plan9_netlog::trace::Tracer;
use plan9_netlog::NetLog;
use plan9_netsim::ether::{EtherSegment, MacAddr};
use plan9_netsim::fabric::{Announcement, DatakitLine, DatakitSwitch};
use plan9_netsim::uart::UartEnd;
use plan9_ninep::procfs::{MemFs, ProcFs};
use plan9_ninep::{NineError, Result};
use std::sync::Arc;

/// `/net/log`: netlog's facility mask on `ctl` (which also takes the
/// sampler's `series ...` requests), the event text on `data`, the
/// metric time series, the whole metric table on `stats` (its
/// process-wide copy-site rows alone on `copy`) and the runtime
/// lock-order graph. lockdep is a process singleton, so every
/// machine serves the same `lockgraph`: the fabric's lock discipline is
/// one artifact.
pub(crate) fn log_files(netlog: &Arc<NetLog>) -> Vec<TextFile> {
    let [mask, ctl, events, series] = [(); 4].map(|()| Arc::clone(netlog));
    // The table as it stands once the process-wide cells are mirrored.
    let table = |prefixes: &'static [&'static str]| {
        let netlog = Arc::clone(netlog);
        move || netlog.registry.refresh().render(prefixes)
    };
    vec![
        TextFile::new("copy", 5, 0o444, table(&["copy."])),
        // Reading ctl shows the enabled facilities as a replayable
        // `set` request.
        TextFile::new("ctl", 2, 0o660, move || mask.events.mask_line()).on_write(move |req| {
            if req.split_whitespace().next() == Some("series") {
                plan9_netlog::series::ctl(&ctl, req).map_err(NineError::new)
            } else {
                ctl.events.ctl(req).map_err(NineError::new)
            }
        }),
        TextFile::new("data", 3, 0o444, move || events.events.render()),
        TextFile::new("lockgraph", 6, 0o444, plan9_support::lockgraph_dump),
        TextFile::new("series", 4, 0o444, move || series.series.render()),
        TextFile::new("stats", 7, 0o444, table(&[])),
    ]
}

/// `/net/trace`: the flight recorder. `ctl` takes `trace on`, `filter
/// il 9p`, `dump`, `clear` and reads back as replayable requests;
/// `data` is the completed root spans with their trees, each followed
/// by the events of this machine's `/net/log` ring that name it.
pub(crate) fn trace_files(tracer: &Arc<Tracer>, netlog: Arc<NetLog>) -> Vec<TextFile> {
    let [status, ctl, data] = [(); 3].map(|()| Arc::clone(tracer));
    vec![
        TextFile::new("ctl", 2, 0o660, move || status.status_line())
            .on_write(move |req| ctl.ctl(req).map_err(NineError::new)),
        TextFile::new("data", 3, 0o444, move || data.render(&netlog.events)),
    ]
}

/// Default ndb service map, matching the paper's §4.1 listing plus the
/// conventional Plan 9 ports.
pub const SERVICES_NDB: &str = "\
tcp=echo port=7
tcp=discard port=9
tcp=systat port=11
tcp=daytime port=13
tcp=login port=513
tcp=9fs port=564
tcp=exportfs port=565
tcp=ftp port=21
tcp=telnet port=23
il=9fs port=17008
il=rexauth port=17021
il=echo port=17007
il=exportfs port=17009
il=discard port=17013
il=daytime port=17014
udp=dns port=53
udp=echo port=7
";

/// Builder for a [`Machine`].
pub struct MachineBuilder {
    name: String,
    ether: Option<(Arc<EtherSegment>, MacAddr, IpConfig)>,
    datakit: Option<(Arc<DatakitSwitch>, String)>,
    uarts: Vec<UartEnd>,
    ndb_texts: Vec<String>,
    internet: Option<Arc<SimInternet>>,
}

impl MachineBuilder {
    /// Starts a machine named `name` (its ndb `sys=` name).
    pub fn new(name: &str) -> MachineBuilder {
        MachineBuilder {
            name: name.to_string(),
            ether: None,
            datakit: None,
            uarts: Vec::new(),
            ndb_texts: Vec::new(),
            internet: None,
        }
    }

    /// Attaches an Ethernet interface with the given station address and
    /// IP configuration.
    pub fn ether(mut self, seg: &Arc<EtherSegment>, mac: MacAddr, cfg: IpConfig) -> Self {
        self.ether = Some((Arc::clone(seg), mac, cfg));
        self
    }

    /// Attaches a Datakit line at the given address.
    pub fn datakit(mut self, switch: &Arc<DatakitSwitch>, addr: &str) -> Self {
        self.datakit = Some((Arc::clone(switch), addr.to_string()));
        self
    }

    /// Adds a serial line (`/dev/eiaN`).
    pub fn uart(mut self, end: UartEnd) -> Self {
        self.uarts.push(end);
        self
    }

    /// Adds network-database text (the machine also gets the standard
    /// service map).
    pub fn ndb(mut self, text: &str) -> Self {
        self.ndb_texts.push(text.to_string());
        self
    }

    /// Connects the machine's DNS to a simulated Internet.
    pub fn internet(mut self, net: &Arc<SimInternet>) -> Self {
        self.internet = Some(Arc::clone(net));
        self
    }

    /// Builds and boots the machine.
    pub fn build(self) -> Result<Arc<Machine>> {
        // The root skeleton.
        let rootfs = MemFs::new("root", "bootes");
        for dir in ["/net", "/dev", "/tmp", "/n", "/lib/ndb"] {
            rootfs.put_dir(dir)?;
        }
        let mut ndb_all: Vec<String> = self.ndb_texts.clone();
        ndb_all.push(SERVICES_NDB.to_string());
        rootfs.put_file("/lib/ndb/local", ndb_all.join("\n").as_bytes())?;
        let db = Arc::new(Db::from_texts(
            &ndb_all.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        ));
        let root_dyn: Arc<dyn ProcFs> = rootfs.clone();
        let ns = Namespace::new(Source::attach(&root_dyn, "bootes", "")?);
        let mut networks = Vec::new();
        // Ethernet + IP protocols.
        let mut ip = None;
        let mut ether_dev = None;
        if let Some((seg, mac, cfg)) = &self.ether {
            let stack = IpStack::new_pooled(seg.attach(*mac), cfg.clone());
            let dev = EtherDev::new(&stack);
            rootfs.put_dir("/net/ether0")?;
            let dev_dyn: Arc<dyn ProcFs> = dev.clone();
            ns.mount(Source::attach(&dev_dyn, "bootes", "")?, "/net/ether0", MREPL)?;
            for proto in ["il", "tcp", "udp"] {
                let ops: Box<dyn ProtoOps> = match proto {
                    "il" => Box::new(IlProto {
                        stack: Arc::clone(&stack),
                        db: Arc::clone(&db),
                    }),
                    "tcp" => Box::new(TcpProto {
                        stack: Arc::clone(&stack),
                        db: Arc::clone(&db),
                    }),
                    _ => Box::new(UdpProto {
                        stack: Arc::clone(&stack),
                        db: Arc::clone(&db),
                    }),
                };
                let dev = ProtoDev::new(ops);
                rootfs.put_dir(&format!("/net/{proto}"))?;
                let dev_dyn: Arc<dyn ProcFs> = dev;
                ns.mount(
                    Source::attach(&dev_dyn, "bootes", "")?,
                    &format!("/net/{proto}"),
                    MREPL,
                )?;
                networks.push(NetworkDecl::ip(proto));
            }
            ip = Some(stack);
            ether_dev = Some(dev);
        }
        // One instrumentation block a machine: its IP stack's when it
        // has one (the stack is built with it), its own when Datakit
        // is all there is.
        let netlog = ip.as_ref().map_or_else(NetLog::new, |stack| Arc::clone(stack.netlog()));
        // Datakit + URP.
        if let Some((switch, addr)) = &self.datakit {
            let dev = ProtoDev::new(Box::new(DkProto {
                line: switch.attach(addr).map_err(NineError::new)?,
                stats: Arc::new(UrpStats::new(&netlog.registry)),
                netlog: Arc::clone(&netlog),
            }));
            rootfs.put_dir("/net/dk")?;
            let dev_dyn: Arc<dyn ProcFs> = dev;
            ns.mount(Source::attach(&dev_dyn, "bootes", "")?, "/net/dk", MREPL)?;
            networks.push(NetworkDecl::datakit("dk"));
        }
        // UARTs.
        if !self.uarts.is_empty() {
            let dev = EiaDev::new(self.uarts);
            let dev_dyn: Arc<dyn ProcFs> = dev;
            ns.mount(Source::attach(&dev_dyn, "bootes", "")?, "/dev", MAFTER)?;
        }
        // Synthesized information files: /dev/sysname, and /net/arp for
        // interface diagnostics (the ARP the LANCE driver exposes, §2.2).
        let mount_text = |fs: Arc<TextDev>, at: &str| -> Result<()> {
            let fs: Arc<dyn ProcFs> = fs;
            ns.mount(Source::attach(&fs, "bootes", "")?, at, MAFTER)
        };
        let sysname = self.name.clone();
        let dev_files = vec![
            TextFile::new("sysname", 1, 0o444, move || sysname.clone()),
            TextFile::new("user", 2, 0o444, || "glenda".to_string()),
        ];
        mount_text(TextDev::new("devinfo", "info", None, dev_files), "/dev")?;
        if let Some(stack) = &ip {
            let arp_stack = Arc::clone(stack);
            let arp = TextFile::new("arp", 1, 0o444, move || {
                let mut out = String::new();
                for (ip, mac) in arp_stack.arp.entries() {
                    out.push_str(&format!(
                        "{} {}\n",
                        ip,
                        plan9_netsim::ether::mac_to_string(&mac)
                    ));
                }
                out
            });
            mount_text(TextDev::new("netinfo", "info", None, vec![arp]), "/net")?;
        }
        // The netlog device, /net/log, over the machine's metric table
        // and event ring, and the nettrace device, /net/trace, over the
        // process-wide flight recorder, so a trace that crosses
        // machines shows the same spans from any of them, each with
        // this machine's events.
        let log = log_files(&netlog);
        mount_text(TextDev::new("netlog", "network", Some("log"), log), "/net")?;
        let trace = trace_files(plan9_netlog::trace::global(), Arc::clone(&netlog));
        mount_text(TextDev::new("nettrace", "network", Some("trace"), trace), "/net")?;
        // DNS, then CS over it.
        let dns = self.internet.as_ref().map(|net| DnsServer::new(Arc::clone(net)));
        if let Some(dns) = &dns {
            let fs: Arc<dyn ProcFs> = dns.file_server();
            ns.mount(Source::attach(&fs, "bootes", "")?, "/net", MAFTER)?;
        }
        let cs = CsServer::new(
            CsConfig {
                sysname: self.name.clone(),
                networks,
                mount_prefix: "/net".to_string(),
            },
            Arc::clone(&db),
            dns.clone(),
        );
        {
            let fs: Arc<dyn ProcFs> = cs.file_server();
            ns.mount(Source::attach(&fs, "bootes", "")?, "/net", MAFTER)?;
        }
        Ok(Arc::new(Machine {
            name: self.name,
            rootfs,
            base_ns: ns,
            ip,
            ether_dev,
            netlog,
            db,
            dns,
            cs,
        }))
    }
}

/// A booted machine.
pub struct Machine {
    /// The machine's name.
    pub name: String,
    /// The root file tree (also home of `/lib/ndb/local`).
    pub rootfs: Arc<MemFs>,
    base_ns: Arc<Namespace>,
    /// The IP interface, if the machine has an Ethernet.
    pub ip: Option<Arc<IpStack>>,
    /// The Ethernet device (Figure 1), if present.
    pub ether_dev: Option<Arc<EtherDev>>,
    /// The machine's instrumentation block: every counter a file under
    /// `/net` shows is in its registry, and `/net/log` serves it.
    pub netlog: Arc<NetLog>,
    /// The network database.
    pub db: Arc<Db>,
    /// The DNS resolver, if connected to an internet.
    pub dns: Option<Arc<DnsServer>>,
    /// The connection server.
    pub cs: Arc<CsServer>,
}

impl Machine {
    /// Starts a process with a copy of the machine's default name space.
    pub fn proc(&self) -> Proc {
        Proc::new(self.base_ns.fork(), "glenda")
    }
}

// ---------------------------------------------------------------------------
// Protocol implementations plugged into the generic device.
// ---------------------------------------------------------------------------

fn parse_ip_port(db: &Db, proto: &str, addr: &str) -> Result<(IpAddr, u16)> {
    let (host, port) = addr
        .split_once('!')
        .ok_or_else(|| NineError::new(format!("bad address: {addr}")))?;
    // The host part may be a name when the ctl write bypassed CS (a
    // gatewayed dial, §6.1); fall back to the machine's own database.
    let ip = match IpAddr::parse(host) {
        Ok(ip) => ip,
        Err(e) => {
            let entry = db.find_system(host).ok_or(e)?;
            let ip = entry
                .get("ip")
                .ok_or_else(|| NineError::new(format!("no ip for {host}")))?;
            IpAddr::parse(ip)?
        }
    };
    // Service names resolve through the service map (`tcp=telnet
    // port=23`); numbers pass through.
    let port = db
        .lookup_service(proto, port)
        .ok_or_else(|| NineError::new(format!("bad port: {port}")))?;
    Ok((ip, port))
}

fn parse_announce_port(db: &Db, proto: &str, addr: &str) -> Result<u16> {
    // `*!564`, `*!echo` or just `564`.
    let port = addr.rsplit_once('!').map(|(_, p)| p).unwrap_or(addr);
    db.lookup_service(proto, port)
        .ok_or_else(|| NineError::new(format!("bad port: {port}")))
}

struct TcpProto {
    stack: Arc<IpStack>,
    db: Arc<Db>,
}

struct TcpConnOps {
    conn: Arc<plan9_inet::tcp::TcpConn>,
}

impl ConnOps for TcpConnOps {
    fn send(&self, msg: &[u8]) -> Result<()> {
        self.conn.write(msg).map(|_| ())
    }
    fn recv(&self) -> Result<Option<Vec<u8>>> {
        let data = self.conn.read(65536)?;
        Ok((!data.is_empty()).then_some(data))
    }
    fn local(&self) -> String {
        self.conn.local_string()
    }
    fn remote(&self) -> String {
        self.conn.remote_string()
    }
    fn status(&self) -> String {
        self.conn.status_string()
    }
    fn close(&self) {
        self.conn.close();
    }
    fn serve_nine(&self, fs: &Arc<dyn ProcFs>) -> Option<Arc<plan9_ninep::server::NineService>> {
        Some(plan9_ninep::server::serve_on_shard(&self.conn, Arc::clone(fs)))
    }
}

/// An announced IL or TCP port. Their listeners are one type (the
/// conversation table's); `listen` takes the next call off one and
/// dresses it in its protocol's [`ConnOps`].
struct IpAnnounceOps<C> {
    listener: Listener<C>,
    dress: fn(Arc<C>) -> Arc<dyn ConnOps>,
    local: String,
}

impl<C> IpAnnounceOps<C> {
    fn new(stack: &IpStack, listener: Listener<C>, dress: fn(Arc<C>) -> Arc<dyn ConnOps>) -> Self {
        let local = format!("{} {}", stack.addr(), listener.port());
        IpAnnounceOps { listener, dress, local }
    }
}

impl<C: Send + Sync> AnnounceOps for IpAnnounceOps<C> {
    fn listen(&self) -> Result<Arc<dyn ConnOps>> {
        Ok((self.dress)(self.listener.accept()?))
    }
    fn local(&self) -> String {
        self.local.clone()
    }
    fn close(&self) {
        self.listener.close();
    }
}

impl ProtoOps for TcpProto {
    fn proto(&self) -> String {
        "tcp".to_string()
    }
    fn connect(&self, addr: &str) -> Result<Arc<dyn ConnOps>> {
        let (ip, port) = parse_ip_port(&self.db, "tcp", addr)?;
        let conn = self.stack.tcp_module().connect(&self.stack, ip, port)?;
        Ok(Arc::new(TcpConnOps { conn }))
    }
    fn announce(&self, addr: &str) -> Result<Arc<dyn AnnounceOps>> {
        let port = parse_announce_port(&self.db, "tcp", addr)?;
        let listener = self.stack.tcp_module().listen(&self.stack, port)?;
        Ok(Arc::new(IpAnnounceOps::new(&self.stack, listener, |conn| Arc::new(TcpConnOps { conn }))))
    }
    fn stats_text(&self) -> String {
        self.stack.netlog().registry.render(&["tcp.", "ip."])
    }
}

struct IlProto {
    stack: Arc<IpStack>,
    db: Arc<Db>,
}

struct IlConnOps {
    conn: Arc<plan9_inet::il::IlConn>,
}

impl ConnOps for IlConnOps {
    fn send(&self, msg: &[u8]) -> Result<()> {
        self.conn.send(msg)
    }
    fn recv(&self) -> Result<Option<Vec<u8>>> {
        self.conn.recv()
    }
    fn local(&self) -> String {
        self.conn.local_string()
    }
    fn remote(&self) -> String {
        self.conn.remote_string()
    }
    fn status(&self) -> String {
        self.conn.status_string()
    }
    fn close(&self) {
        self.conn.close();
    }
    fn serve_nine(&self, fs: &Arc<dyn ProcFs>) -> Option<Arc<plan9_ninep::server::NineService>> {
        Some(plan9_ninep::server::serve_on_shard(&self.conn, Arc::clone(fs)))
    }
}

impl ProtoOps for IlProto {
    fn proto(&self) -> String {
        "il".to_string()
    }
    fn connect(&self, addr: &str) -> Result<Arc<dyn ConnOps>> {
        let (ip, port) = parse_ip_port(&self.db, "il", addr)?;
        let conn = self.stack.il_module().connect(&self.stack, ip, port)?;
        Ok(Arc::new(IlConnOps { conn }))
    }
    fn announce(&self, addr: &str) -> Result<Arc<dyn AnnounceOps>> {
        let port = parse_announce_port(&self.db, "il", addr)?;
        let listener = self.stack.il_module().listen(&self.stack, port)?;
        Ok(Arc::new(IpAnnounceOps::new(&self.stack, listener, |conn| Arc::new(IlConnOps { conn }))))
    }
    fn stats_text(&self) -> String {
        self.stack.netlog().registry.render(&["il.", "ip."])
    }
}

struct UdpProto {
    stack: Arc<IpStack>,
    db: Arc<Db>,
}

struct UdpConnOps {
    sock: plan9_inet::udp::UdpSocket,
    stack: Arc<IpStack>,
    remote: (IpAddr, u16),
}

impl ConnOps for UdpConnOps {
    fn send(&self, msg: &[u8]) -> Result<()> {
        self.sock.send_to(self.remote.0, self.remote.1, msg)
    }
    fn recv(&self) -> Result<Option<Vec<u8>>> {
        let (_src, _sport, data) = self.sock.recv()?;
        Ok(Some(data))
    }
    fn local(&self) -> String {
        format!("{} {}", self.stack.addr(), self.sock.port())
    }
    fn remote(&self) -> String {
        format!("{} {}", self.remote.0, self.remote.1)
    }
    fn status(&self) -> String {
        "Datagram".to_string()
    }
    fn close(&self) {
        self.sock.close();
    }
}

impl ProtoOps for UdpProto {
    fn proto(&self) -> String {
        "udp".to_string()
    }
    fn connect(&self, addr: &str) -> Result<Arc<dyn ConnOps>> {
        let (ip, port) = parse_ip_port(&self.db, "udp", addr)?;
        let sock = self.stack.udp_module().bind(&self.stack, 0)?;
        Ok(Arc::new(UdpConnOps {
            sock,
            stack: Arc::clone(&self.stack),
            remote: (ip, port),
        }))
    }
    fn announce(&self, _addr: &str) -> Result<Arc<dyn AnnounceOps>> {
        // UDP is connectionless; the paper's protocol devices announce
        // only stream-like protocols.
        Err(NineError::new("udp: announce not supported"))
    }
    fn stats_text(&self) -> String {
        self.stack.netlog().registry.render(&["udp.", "ip."])
    }
}

// ---------------------------------------------------------------------------
// Datakit: one line, many services — the switch routes each call to the
// announcement of the service named in the dial string.
// ---------------------------------------------------------------------------

struct DkProto {
    line: DatakitLine,
    /// Counted into by every conversation dialed or accepted on the
    /// line: the `urp.*` cells of the machine's registry.
    stats: Arc<UrpStats>,
    netlog: Arc<NetLog>,
}

struct DkConnOps {
    conn: Arc<UrpConn>,
}

impl ConnOps for DkConnOps {
    fn send(&self, msg: &[u8]) -> Result<()> {
        self.conn.send(msg)
    }
    fn recv(&self) -> Result<Option<Vec<u8>>> {
        Ok(self.conn.recv())
    }
    fn local(&self) -> String {
        self.conn.local_addr()
    }
    fn remote(&self) -> String {
        self.conn.remote_addr()
    }
    fn status(&self) -> String {
        self.conn.status_string()
    }
    fn close(&self) {
        self.conn.close();
    }
    fn serve_nine(&self, fs: &Arc<dyn ProcFs>) -> Option<Arc<plan9_ninep::server::NineService>> {
        Some(plan9_ninep::server::serve_on_shard(&self.conn, Arc::clone(fs)))
    }
}

struct DkAnnounceOps {
    calls: Announcement,
    local: String,
    stats: Arc<UrpStats>,
}

impl AnnounceOps for DkAnnounceOps {
    fn listen(&self) -> Result<Arc<dyn ConnOps>> {
        let call = self.calls.accept().ok_or_else(|| NineError::new("announce closed"))?;
        let conn = UrpConn::with_stats(call.circuit, Arc::clone(&self.stats));
        Ok(Arc::new(DkConnOps { conn }))
    }
    fn local(&self) -> String {
        self.local.clone()
    }
    fn close(&self) {
        self.calls.close();
    }
}

impl ProtoOps for DkProto {
    fn proto(&self) -> String {
        "dk".to_string()
    }
    fn connect(&self, addr: &str) -> Result<Arc<dyn ConnOps>> {
        let circuit = self.line.dial(addr).map_err(NineError::new)?;
        let conn = UrpConn::with_stats(circuit, Arc::clone(&self.stats));
        // Datakit rejections surface on the first receive; probe early
        // failures are left to the caller, as on real hardware.
        Ok(Arc::new(DkConnOps { conn }))
    }
    fn announce(&self, addr: &str) -> Result<Arc<dyn AnnounceOps>> {
        // `*!9fs` or `9fs`.
        let service = addr.rsplit_once('!').map(|(_, s)| s).unwrap_or(addr);
        Ok(Arc::new(DkAnnounceOps {
            calls: self.line.announce(service).map_err(NineError::new)?,
            local: format!("{}!{service}", self.line.addr()),
            stats: Arc::clone(&self.stats),
        }))
    }
    fn stats_text(&self) -> String {
        self.netlog.registry.render(&["urp."])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dial::{accept, announce, dial, listen};
    use plan9_netsim::ether::EtherFrame;
    use plan9_netsim::profile::Profiles;
    use plan9_ninep::procfs::OpenMode;
    use std::time::Duration;

    fn mac(n: u8) -> MacAddr {
        [0x08, 0x00, 0x69, 0x02, 0x22, n]
    }

    /// Two machines on one Ethernet and one Datakit switch, with the
    /// paper's database entries.
    pub(crate) fn helix_and_gnot() -> (Arc<Machine>, Arc<Machine>) {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let switch = DatakitSwitch::new(Profiles::datakit_fast());
        let ndb = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 ether=0800690222f0 dk=nj/astro/helix proto=il proto=tcp
sys=gnot ip=135.104.9.40 dk=nj/astro/philw-gnot proto=il proto=tcp
";
        let helix = MachineBuilder::new("helix")
            .ether(&seg, mac(0xf0), IpConfig::local("135.104.9.31"))
            .datakit(&switch, "nj/astro/helix")
            .ndb(ndb)
            .build()
            .unwrap();
        let gnot = MachineBuilder::new("gnot")
            .ether(&seg, mac(0x40), IpConfig::local("135.104.9.40"))
            .datakit(&switch, "nj/astro/philw-gnot")
            .ndb(ndb)
            .build()
            .unwrap();
        (helix, gnot)
    }

    #[test]
    fn net_directory_matches_convention() {
        let (helix, _) = helix_and_gnot();
        let p = helix.proc();
        let mut names: Vec<String> = p.ls("/net").unwrap().iter().map(|d| d.name.clone()).collect();
        names.sort();
        assert_eq!(
            names,
            vec!["arp", "cs", "dk", "ether0", "il", "log", "tcp", "trace", "udp"]
        );
    }

    #[test]
    fn stats_and_netlog_through_namespace() {
        let (helix, gnot) = helix_and_gnot();
        let hp = helix.proc();
        // Trace IL on the caller, then run one echo over it.
        let gp = gnot.proc();
        let ctl = gp
            .open("/net/log/ctl", plan9_ninep::procfs::OpenMode::RDWR)
            .unwrap();
        gp.write_str(ctl, "set il").unwrap();
        let echo = std::thread::spawn(move || {
            let (_afd, adir) = announce(&hp, "il!*!echo").unwrap();
            let (lcfd, ldir) = listen(&hp, &adir).unwrap();
            let dfd = accept(&hp, lcfd, &ldir).unwrap();
            let msg = hp.read(dfd, 8192).unwrap();
            hp.write(dfd, &msg).unwrap();
        });
        std::thread::sleep(Duration::from_millis(100));
        let conn = dial(&gp, "il!135.104.9.31!echo").unwrap();
        gp.write(conn.data_fd, b"count me").unwrap();
        assert_eq!(gp.read(conn.data_fd, 8192).unwrap(), b"count me");
        echo.join().unwrap();
        // The protocol stats file shows traffic.
        let fd = gp
            .open("/net/il/stats", plan9_ninep::procfs::OpenMode::READ)
            .unwrap();
        let text = gp.read_string(fd).unwrap();
        let count = |name: &str| text.lines().find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok());
        assert!(count("il.tx ").is_some_and(|n| n > 0), "{text}");
        assert!(count("ip.rx ").is_some_and(|n| n > 0), "{text}");
        // The netlog data file holds only il-facility events.
        let fd = gp
            .open("/net/log/data", plan9_ninep::procfs::OpenMode::READ)
            .unwrap();
        let log = gp.read_string(fd).unwrap();
        assert!(log.lines().all(|l| l.starts_with("il: ")), "{log}");
        assert!(log.contains("sync id"), "{log}");
    }

    /// Three machines with nothing but an Ethernet between them.
    fn alice_bob_and_monitor() -> [Arc<Machine>; 3] {
        let seg = EtherSegment::new(Profiles::ether_fast());
        [("alice", 1), ("bob", 2), ("monitor", 3)].map(|(name, n)| {
            MachineBuilder::new(name)
                .ether(&seg, mac(n), IpConfig::local(&format!("10.0.0.{n}")))
                .ndb("sys=alice ip=10.0.0.1\nsys=bob ip=10.0.0.2\nsys=monitor ip=10.0.0.3\n")
                .build()
                .unwrap()
        })
    }

    /// Answers IL echo calls on `m`, one at a time, for as long as the
    /// test runs.
    fn il_echo_service(m: &Machine) {
        let p = m.proc();
        let (_afd, adir) = announce(&p, "il!*!echo").unwrap();
        std::thread::spawn(move || loop {
            let (lcfd, ldir) = listen(&p, &adir).unwrap();
            let dfd = accept(&p, lcfd, &ldir).unwrap();
            while let Ok(msg) = p.read(dfd, 8192) {
                if msg.is_empty() || p.write(dfd, &msg).is_err() {
                    break;
                }
            }
        });
    }

    /// Opens a conversation on `p`'s Ethernet device and configures it
    /// with `cmds`; returns its ctl and data fds.
    fn ether_conversation(p: &Proc, cmds: &[&str]) -> (i32, i32) {
        let ctl = p.open("/net/ether0/clone", OpenMode::RDWR).unwrap();
        let n = String::from_utf8(p.read(ctl, 16).unwrap()).unwrap();
        for cmd in cmds {
            p.write_str(ctl, cmd).unwrap();
        }
        let data = p.open(&format!("/net/ether0/{n}/data"), OpenMode::RDWR).unwrap();
        (ctl, data)
    }

    /// Reads frames from an ether conversation on a thread of its own;
    /// the receiver yields each one as it arrives.
    fn frames_of(p: Proc, data: i32) -> std::sync::mpsc::Receiver<EtherFrame> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            while let Some(f) = p.read(data, 4096).ok().and_then(|raw| EtherFrame::decode(&raw)) {
                if tx.send(f).is_err() {
                    return;
                }
            }
        });
        rx
    }

    fn echo_once(p: &Proc, fd: i32, msg: &[u8]) {
        p.write(fd, msg).unwrap();
        assert_eq!(p.read(fd, 8192).unwrap(), msg);
    }

    #[test]
    fn an_ip_typed_ether_conversation_gets_copies_and_ip_keeps_its_own() {
        let [alice, bob, _] = alice_bob_and_monitor();
        let bp = bob.proc();
        let (_ctl, data) = ether_conversation(&bp, &["connect 2048"]);
        let copies = frames_of(bp, data);
        il_echo_service(&bob);
        // The kernel's conversation of type 2048 still gets the dial...
        let ap = alice.proc();
        let conn = dial(&ap, "il!10.0.0.2!echo").unwrap();
        echo_once(&ap, conn.data_fd, b"both of us");
        ap.close(conn.data_fd);
        ap.close(conn.ctl_fd);
        // ...and the device's gets a copy of every IP frame of it:
        // IL's Sync first, then as many as IP took off the wire.
        let mut got = Vec::new();
        while let Ok(f) = copies.recv_timeout(Duration::from_millis(300)) {
            got.push(f);
        }
        let ip = bob.ip.as_ref().unwrap();
        assert_eq!(got.len() as u64, ip.stats.rx_packets.get());
        assert!(got.iter().all(|f| f.ethertype == 2048 && f.src == mac(1)), "{got:?}");
        let (hdr, il) = plan9_inet::ip::decode_ip(&got[0].payload).unwrap();
        assert_eq!(hdr.proto, plan9_inet::IL_PROTO);
        assert_eq!(plan9_inet::il::decode_il(il).unwrap().typ, plan9_inet::il::IlType::Sync);
    }

    #[test]
    fn promiscuous_opens_the_address_filter_until_the_last_clunk() {
        let [alice, bob, monitor] = alice_bob_and_monitor();
        let mp = monitor.proc();
        let (ctl, data) = ether_conversation(&mp, &["promiscuous", "connect -1"]);
        il_echo_service(&bob);
        let ap = alice.proc();
        let conn = dial(&ap, "il!10.0.0.2!echo").unwrap();
        echo_once(&ap, conn.data_fd, b"overheard");
        // The monitor sees unicasts in both directions of an exchange
        // it has no part in: among the six frames at least (ARP both
        // ways, Sync both ways, a message and its echo) it has queued.
        let sniffed: Vec<EtherFrame> = (0..6)
            .map(|_| EtherFrame::decode(&mp.read(data, 4096).unwrap()).unwrap())
            .collect();
        for pair in [(mac(1), mac(2)), (mac(2), mac(1))] {
            assert!(sniffed.iter().any(|f| (f.src, f.dst) == pair), "{sniffed:?}");
        }
        // Clunking the only promiscuous conversation restores the
        // controller's filter: the next exchange never reaches it.
        mp.close(data);
        mp.close(ctl);
        let dev = monitor.ether_dev.as_ref().unwrap();
        let before = dev.in_packets.get();
        echo_once(&ap, conn.data_fd, b"in private");
        assert_eq!(dev.in_packets.get(), before);
    }

    #[test]
    fn unrouted_counts_only_frames_nobody_took() {
        let [alice, bob, _] = alice_bob_and_monitor();
        il_echo_service(&bob);
        let ap = alice.proc();
        let conn = dial(&ap, "il!10.0.0.2!echo").unwrap();
        echo_once(&ap, conn.data_fd, b"taken by ip");
        // ARP and IP are conversations too: what they took is routed.
        let dev = bob.ether_dev.as_ref().unwrap();
        assert!(dev.in_packets.get() >= 2, "{}", dev.stats_text());
        assert_eq!(dev.unrouted.get(), 0);
        assert_eq!(alice.ether_dev.as_ref().unwrap().unrouted.get(), 0);
        // A type nobody on bob listens for is not.
        let (_ctl, data) = ether_conversation(&ap, &["connect 7"]);
        let mut frame = mac(2).to_vec();
        frame.extend_from_slice(b"anyone?");
        ap.write(data, &frame).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while dev.unrouted.get() == 0 {
            assert!(std::time::Instant::now() < deadline, "frame never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(dev.unrouted.get(), 1);
    }

    #[test]
    fn dial_il_by_symbolic_name() {
        let (helix, gnot) = helix_and_gnot();
        let hp = helix.proc();
        let echo = std::thread::spawn(move || {
            let (_afd, adir) = announce(&hp, "il!*!9fs").unwrap();
            let (lcfd, ldir) = listen(&hp, &adir).unwrap();
            let dfd = accept(&hp, lcfd, &ldir).unwrap();
            let msg = hp.read(dfd, 8192).unwrap();
            hp.write(dfd, &msg).unwrap();
        });
        std::thread::sleep(Duration::from_millis(100));
        let gp = gnot.proc();
        let conn = dial(&gp, "net!helix!9fs").unwrap();
        assert!(conn.dir.starts_with("/net/il/"), "{}", conn.dir);
        gp.write(conn.data_fd, b"Tattach please").unwrap();
        assert_eq!(gp.read(conn.data_fd, 8192).unwrap(), b"Tattach please");
        echo.join().unwrap();
    }

    #[test]
    fn dial_falls_back_to_datakit() {
        let (helix, gnot) = helix_and_gnot();
        let hp = helix.proc();
        let srv = std::thread::spawn(move || {
            let (_afd, adir) = announce(&hp, "dk!*!rx").unwrap();
            let (lcfd, ldir) = listen(&hp, &adir).unwrap();
            let dfd = accept(&hp, lcfd, &ldir).unwrap();
            let msg = hp.read(dfd, 8192).unwrap();
            hp.write(dfd, &msg).unwrap();
        });
        std::thread::sleep(Duration::from_millis(100));
        let gp = gnot.proc();
        // rx is not an il/tcp service name, so only dk resolves it.
        let conn = dial(&gp, "dk!nj/astro/helix!rx").unwrap();
        assert!(conn.dir.starts_with("/net/dk/"), "{}", conn.dir);
        gp.write(conn.data_fd, b"over datakit").unwrap();
        assert_eq!(gp.read(conn.data_fd, 8192).unwrap(), b"over datakit");
        srv.join().unwrap();
    }

    #[test]
    fn status_files_through_namespace() {
        let (helix, gnot) = helix_and_gnot();
        let hp = helix.proc();
        let _echo = std::thread::spawn(move || {
            let (_afd, adir) = announce(&hp, "tcp!*!echo").unwrap();
            loop {
                let Ok((lcfd, ldir)) = listen(&hp, &adir) else { return };
                let Ok(dfd) = accept(&hp, lcfd, &ldir) else { return };
                let _ = hp.read(dfd, 10);
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        let gp = gnot.proc();
        let conn = dial(&gp, "tcp!135.104.9.31!echo").unwrap();
        // cat local remote status, like the paper's §2.3 listing.
        let st = gp
            .open(&format!("{}/status", conn.dir), plan9_ninep::procfs::OpenMode::READ)
            .unwrap();
        let text = gp.read_string(st).unwrap();
        assert!(text.contains("Established"), "{text}");
        let rf = gp
            .open(&format!("{}/remote", conn.dir), plan9_ninep::procfs::OpenMode::READ)
            .unwrap();
        let text = gp.read_string(rf).unwrap();
        assert_eq!(text, "135.104.9.31 7\n");
    }

    #[test]
    fn csquery_via_net_cs_file() {
        let (_, gnot) = helix_and_gnot();
        let p = gnot.proc();
        let fd = p
            .open("/net/cs", plan9_ninep::procfs::OpenMode::RDWR)
            .unwrap();
        p.write_str(fd, "net!helix!9fs").unwrap();
        let first = String::from_utf8(p.read(fd, 256).unwrap()).unwrap();
        assert_eq!(first, "/net/il/clone 135.104.9.31!17008");
        let second = String::from_utf8(p.read(fd, 256).unwrap()).unwrap();
        assert_eq!(second, "/net/tcp/clone 135.104.9.31!564");
        let third = String::from_utf8(p.read(fd, 256).unwrap()).unwrap();
        assert_eq!(third, "/net/dk/clone nj/astro/helix!9fs");
    }

    #[test]
    fn unknown_service_rejected_with_reason_on_datakit() {
        let (helix, gnot) = helix_and_gnot();
        let _keep = helix; // its line must be in the switch to reject
        let gp = gnot.proc();
        let conn = dial(&gp, "dk!nj/astro/helix!nonesuch").unwrap();
        // The rejection surfaces as EOF on the data file.
        let data = gp.read(conn.data_fd, 100).unwrap();
        assert!(data.is_empty());
    }
}
