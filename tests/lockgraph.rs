//! Runtime lock-order capture: drive the kernel across its concurrency
//! surface — a scenario fabric with a flash crowd and netmon collector,
//! then a two-machine segment doing IL and TCP dials, ether clone
//! opens, pipes, an import mounted over an import and one over TCP — and snapshot
//! the lock-order graph lockdep observed along the way.
//!
//! With `LOCKGRAPH_UPDATE=1` the snapshot is written to
//! `scripts/lockgraph-observed.txt`, the dump `plan9-check`
//! cross-checks its static lock-order edges against (edges the runtime
//! never saw are reported as untested, not silently trusted). Without
//! the variable the test only checks the live graph and that the
//! checked-in dump is well-formed, so CI stays read-only.
//!
//! One test function on purpose: lockdep is a process singleton, and a
//! single ordered exercise keeps the captured graph a superset of every
//! piece rather than whichever test the harness ran last.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::MachineBuilder;
use plan9::core::mountdrv::MountDriver;
use plan9::core::namespace::{Source, MREPL};
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::netsim::uart_pair;
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9::ninep::qid::Qid;
use plan9_support::vtime;
use std::sync::Arc;
use std::time::Duration;

const SCRIPT: &str = "\
seed 4093
topology grid cities=2 hosts=4 ndb-lines=300
at 100ms flashcrowd city=1 dials=12 size=512 window=300ms
netmon 50ms
end 700ms
";

/// Echoes one connection at a time until the announce fd dies; with
/// `once`, hangs a connection up on its first message instead.
fn echo_service(p: plan9::core::proc::Proc, addr: &'static str, once: bool) {
    let (_afd, adir) = announce(&p, addr).expect("announce");
    std::thread::spawn(move || loop {
        let Ok((lcfd, ldir)) = listen(&p, &adir) else {
            return;
        };
        let Ok(dfd) = accept(&p, lcfd, &ldir) else {
            return;
        };
        while let Ok(msg) = p.read(dfd, 8192) {
            if msg.is_empty() || once {
                break;
            }
            let _ = p.write(dfd, &msg);
        }
        p.close(dfd);
        p.close(lcfd);
    });
}

#[test]
fn capture_runtime_lock_order_graph() {
    if !cfg!(debug_assertions) {
        // lockdep is compiled out; nothing to capture.
        return;
    }

    // 1. The scenario fabric: gateways, flash crowd, netmon collector
    // pulling series across exportfs. This touches the netsim ether,
    // proto/IL/TCP conversation machinery, the pool, the wheel, the
    // series sampler and the 9P client in one deterministic run.
    let sc = plan9_scenario::dsl::parse(SCRIPT).expect("script parses");
    let guard = vtime::enter();
    let report = plan9_scenario::run(&sc);
    drop(guard);
    assert!(report.clean(), "scenario run dirty:\n{}", report.text);

    // 2. A two-machine segment on the real clock: IL and TCP dials
    // (conversation alloc + clunk on both protocol directories), a
    // Datakit line through the switch (dispatcher, fabric circuits), a
    // UDP send big enough to fragment, an ether clone open/close, a
    // serial line, and a pipe — the device and protocol classes the
    // scenario's gateways don't touch. The wire is slightly lossy so
    // the loss lottery (and its lock) runs.
    let seg = EtherSegment::new(Profiles::ether_fast().with_loss(0.01));
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let (uart_a, uart_b) = uart_pair(1_000_000);
    let ndb = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 dk=nj/astro/helix proto=il proto=tcp
sys=gnot ip=135.104.9.40 dk=nj/astro/gnot proto=il proto=tcp
";
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .datakit(&switch, "nj/astro/helix")
        .ndb(ndb)
        .build()
        .expect("boot helix");
    let gnot = MachineBuilder::new("gnot")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0x40], IpConfig::local("135.104.9.40"))
        .datakit(&switch, "nj/astro/gnot")
        .uart(uart_a)
        .ndb(ndb)
        .build()
        .expect("boot gnot");
    echo_service(helix.proc(), "il!*!echo", false);
    echo_service(helix.proc(), "tcp!*!7", false);
    echo_service(helix.proc(), "tcp!*!9", true);
    echo_service(helix.proc(), "dk!*!echo", false);
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).expect("exportfs");
    exportfs_listener(helix.proc(), "tcp!*!exportfs", usize::MAX).expect("exportfs");
    std::thread::sleep(Duration::from_millis(100));

    let p = gnot.proc();
    // The first pipe in the process is opened and closed unused: its
    // hangup is the first block any stream queue takes, so the copy
    // site that counts queued bytes registers under the pipe device's
    // and the pipe's locks — the order a first-ever put takes anywhere.
    let (r, w) = p.pipe().expect("pipe");
    p.close(w);
    p.close(r);
    for addr in ["il!helix!echo", "tcp!135.104.9.31!7", "dk!nj/astro/helix!echo"] {
        let conn = dial(&p, addr).expect(addr);
        p.write(conn.data_fd, b"ping").expect("write");
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(p.read(conn.data_fd, 64).expect("read"));
        }
        assert_eq!(got, b"ping", "{addr}");
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
    }
    // A Datakit call nobody serves: the dispatcher rejects it with a
    // reason, which is its own lock class. The rejection is
    // asynchronous, so the dial may succeed and die on first use.
    if let Ok(conn) = dial(&p, "dk!nj/astro/helix!nosuch") {
        std::thread::sleep(Duration::from_millis(50));
        let dead = p.write(conn.data_fd, b"x").is_err()
            || p.read(conn.data_fd, 16).map_or(true, |v| v.is_empty());
        assert!(dead, "rejected circuit still carries data");
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
    }

    // A UDP datagram bigger than the Ethernet MTU: the bind table on
    // this side, fragment reassembly on the far side.
    let udp = dial(&p, "udp!helix!echo").expect("udp dial");
    p.write(udp.data_fd, &vec![0x42u8; 4000]).expect("udp send");
    std::thread::sleep(Duration::from_millis(50));
    p.close(udp.data_fd);
    p.close(udp.ctl_fd);

    // An ether conversation, promiscuous so that opening and clunking
    // it reach the controller's address filter under the table lock.
    let eclone = p.open("/net/ether0/clone", OpenMode::RDWR).expect("ether clone");
    p.write_str(eclone, "promiscuous").expect("promiscuous");
    p.close(eclone);
    // A pipe, the one device built on streams: a write, a read, and the
    // hangup its last close sends.
    let (r, w) = p.pipe().expect("pipe");
    p.write(w, b"piped").expect("pipe write");
    assert_eq!(p.read(r, 64).expect("pipe read"), b"piped");
    p.close(w);
    p.close(r);

    // The first framed 9P message in the process goes out where a mount
    // that replaces another clunks the tree it hides, under the name
    // space lock: the hidden tree is a mount driver, never attached, on
    // a TCP call that is hung up on its first message, its Tclunk. The
    // framing copy site registers there, under the name space lock and
    // the driver's sink, as a first-ever framed message anywhere would
    // take them.
    let echo = dial(&p, "tcp!135.104.9.31!9").expect("tcp dial");
    let hidden: Arc<dyn ProcFs> = MountDriver::over_bytes(p.io(echo.data_fd).unwrap()).unwrap();
    let root = ServeNode::new(Qid::dir(0, 0), 1);
    p.ns.mount(Source { fs: hidden, node: root }, "/n/echo", MREPL).expect("mount echo");
    let mem: Arc<dyn ProcFs> = MemFs::new("lockgraph", "bootes");
    p.mount_fs(&mem, "", "/n/echo", MREPL).expect("mount over echo");
    p.close(echo.data_fd);
    p.close(echo.ctl_fd);

    // An import mounted over an import: replacing the mount point
    // clunks the old tree's root, a 9P RPC, under the name space lock.
    for _ in 0..2 {
        import(&p, "dk!nj/astro/helix!exportfs", "/net", "/n/helix", MREPL).expect("import");
    }
    assert!(p.ls("/n/helix").expect("ls /n/helix").iter().any(|d| d.name == "dk"));
    // An import over TCP, which helix serves from a pool shard.
    import(&p, "tcp!helix!exportfs", "/net", "/n/helixtcp", MREPL).expect("tcp import");
    assert!(p.ls("/n/helixtcp").expect("ls /n/helixtcp").iter().any(|d| d.name == "tcp"));

    // The serial line: bytes both ways through /dev/eia1.
    let eia = p.open("/dev/eia1", OpenMode::RDWR).expect("open eia1");
    p.write(eia, b"at").expect("eia write");
    uart_b.send(b"ok").expect("uart send");
    let mut got = Vec::new();
    while got.len() < 2 {
        got.extend(p.read(eia, 16).expect("eia read"));
    }
    assert_eq!(got, b"ok");
    p.close(eia);

    // 3. Snapshot and check.
    let dump = plan9_support::lockgraph_dump();
    for must in [
        "edge core.proc.nextfd -> core.proc.fds",
        "edge core.proc.fds -> ninep.convtable",
        "edge core.ether.promiscuous -> netsim.ether.stations",
        "class support.wheel acquires=",
    ] {
        assert!(dump.contains(must), "runtime graph missing `{must}`:\n{dump}");
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/lockgraph-observed.txt");
    if std::env::var_os("LOCKGRAPH_UPDATE").is_some() {
        let header = "# Runtime lock-order graph captured by `LOCKGRAPH_UPDATE=1 \
cargo test --test lockgraph`.\n# `plan9-check` cross-checks its static \
lock-order edges against this dump.\n";
        std::fs::write(path, format!("{header}{dump}")).expect("write observed dump");
        return;
    }

    // The checked-in dump must stay well-formed: every non-comment
    // line is a `class` or `edge` row in the `/net/log/lockgraph`
    // format parse_observed understands.
    let text = std::fs::read_to_string(path).expect(
        "scripts/lockgraph-observed.txt missing; regenerate with \
         LOCKGRAPH_UPDATE=1 cargo test --test lockgraph",
    );
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let ok = (line.starts_with("class ") && line.contains(" acquires="))
            || (line.starts_with("edge ") && line.contains(" -> ") && line.contains(" thread="));
        assert!(ok, "malformed line in checked-in dump: {line}");
    }
}
