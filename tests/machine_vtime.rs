//! Machines under the virtual clock, where which process runs what is
//! the program's to say and never the host's. In a binary of its own: a
//! virtual run is process-wide, and `core`'s unit tests run on the real
//! clock.

use oracle::fs::Probe;
use oracle::world::helix_musca_gnot;
use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::namespace::{MAFTER, MREPL};
use plan9::core::proc::Proc;
use plan9::exportfs::exportfs::{exportfs_listener, serve_export};
use plan9::exportfs::import::import;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::{OpenMode, ProcFs};
use plan9_support::vtime;
use std::sync::Arc;

mod oracle;

const NDB: &str = "\
sys=helix ip=10.21.0.1 dk=nj/astro/helix proto=il proto=tcp
sys=musca ip=10.21.0.9 proto=il proto=tcp
sys=gnot dk=nj/astro/gnot
";

/// A service answers from the moment `serve_calls` returns: it has
/// announced before it makes the listener kproc, and under the virtual
/// clock that kproc has not yet run when the import in the next
/// statement dials. A TCP or Datakit call that found nothing announced
/// would be refused at once.
#[test]
fn a_service_answers_once_it_is_started() {
    let _vt = vtime::enter();
    let (helix, musca, gnot) = helix_musca_gnot(NDB);
    for (proto, importer, dest) in [
        ("il", &musca, "il!helix!exportfs"),
        ("tcp", &musca, "tcp!helix!exportfs"),
        ("dk", &gnot, "dk!nj/astro/helix!exportfs"),
    ] {
        let listener = exportfs_listener(helix.proc(), &format!("{proto}!*!exportfs"), 1).expect(proto);
        let p = importer.proc();
        import(&p, dest, "/lib/ndb", "/n/helix", MREPL).expect(dest);
        assert!(!p.ls("/n/helix").expect(dest).is_empty(), "{dest}");
        listener.join().expect("listener");
        p.ns.unmount("/n/helix").expect("unmount");
    }
    let left = [&helix, &musca].map(|m| m.ip.as_ref().expect("ip stack").settle());
    assert_eq!(left, [0, 0], "conversations left on helix and musca");
}

/// An Ethernet interface is serviced on its station's pool shard: it
/// brings no kernel process of its own, so none outlives the machine.
#[test]
fn an_ethernet_interface_adds_no_kproc() {
    let vt = vtime::enter();
    let before = vt.clock().census();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let machine = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .build()
        .expect("boot helix");
    assert!(machine.ether_dev.is_some());
    assert_eq!(vt.clock().census(), before);
}

/// A Datakit line is an entry in the switch's table, with the services
/// announced on it: a call reaches its announcement on the dialer's
/// thread, so the line brings no kernel process, and dropping the
/// machine frees its address.
#[test]
fn a_datakit_line_adds_no_kproc() {
    let vt = vtime::enter();
    let before = vt.clock().census();
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let machine = MachineBuilder::new("gnot")
        .datakit(&switch, "nj/astro/gnot")
        .build()
        .expect("boot gnot");
    assert_eq!(vt.clock().census(), before);
    drop(machine);
    assert!(switch.attach("nj/astro/gnot").is_ok());
}

/// Which process runs an importer's read of a file in memory is the
/// transport's to say, never a setting. The IL, TCP and Datakit devices
/// and the pipe take up `serve_nine` and run it on the thread that
/// delivered the request: on this unpaced Ethernet and over a pipe the
/// importer's own, which holds no lock as it writes. A Datakit cell is
/// delivered by the importer or, when it lands on a circuit shard a
/// worker is draining, by that pool worker. Never a process of the
/// export's. An IL or TCP conversation whose `data` file is itself
/// imported (gnot has no IP but helix's) is read and served by the
/// parked `exportfs` kproc, as every export conversation once was. On
/// the virtual clock, because on the real one a pool worker still
/// draining helix's station shard, from the reply before, when the
/// importer writes its next request delivers that request too, and can
/// go on doing so for every request after it.
#[test]
fn a_conversation_is_served_where_its_requests_arrive() {
    let _vt = vtime::enter();
    let (helix, musca, gnot) = helix_musca_gnot(NDB);
    let probe = Probe::new();
    let fs: Arc<dyn ProcFs> = probe.clone();
    let with_probe = |p: Proc| {
        p.mount_fs(&fs, "", "/n/probe", MREPL).unwrap();
        p
    };
    // Each serves the calls below and no more, so that nothing of this
    // run is left to wake in the next.
    let mut listeners = Vec::new();
    for (addr, calls) in [("il!*!exportfs", 1), ("tcp!*!exportfs", 1), ("dk!*!exportfs", 2)] {
        listeners.push(exportfs_listener(with_probe(helix.proc()), addr, calls).expect(addr));
    }
    // The threads that ran ten reads of `/n/x/f`; then `/n/x` is let go.
    let readers = |p: &Proc| -> Vec<String> {
        probe.reads.lock().unwrap().clear();
        let f = p.open("/n/x/f", OpenMode::READ).expect("open f");
        assert!((0..10).all(|_| p.pread(f, 0, 64).unwrap() == b"data at hand"));
        p.close(f);
        p.ns.unmount("/n/x").expect("unmount");
        probe.readers(false).into_iter().collect()
    };
    let imported = |m: &Arc<Machine>, addr: &str| {
        let p = m.proc();
        import(&p, addr, "/n/probe", "/n/x", MREPL).expect(addr);
        readers(&p)
    };
    let me = std::thread::current().name().unwrap_or("").to_string();
    for addr in ["il!helix!exportfs", "tcp!helix!exportfs"] {
        assert_eq!(imported(&musca, addr), [me.as_str()], "{addr}: the importer did not deliver its reads");
    }
    let dk = imported(&gnot, "dk!nj/astro/helix!exportfs");
    assert!(
        !dk.is_empty() && dk.iter().all(|t| *t == me || t == "pool-worker"),
        "dk: read on {dk:?}, not by the importer or a pool worker"
    );

    // The import command's initial protocol, spoken over a pipe.
    let p = with_probe(helix.proc());
    let (srv_fd, mnt_fd) = p.pipe().unwrap();
    let (srv, srv_fd) = p.fork_with_fd(srv_fd);
    let piped = vtime::kproc("exportfs", move || serve_export(&srv, srv_fd, false)).unwrap();
    p.write(mnt_fd, b"/n/probe").unwrap();
    assert_eq!(p.read(mnt_fd, 64).unwrap(), b"OK");
    p.mount_fd(mnt_fd, "", "/n/x", MREPL, false).unwrap();
    assert_eq!(readers(&p), [me.as_str()], "pipe: the importer did not serve its reads");
    drop(p);
    let _ = piped.join();

    // gnot announces on helix's IL and TCP, through its import of
    // helix's /net.
    let gp = with_probe(gnot.proc());
    import(&gp, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import /net");
    for addr in ["il!*!17099", "tcp!*!17099"] {
        listeners.push(exportfs_listener(gp.fork(), addr, 1).expect(addr));
    }
    assert_eq!(imported(&musca, "il!helix!17099"), ["exportfs"]);
    assert_eq!(imported(&musca, "tcp!helix!17099"), ["exportfs"]);
    for l in listeners {
        l.join().expect("listener");
    }
    drop(gp);
    let left = [&helix, &musca].map(|m| m.ip.as_ref().expect("ip stack").settle());
    assert_eq!(left, [0, 0], "conversations left on helix and musca");
}
