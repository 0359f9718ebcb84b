//! Integration: §6.1 — exportfs/import gatewaying between networks.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::namespace::{MAFTER, MREPL};
use plan9::core::proc::Proc;
use plan9::exportfs::cpu::{cpu, cpu_listener, CpuJob};
use plan9::exportfs::exportfs::{exportfs_listener, serve_export};
use plan9::exportfs::import::import;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9::ninep::{Dir, Result};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const NDB: &str = "\
sys=helix ip=10.21.0.1 dk=nj/astro/helix proto=il proto=tcp
sys=musca ip=10.21.0.9 proto=tcp
sys=gnot dk=nj/astro/gnot
tcp=cpu port=17013
";

/// helix has ether+dk; musca is ether-only; gnot is dk-only.
fn world() -> (Arc<Machine>, Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0, 21, 0, 1], IpConfig::local("10.21.0.1"))
        .datakit(&switch, "nj/astro/helix")
        .ndb(NDB)
        .build()
        .unwrap();
    let musca = MachineBuilder::new("musca")
        .ether(&seg, [8, 0, 0, 21, 0, 9], IpConfig::local("10.21.0.9"))
        .ndb(NDB)
        .build()
        .unwrap();
    let gnot = MachineBuilder::new("gnot")
        .datakit(&switch, "nj/astro/gnot")
        .ndb(NDB)
        .build()
        .unwrap();
    (helix, musca, gnot)
}

#[test]
fn union_shows_local_before_remote_and_adds_unique() {
    let (helix, _musca, gnot) = world();
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    let before: Vec<String> = p.ls("/net").unwrap().iter().map(|d| d.name.clone()).collect();
    assert!(before.contains(&"dk".to_string()));
    assert!(before.contains(&"cs".to_string()));
    assert!(!before.contains(&"tcp".to_string()), "terminal has no tcp");
    import(&p, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import");
    let after: Vec<String> = p.ls("/net").unwrap().iter().map(|d| d.name.clone()).collect();
    // Unique remote entries are now visible...
    for name in ["tcp", "il", "udp", "ether0"] {
        assert!(after.contains(&name.to_string()), "{name} missing: {after:?}");
    }
    // ...and shared names appear once (local supersedes remote).
    assert_eq!(after.iter().filter(|n| *n == "cs").count(), 1);
    assert_eq!(after.iter().filter(|n| *n == "dk").count(), 1);
}

#[test]
fn gatewayed_dial_reaches_ether_only_host() {
    let (helix, musca, gnot) = world();
    // A daytime server on the ether-only host.
    let mp = musca.proc();
    std::thread::spawn(move || {
        let (_afd, adir) = announce(&mp, "tcp!*!daytime").expect("announce");
        loop {
            let Ok((lcfd, ldir)) = listen(&mp, &adir) else { return };
            let Ok(dfd) = accept(&mp, lcfd, &ldir) else { return };
            let _ = mp.write(dfd, b"16 Jul 1992 17:28");
            mp.close(dfd);
            mp.close(lcfd);
        }
    });
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    import(&p, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import");
    // The dial goes through gnot's (dk-only) cs, falls back to the raw
    // clone path, and the connect executes on helix — which resolves
    // the name "musca" in its own database.
    let conn = dial(&p, "tcp!musca!daytime").expect("dial through gateway");
    let date = p.read(conn.data_fd, 128).expect("read");
    assert_eq!(date, b"16 Jul 1992 17:28");
}

#[test]
fn remote_status_files_visible_through_gateway() {
    let (helix, _musca, gnot) = world();
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    import(&p, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import");
    // Reading helix's ether stats across the gateway.
    let fd = p
        .open("/net/ether0/clone", plan9::ninep::procfs::OpenMode::RDWR)
        .expect("open remote clone");
    // §2.3 order: read the connection number, then write the ctl.
    let n = String::from_utf8(p.read(fd, 16).unwrap()).unwrap();
    p.write_str(fd, "connect 2048").expect("connect");
    let sfd = p
        .open(
            &format!("/net/ether0/{n}/stats"),
            plan9::ninep::procfs::OpenMode::READ,
        )
        .expect("open stats");
    let stats = p.read_string(sfd).expect("read stats");
    assert!(stats.contains("addr:"), "{stats}");
}

#[test]
fn import_subtree_other_than_net() {
    let (helix, _musca, gnot) = world();
    // Put something notable in helix's /lib.
    helix
        .rootfs
        .put_file("/lib/ndb/global", b"# the AT&T-wide file\n")
        .unwrap();
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    import(
        &p,
        "dk!nj/astro/helix!exportfs",
        "/lib/ndb",
        "/n/helixndb",
        plan9::core::namespace::MREPL,
    )
    .expect("import /lib/ndb");
    let fd = p
        .open("/n/helixndb/global", plan9::ninep::procfs::OpenMode::READ)
        .expect("open");
    assert_eq!(p.read_string(fd).unwrap(), "# the AT&T-wide file\n");
}

#[test]
fn import_missing_tree_reports_error() {
    let (helix, _musca, gnot) = world();
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    let err = import(
        &p,
        "dk!nj/astro/helix!exportfs",
        "/no/such/tree",
        "/n/x",
        plan9::core::namespace::MREPL,
    )
    .unwrap_err();
    assert!(err.0.contains("NO"), "{err}");
}

/// Polls until `done`, or five seconds have gone.
fn settled(done: impl Fn() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !done() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    done()
}

/// The conversations each machine's stack is left with once it settles.
fn left_on(machines: [&Arc<Machine>; 2]) -> [usize; 2] {
    machines.map(|m| m.ip.as_ref().unwrap().settle())
}

/// A TCP call `exportfs_listener` served must leave no conversation
/// behind on either machine once the importer unmounts: the listener
/// closes the call's ctl file, so nothing pins the serving end in
/// Close_wait.
#[test]
fn tcp_import_leaves_no_conversation_after_unmount() {
    let (helix, musca, _gnot) = world();
    exportfs_listener(helix.proc(), "tcp!*!exportfs", usize::MAX).unwrap();
    let p = musca.proc();
    import(
        &p,
        "tcp!helix!exportfs",
        "/lib/ndb",
        "/n/helixndb",
        plan9::core::namespace::MREPL,
    )
    .expect("import over tcp");
    assert!(!p.ls("/n/helixndb").unwrap().is_empty());
    let during = [&helix, &musca].map(|m| m.ip.as_ref().unwrap().tcp_module().conn_count());
    assert!(during.iter().all(|&n| n > 0), "{during:?}");
    p.ns.unmount("/n/helixndb").expect("unmount");
    // `import` leaves the data file open in the importing process; the
    // conversation ends with it.
    drop(p);
    assert_eq!(left_on([&helix, &musca]), [0, 0]);
}

/// The same of a call `cpu_listener` served, once the job has run and
/// the terminal's `cpu` has returned.
#[test]
fn tcp_cpu_session_leaves_no_conversation() {
    let (helix, musca, _gnot) = world();
    let job: CpuJob = Arc::new(|p| {
        assert!(!p.ls("/mnt/term/lib/ndb").unwrap().is_empty());
    });
    cpu_listener(helix.proc(), "tcp!*!cpu", job, usize::MAX).unwrap();
    let p = musca.proc();
    cpu(&p, "tcp!helix!cpu", "/").expect("cpu session");
    drop(p);
    assert_eq!(left_on([&helix, &musca]), [0, 0]);
}

/// A file server of data at hand (it says so) that notes the thread
/// each read ran on, and whether the read was of a directory.
struct Probe {
    mem: Arc<MemFs>,
    reads: Mutex<Vec<(bool, String)>>,
}

impl Probe {
    /// The names of the threads that read a directory, or a file.
    fn readers(&self, dir: bool) -> HashSet<String> {
        let reads = self.reads.lock().unwrap();
        reads.iter().filter(|r| r.0 == dir).map(|r| r.1.clone()).collect()
    }
}

impl ProcFs for Probe {
    fn fsname(&self) -> String {
        self.mem.fsname()
    }
    fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
        self.mem.attach(uname, aname)
    }
    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        self.mem.clone_node(n)
    }
    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        self.mem.walk(n, name)
    }
    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        self.mem.open(n, mode)
    }
    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let thread = std::thread::current().name().unwrap_or("").to_string();
        self.reads.lock().unwrap().push((n.qid.is_dir(), thread));
        self.mem.read(n, offset, count)
    }
    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        self.mem.write(n, offset, data)
    }
    fn clunk(&self, n: &ServeNode) {
        self.mem.clunk(n)
    }
    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        self.mem.stat(n)
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        self.mem.may_block(n)
    }
}

/// A UDP conversation on helix, made through an import of its `/` at
/// `/n/helix`: the conversation's number and its open `data` file,
/// which has nothing to read until musca sends.
fn imported_udp_conv(p: &Proc) -> (String, i32) {
    let ctl = p.open("/n/helix/net/udp/clone", OpenMode::RDWR).expect("clone");
    let n = String::from_utf8(p.read(ctl, 16).unwrap()).unwrap();
    p.write_str(ctl, "connect 10.21.0.9!4000").expect("connect");
    let data = p.open(&format!("/n/helix/net/udp/{n}/data"), OpenMode::RDWR).expect("data");
    (n, data)
}

/// Waits for a thread that must not be stuck.
fn finished_within<T>(h: std::thread::ScopedJoinHandle<'_, T>, secs: u64, what: &str) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while !h.is_finished() {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    h.join().unwrap()
}

/// §6.1 gives exportfs slave processes because a read may block. Over
/// one export conversation: a read parked in a `data` file of the
/// exported `/net` holds a slave and delays nobody; a file in memory
/// is read by the process that reads the conversation; a directory,
/// whose union read crosses mounts, still gets a slave.
#[test]
fn exportfs_keeps_its_slaves_for_the_files_that_may_block() {
    let (helix, musca, gnot) = world();
    let mem = MemFs::new("probe", "bootes");
    mem.put_file("/f", b"data at hand").unwrap();
    let probe = Arc::new(Probe { mem, reads: Mutex::new(Vec::new()) });
    let hp = helix.proc();
    let fs: Arc<dyn ProcFs> = probe.clone();
    hp.mount_fs(&fs, "", "/n/probe", MREPL).unwrap();
    exportfs_listener(hp, "dk!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    import(&p, "dk!nj/astro/helix!exportfs", "/", "/n/helix", MREPL).expect("import /");

    let (n, data) = imported_udp_conv(&p);
    let local = p.open(&format!("/n/helix/net/udp/{n}/local"), OpenMode::READ).expect("local");
    let local = p.read_string(local).unwrap();
    let port = local.split_whitespace().nth(1).expect("local port");
    let f = p.open("/n/helix/n/probe/f", OpenMode::READ).expect("open f");

    std::thread::scope(|s| {
        let parked = s.spawn(|| p.read(data, 64));
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(!parked.is_finished());
        // Answered one after another while that read waits.
        let reads = s.spawn(|| (0..100).all(|_| p.pread(f, 0, 64).unwrap() == b"data at hand"));
        assert!(finished_within(reads, 20, "reads of a file in memory waited for the parked read"));
        let names: Vec<String> = p.ls("/n/helix/n/probe").unwrap().into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["f"]);
        assert!(!parked.is_finished());
        let mp = musca.proc();
        let conn = dial(&mp, &format!("udp!10.21.0.1!{port}")).expect("udp dial");
        mp.write(conn.data_fd, b"late").unwrap();
        assert_eq!(finished_within(parked, 20, "the parked read never returned").unwrap(), b"late");
    });
    // The conversation's reader is the `exportfs` kproc; its slaves
    // are `9p-worker`s.
    assert_eq!(probe.readers(false), HashSet::from(["exportfs".to_string()]));
    assert_eq!(probe.readers(true), HashSet::from(["9p-worker".to_string()]));
}

/// Which process runs an importer's read of a file in memory is the
/// transport's to say, never a setting. The IL and TCP devices take up
/// `serve_nine` and run it on the thread that delivered the request:
/// on this unpaced Ethernet the importer's own, which holds no lock as
/// it writes the frame. When helix's station shard was busy, whoever
/// was draining it delivered: a pool worker, or a process of another
/// test in this binary writing frames of its own. Never a process of
/// the export's. A Datakit conversation, a pipe, and an IL or TCP
/// conversation whose `data` file is itself imported (gnot has no IP
/// but helix's) are read and served by the parked `exportfs` kproc, as
/// every export conversation once was.
#[test]
fn a_conversation_is_served_where_its_requests_arrive() {
    let (helix, musca, gnot) = world();
    let mem = MemFs::new("probe", "bootes");
    mem.put_file("/f", b"data at hand").unwrap();
    let probe = Arc::new(Probe { mem, reads: Mutex::new(Vec::new()) });
    let fs: Arc<dyn ProcFs> = probe.clone();
    let with_probe = |p: Proc| {
        p.mount_fs(&fs, "", "/n/probe", MREPL).unwrap();
        p
    };
    for addr in ["il!*!exportfs", "tcp!*!exportfs", "dk!*!exportfs"] {
        exportfs_listener(with_probe(helix.proc()), addr, usize::MAX).unwrap();
    }
    // The threads that ran ten reads of `/n/x/f`.
    let readers = |p: &Proc| -> Vec<String> {
        probe.reads.lock().unwrap().clear();
        let f = p.open("/n/x/f", OpenMode::READ).expect("open f");
        assert!((0..10).all(|_| p.pread(f, 0, 64).unwrap() == b"data at hand"));
        probe.readers(false).into_iter().collect()
    };
    let imported = |m: &Arc<Machine>, addr: &str| {
        let p = m.proc();
        import(&p, addr, "/n/probe", "/n/x", MREPL).expect(addr);
        readers(&p)
    };
    let me = std::thread::current().name().unwrap_or("").to_string();
    for addr in ["il!helix!exportfs", "tcp!helix!exportfs"] {
        let readers = imported(&musca, addr);
        assert!(readers.contains(&me), "{addr}: the importer delivered none of its reads: {readers:?}");
        assert!(!readers.iter().any(|r| r == "exportfs" || r == "9p-worker"), "{addr}: {readers:?}");
    }
    assert_eq!(imported(&gnot, "dk!nj/astro/helix!exportfs"), ["exportfs"]);

    // The import command's initial protocol, spoken over a pipe.
    let p = with_probe(helix.proc());
    let (srv_fd, mnt_fd) = p.pipe().unwrap();
    let (srv, srv_fd) = p.fork_with_fd(srv_fd);
    plan9_support::vtime::kproc("exportfs", move || serve_export(&srv, srv_fd, false)).unwrap();
    p.write(mnt_fd, b"/n/probe").unwrap();
    assert_eq!(p.read(mnt_fd, 64).unwrap(), b"OK");
    p.mount_fd(mnt_fd, "", "/n/x", MREPL, false).unwrap();
    assert_eq!(readers(&p), ["exportfs"]);

    // gnot announces on helix's IL and TCP, through its import of
    // helix's /net.
    let gp = with_probe(gnot.proc());
    import(&gp, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import /net");
    for addr in ["il!*!17099", "tcp!*!17099"] {
        exportfs_listener(gp.fork(), addr, usize::MAX).unwrap();
    }
    assert_eq!(imported(&musca, "il!helix!17099"), ["exportfs"]);
    assert_eq!(imported(&musca, "tcp!helix!17099"), ["exportfs"]);
}

/// An importer that goes away with a read parked in an exported `data`
/// file must take everything it held on the gateway with it: the
/// hangup clunks the conversation's fids *before* it waits for the
/// slaves, since the clunk of the `data` file is what wakes the slave
/// parked in it. Every process serving the conversation (the `exportfs`
/// kproc, its `9p-worker`) holds a fork of the gateway's name space,
/// and so a reference on each server mounted in it.
#[test]
fn a_hangup_with_a_read_parked_leaves_nothing_on_the_gateway() {
    let (helix, musca, _gnot) = world();
    let probe: Arc<dyn ProcFs> = MemFs::new("probe", "bootes");
    let hp = helix.proc();
    hp.mount_fs(&probe, "", "/n/probe", MREPL).unwrap();
    exportfs_listener(hp, "il!*!exportfs", usize::MAX).unwrap();
    let held = Arc::strong_count(&probe);
    let udp_convs = || -> Vec<String> {
        let convs = helix.proc().ls("/net/udp").unwrap();
        convs.into_iter().map(|d| d.name).filter(|n| n.parse::<u32>().is_ok()).collect()
    };
    assert_eq!(udp_convs(), [""; 0]);

    let p = musca.proc();
    import(&p, "il!helix!exportfs", "/", "/n/helix", MREPL).expect("import /");
    assert!(Arc::strong_count(&probe) > held);
    let (n, data) = imported_udp_conv(&p);
    assert_eq!(udp_convs(), std::slice::from_ref(&n));

    std::thread::scope(|s| {
        let parked = s.spawn(|| p.read(data, 64));
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(!parked.is_finished());
        assert!(musca.ip.as_ref().unwrap().il_module().hangup_all() > 0);
        assert!(finished_within(parked, 20, "the importer's read outlived its conversation").is_err());
    });
    assert!(settled(|| udp_convs().is_empty()), "/net/udp/{n} is still on the gateway");
    assert!(
        settled(|| Arc::strong_count(&probe) == held),
        "a process serving the dead conversation still holds the gateway's name space"
    );
}
