//! Integration: §6.1 — exportfs/import gatewaying between networks, on
//! three machines: helix on the Ethernet and the Datakit, musca on the
//! Ethernet only, gnot on the Datakit only. Under the virtual clock,
//! where which process serves a request is the program's to say, and
//! the tests of this binary take turns.

use oracle::fs::Probe;
use oracle::world::helix_musca_gnot;
use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::namespace::{MAFTER, MREPL};
use plan9::core::proc::Proc;
use plan9::exportfs::cpu::{cpu, cpu_listener, CpuJob};
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_support::{chan, time, vtime};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

mod oracle;

const NDB: &str = "\
sys=helix ip=10.21.0.1 dk=nj/astro/helix proto=il proto=tcp
sys=musca ip=10.21.0.9 proto=tcp
sys=gnot dk=nj/astro/gnot
tcp=cpu port=17013
";

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

/// Runs `f` in a kernel process of its own and hands back the channel
/// its result comes on.
fn spawned<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> chan::Receiver<T> {
    let (tx, rx) = chan::bounded(1);
    vtime::kproc(name, move || drop(tx.send(f()))).expect("spawn");
    rx
}

/// Returns once every other process has parked: the clock moves a
/// nanosecond on only when nothing is left to run.
fn idle() {
    time::sleep(Duration::from_nanos(1));
}

/// What `rx` brings within 20 s of virtual time. A wait that never ends
/// still reaches this deadline, so it fails with `what` instead of
/// hanging.
fn within<T>(rx: &chan::Receiver<T>, what: &str) -> T {
    rx.recv_timeout(Duration::from_secs(20)).unwrap_or_else(|_| panic!("{what}"))
}

#[test]
fn union_shows_local_before_remote_and_adds_unique() {
    let _vt = vtime::enter();
    let (helix, _musca, gnot) = helix_musca_gnot(NDB);
    exportfs_listener(helix.proc(), "dk!*!exportfs", 1).unwrap();
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
    let _vt = vtime::enter();
    let (helix, musca, gnot) = helix_musca_gnot(NDB);
    // A daytime server on the ether-only host.
    let mp = musca.proc();
    let (_afd, adir) = announce(&mp, "tcp!*!daytime").expect("announce");
    let daytime = move || {
        let (lcfd, ldir) = listen(&mp, &adir).expect("listen");
        let dfd = accept(&mp, lcfd, &ldir).expect("accept");
        let _ = mp.write(dfd, b"16 Jul 1992 17:28");
        mp.close(dfd);
        mp.close(lcfd);
    };
    vtime::kproc("daytime", daytime).expect("spawn daytime");
    exportfs_listener(helix.proc(), "dk!*!exportfs", 1).unwrap();
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
    let _vt = vtime::enter();
    let (helix, _musca, gnot) = helix_musca_gnot(NDB);
    exportfs_listener(helix.proc(), "dk!*!exportfs", 1).unwrap();
    let p = gnot.proc();
    import(&p, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import");
    // Reading helix's ether stats across the gateway.
    let fd = p.open("/net/ether0/clone", OpenMode::RDWR).expect("open remote clone");
    // §2.3 order: read the connection number, then write the ctl.
    let n = String::from_utf8(p.read(fd, 16).unwrap()).unwrap();
    p.write_str(fd, "connect 2048").expect("connect");
    let sfd = p.open(&format!("/net/ether0/{n}/stats"), OpenMode::READ).expect("open stats");
    let stats = p.read_string(sfd).expect("read stats");
    assert!(stats.contains("addr:"), "{stats}");
}

#[test]
fn import_subtree_other_than_net() {
    let _vt = vtime::enter();
    let (helix, _musca, gnot) = helix_musca_gnot(NDB);
    // Put something notable in helix's /lib.
    helix.rootfs.put_file("/lib/ndb/global", b"# the AT&T-wide file\n").unwrap();
    exportfs_listener(helix.proc(), "dk!*!exportfs", 1).unwrap();
    let p = gnot.proc();
    import(&p, "dk!nj/astro/helix!exportfs", "/lib/ndb", "/n/helixndb", MREPL).expect("import /lib/ndb");
    let fd = p.open("/n/helixndb/global", OpenMode::READ).expect("open");
    assert_eq!(p.read_string(fd).unwrap(), "# the AT&T-wide file\n");
}

#[test]
fn import_missing_tree_reports_error() {
    let _vt = vtime::enter();
    let (helix, _musca, gnot) = helix_musca_gnot(NDB);
    exportfs_listener(helix.proc(), "dk!*!exportfs", 1).unwrap();
    let p = gnot.proc();
    let err = import(&p, "dk!nj/astro/helix!exportfs", "/no/such/tree", "/n/x", MREPL).unwrap_err();
    assert!(err.0.contains("NO"), "{err}");
}

/// A TCP call `exportfs_listener` served must leave no conversation
/// behind on either machine once the importer unmounts: the listener
/// closes the call's ctl file, so nothing pins the serving end in
/// Close_wait.
#[test]
fn tcp_import_leaves_no_conversation_after_unmount() {
    let _vt = vtime::enter();
    let (helix, musca, _gnot) = helix_musca_gnot(NDB);
    exportfs_listener(helix.proc(), "tcp!*!exportfs", 1).unwrap();
    let p = musca.proc();
    import(&p, "tcp!helix!exportfs", "/lib/ndb", "/n/helixndb", MREPL).expect("import over tcp");
    assert!(!p.ls("/n/helixndb").unwrap().is_empty());
    let during = [&helix, &musca].map(|m| m.ip.as_ref().unwrap().tcp_module().conn_count());
    assert!(during.iter().all(|&n| n > 0), "{during:?}");
    p.ns.unmount("/n/helixndb").expect("unmount");
    // `import` leaves the data file open in the importing process; the
    // conversation ends with it.
    drop(p);
    assert_eq!([&helix, &musca].map(|m| m.ip.as_ref().unwrap().settle()), [0, 0]);
}

/// The same of a call `cpu_listener` served, once the job has run and
/// the terminal's `cpu` has returned.
#[test]
fn tcp_cpu_session_leaves_no_conversation() {
    let _vt = vtime::enter();
    let (helix, musca, _gnot) = helix_musca_gnot(NDB);
    let job: CpuJob = Arc::new(|p| {
        assert!(!p.ls("/mnt/term/lib/ndb").unwrap().is_empty());
    });
    cpu_listener(helix.proc(), "tcp!*!cpu", job, 1).unwrap();
    let p = musca.proc();
    cpu(&p, "tcp!helix!cpu", "/").expect("cpu session");
    drop(p);
    assert_eq!([&helix, &musca].map(|m| m.ip.as_ref().unwrap().settle()), [0, 0]);
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
    let _vt = vtime::enter();
    let (helix, musca, _gnot) = helix_musca_gnot(NDB);
    let probe: Arc<dyn ProcFs> = MemFs::new("probe", "bootes");
    let hp = helix.proc();
    hp.mount_fs(&probe, "", "/n/probe", MREPL).unwrap();
    let service = exportfs_listener(hp, "il!*!exportfs", usize::MAX).unwrap();
    let held = Arc::strong_count(&probe);
    let udp_convs = || -> Vec<String> {
        let convs = helix.proc().ls("/net/udp").unwrap();
        convs.into_iter().map(|d| d.name).filter(|n| n.parse::<u32>().is_ok()).collect()
    };
    assert_eq!(udp_convs(), [""; 0]);

    let p = Arc::new(musca.proc());
    import(&p, "il!helix!exportfs", "/", "/n/helix", MREPL).expect("import /");
    assert!(Arc::strong_count(&probe) > held);
    let (n, data) = imported_udp_conv(&p);
    assert_eq!(udp_convs(), std::slice::from_ref(&n));

    let reader = Arc::clone(&p);
    let parked = spawned("parked", move || reader.read(data, 64));
    idle();
    assert!(parked.is_empty());
    assert!(musca.ip.as_ref().unwrap().il_module().hangup_all() > 0);
    assert!(within(&parked, "the importer's read outlived its conversation").is_err());
    idle();
    assert!(udp_convs().is_empty(), "/net/udp/{n} is still on the gateway");
    assert_eq!(
        Arc::strong_count(&probe),
        held,
        "a process serving the dead conversation still holds the gateway's name space"
    );
    service.hangup();
}

/// §6.1 gives exportfs slave processes because a read may block. Over
/// one export conversation: a read parked in a `data` file of the
/// exported `/net` holds a slave and delays nobody; a file in memory
/// is read where its request arrives, by whichever thread delivers the
/// cell (the importer or a pool worker); a directory, whose union read
/// crosses mounts, still gets a slave.
#[test]
fn exportfs_keeps_its_slaves_for_the_files_that_may_block() {
    let _vt = vtime::enter();
    let (helix, musca, gnot) = helix_musca_gnot(NDB);
    let probe = Probe::new();
    let hp = helix.proc();
    let fs: Arc<dyn ProcFs> = probe.clone();
    hp.mount_fs(&fs, "", "/n/probe", MREPL).unwrap();
    exportfs_listener(hp, "dk!*!exportfs", 1).unwrap();
    let p = Arc::new(gnot.proc());
    import(&p, "dk!nj/astro/helix!exportfs", "/", "/n/helix", MREPL).expect("import /");

    let (n, data) = imported_udp_conv(&p);
    let local = p.open(&format!("/n/helix/net/udp/{n}/local"), OpenMode::READ).expect("local");
    let local = p.read_string(local).unwrap();
    let port = local.split_whitespace().nth(1).expect("local port");
    let f = p.open("/n/helix/n/probe/f", OpenMode::READ).expect("open f");

    let reader = Arc::clone(&p);
    let parked = spawned("parked", move || reader.read(data, 64));
    idle();
    assert!(parked.is_empty());
    // Answered one after another while that read waits.
    let reader = Arc::clone(&p);
    let reads = spawned("reads", move || (0..100).all(|_| reader.pread(f, 0, 64).unwrap() == b"data at hand"));
    assert!(within(&reads, "reads of a file in memory waited for the parked read"));
    assert!(parked.is_empty());
    let names: Vec<String> = p.ls("/n/helix/n/probe").unwrap().into_iter().map(|d| d.name).collect();
    assert_eq!(names, ["f"]);
    assert!(parked.is_empty());
    let mp = musca.proc();
    let conn = dial(&mp, &format!("udp!10.21.0.1!{port}")).expect("udp dial");
    mp.write(conn.data_fd, b"late").unwrap();
    assert_eq!(within(&parked, "the parked read never returned").unwrap(), b"late");
    // Nobody reads the conversation, so neither the `exportfs` kproc
    // nor one of its slaves, which are `9p-worker`s, reads the file.
    let readers = probe.readers(false);
    assert!(!readers.is_empty() && !readers.contains("exportfs") && !readers.contains("9p-worker"), "{readers:?}");
    assert_eq!(probe.readers(true), HashSet::from(["9p-worker".to_string()]));
}
