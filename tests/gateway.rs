//! Integration: §6.1 — exportfs/import gatewaying between networks.

use gateway_world::{finished_within, imported_udp_conv, world};
use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::Machine;
use plan9::core::namespace::{MAFTER, MREPL};
use plan9::exportfs::cpu::{cpu, cpu_listener, CpuJob};
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::ninep::procfs::{MemFs, ProcFs};
use std::sync::Arc;

mod gateway_world;

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
