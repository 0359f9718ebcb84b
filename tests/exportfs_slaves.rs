//! Integration: §6.1 — exportfs keeps its slave processes for the
//! files whose reads may block. Alone in its binary: on the real clock
//! any thread may drain the pool shard that holds this export's job,
//! and an `exportfs` kproc of another test's export, reading an
//! imported `/net`, would be one this test's assertion forbids.

use gateway_world::{finished_within, imported_udp_conv, world};
use plan9::core::dial::dial;
use plan9::core::namespace::MREPL;
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::ninep::procfs::{OpenMode, ProcFs};
use probe::Probe;
use std::collections::HashSet;
use std::sync::Arc;

mod gateway_world;
mod probe;

/// §6.1 gives exportfs slave processes because a read may block. Over
/// one export conversation: a read parked in a `data` file of the
/// exported `/net` holds a slave and delays nobody; a file in memory
/// is read where its request arrives, by whichever thread delivers the
/// cell (on the real clock the importer or a pool worker); a directory,
/// whose union read crosses mounts, still gets a slave.
#[test]
fn exportfs_keeps_its_slaves_for_the_files_that_may_block() {
    let (helix, musca, gnot) = world();
    let probe = Probe::new();
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
    // Nobody reads the conversation, so neither the `exportfs` kproc
    // nor one of its slaves, which are `9p-worker`s, reads the file.
    let readers = probe.readers(false);
    assert!(!readers.is_empty() && !readers.contains("exportfs") && !readers.contains("9p-worker"), "{readers:?}");
    assert_eq!(probe.readers(true), HashSet::from(["9p-worker".to_string()]));
}
