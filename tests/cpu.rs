//! Integration: the `cpu` service (§6) — a remote process whose name
//! space includes the terminal's, served back over the same wire. Under
//! the virtual clock.

mod oracle;

use oracle::world::ether_hosts;
use plan9::exportfs::cpu::{cpu, cpu_listener};
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;
use plan9_support::vtime;
use std::sync::Arc;

#[test]
fn remote_job_reads_and_writes_the_terminals_namespace() {
    let _vt = vtime::enter();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=server ip=10.51.0.1 proto=il\nsys=term ip=10.51.0.2 proto=il\nil=cpu port=17005\n";
    let [server, term] = ether_hosts(&seg, 51, [("server", 1), ("term", 2)], ndb);
    // The terminal has a window-local file the job will read.
    term.rootfs
        .put_file("/tmp/question", b"what is 6 x 7?")
        .unwrap();

    // The job: read the terminal's question, compute, write the answer
    // back into the terminal's /tmp — all through /mnt/term.
    let job: plan9::exportfs::cpu::CpuJob = Arc::new(|p| {
        let fd = p
            .open("/mnt/term/tmp/question", OpenMode::READ)
            .expect("read question");
        let q = p.read_string(fd).expect("question");
        assert_eq!(q, "what is 6 x 7?");
        let fd = p
            .create("/mnt/term/tmp/answer", 0o644, OpenMode::WRITE)
            .expect("create answer");
        p.write(fd, b"42").expect("write answer");
        p.close(fd);
    });
    let listener = cpu_listener(server.proc(), "il!*!cpu", job, 1).expect("cpu listener");

    // The terminal runs cpu, serving its whole name space.
    let tp = term.proc();
    cpu(&tp, "il!server!cpu", "/").expect("cpu session");
    listener.join().expect("cpu listener");

    // The job's output landed in the terminal's own /tmp.
    let fd = tp.open("/tmp/answer", OpenMode::READ).expect("open answer");
    assert_eq!(tp.read_string(fd).unwrap(), "42");
}
