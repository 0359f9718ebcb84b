//! Integration: the `cpu` service (§6) — a remote process whose name
//! space includes the terminal's, served back over the same wire.

use plan9::core::machine::MachineBuilder;
use plan9::exportfs::cpu::{cpu, cpu_listener};
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;
use std::sync::Arc;

#[test]
fn remote_job_reads_and_writes_the_terminals_namespace() {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=server ip=10.51.0.1 proto=il\nsys=term ip=10.51.0.2 proto=il\nil=cpu port=17005\n";
    let server = MachineBuilder::new("server")
        .ether(&seg, [8, 0, 0, 51, 0, 1], IpConfig::local("10.51.0.1"))
        .ndb(ndb)
        .build()
        .unwrap();
    let term = MachineBuilder::new("term")
        .ether(&seg, [8, 0, 0, 51, 0, 2], IpConfig::local("10.51.0.2"))
        .ndb(ndb)
        .build()
        .unwrap();
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
    cpu_listener(server.proc(), "il!*!cpu", job, 1).expect("cpu listener");

    // The terminal runs cpu, serving its whole name space.
    let tp = term.proc();
    cpu(&tp, "il!server!cpu", "/").expect("cpu session");

    // The job's output landed in the terminal's own /tmp.
    let fd = tp.open("/tmp/answer", OpenMode::READ).expect("open answer");
    assert_eq!(tp.read_string(fd).unwrap(), "42");
}
