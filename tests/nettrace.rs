//! nettrace end-to-end properties: causal attribution survives a lossy,
//! duplicating wire.
//!
//! The tracer is process-global, so these tests serialize on a lock and
//! reset it between runs.

use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::namespace::MREPL;
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::inet::nine::IlIo;
use plan9::inet::ip::{IpConfig, IpStack};
use plan9::netlog::trace::{self, RootSpan, Tracer};
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::client::NineClient;
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn reset(tracer: &Arc<Tracer>) {
    tracer.ctl("trace off").unwrap();
    tracer.ctl("clear").unwrap();
    tracer.ctl("filter").unwrap();
}

fn lossy_stacks(salt: u8) -> (Arc<IpStack>, Arc<IpStack>) {
    let seg = EtherSegment::new(Profiles::ether_fast().with_loss(0.06).with_dup(0.03));
    let a = IpStack::new_pooled(
        seg.attach([8, 0, 0, 0xd, salt, 1]),
        IpConfig::local(&format!("10.{}.0.1", 200u16.saturating_add(salt as u16).min(254))),
    );
    let b = IpStack::new_pooled(
        seg.attach([8, 0, 0, 0xd, salt, 2]),
        IpConfig::local(&format!("10.{}.0.2", 200u16.saturating_add(salt as u16).min(254))),
    );
    (a, b)
}

fn count_rexmit_log_lines(stack: &Arc<IpStack>) -> usize {
    stack
        .netlog()
        .events
        .render()
        .lines()
        .filter(|l| l.contains("rexmit id"))
        .count()
}

fn count_rexmit_span_events(roots: &[RootSpan]) -> usize {
    roots
        .iter()
        .flat_map(|r| r.events.iter())
        .filter(|e| e.msg.starts_with("rexmit id"))
        .count()
}

/// Every `rexmit id ...` line the netlog records must reappear as a span
/// event on exactly one root span — attribution loses nothing and
/// duplicates nothing, even while the wire loses and duplicates frames.
#[test]
fn rexmit_events_attach_to_exactly_one_root() {
    let _g = lock();
    let tracer = trace::global();
    reset(tracer);

    let (a, b) = lossy_stacks(1);
    let listener = b.il_module().listen(&b, 17011).unwrap();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/blob", &[0x7au8; 700]).unwrap();
        let fs: Arc<dyn ProcFs> = fs;
        let io = IlIo(conn);
        let _ = plan9::ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
    });
    let conn = a.il_module().connect(&a, b.addr(), 17011).unwrap();
    // Count only traffic sent while both recorders watch: the handshake
    // is acked by the time connect returns.
    a.netlog().events.ctl("set il").unwrap();
    b.netlog().events.ctl("set il").unwrap();
    tracer.ctl("trace on").unwrap();

    let io = IlIo(Arc::clone(&conn));
    let client = NineClient::new(Box::new(io.clone()), Box::new(io));
    let (fid, _) = client.attach("test", "").unwrap();
    client.walk(fid, "blob").unwrap();
    client.open(fid, OpenMode::READ).unwrap();
    for _ in 0..150 {
        assert_eq!(client.read(fid, 0, 700).unwrap().len(), 700);
    }
    let _ = client.clunk(fid);
    // Stop both endpoints, then let in-flight recovery drain before
    // snapshotting either record.
    conn.close();
    let _ = server.join();
    std::thread::sleep(Duration::from_millis(300));

    let logged = count_rexmit_log_lines(&a) + count_rexmit_log_lines(&b);
    let roots = tracer.roots();
    let attached = count_rexmit_span_events(&roots);
    assert!(
        logged >= 1,
        "6% loss over 150 RPCs produced no retransmissions"
    );
    assert_eq!(
        attached, logged,
        "every netlog rexmit must appear as a span event on exactly one root"
    );
    reset(tracer);
}

fn boot_pair() -> (Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(Profiles::ether_fast().with_loss(0.05).with_dup(0.03));
    let ndb = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 proto=il proto=tcp
sys=gnot ip=135.104.9.40 proto=il proto=tcp
";
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .ndb(ndb)
        .build()
        .unwrap();
    let gnot = MachineBuilder::new("gnot")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0x40], IpConfig::local("135.104.9.40"))
        .ndb(ndb)
        .build()
        .unwrap();
    (helix, gnot)
}

/// Queue-residency spans land on the RPC that enqueued the block, and
/// nest inside that RPC's root interval — while a lossy, duplicating IL
/// import churns the same recorder.
#[test]
fn queue_spans_nest_inside_rpc_roots() {
    let _g = lock();
    let tracer = trace::global();
    reset(tracer);

    let (helix, gnot) = boot_pair();
    helix.rootfs.put_file("/lib/blob", &[0x33u8; 900]).unwrap();
    exportfs_listener(helix.proc(), "il!*!exportfs", usize::MAX).unwrap();

    let p = gnot.proc();
    tracer.ctl("trace on").unwrap();

    // The lossy side: RPCs over IL.
    import(&p, "il!helix!exportfs", "/lib", "/n/helix", MREPL).unwrap();
    for _ in 0..20 {
        let fd = p.open("/n/helix/blob", OpenMode::READ).unwrap();
        assert_eq!(p.read(fd, 4096).unwrap().len(), 900);
        p.close(fd);
    }

    // The queued side: the same tree served over a local pipe, where 9P
    // messages ride the stream queues.
    let (mfd, sfd) = p.pipe().unwrap();
    let io = p.io(sfd).unwrap();
    let sink = io.clone();
    let fs: Arc<dyn ProcFs> = gnot.rootfs.clone();
    std::thread::spawn(move || {
        let _ = plan9::ninep::server::serve(fs, Box::new(io), Box::new(sink));
    });
    p.mount_fd(mfd, "", "/n/self", MREPL, false).unwrap();
    for _ in 0..20 {
        let fd = p.open("/n/self/lib/ndb/local", OpenMode::READ).unwrap();
        assert!(!p.read(fd, 4096).unwrap().is_empty());
        p.close(fd);
    }
    std::thread::sleep(Duration::from_millis(200));

    let roots = tracer.roots();
    let mut queue_spans = 0usize;
    for r in roots.iter().filter(|r| !r.label.starts_with("serve")) {
        for s in r.spans.iter().filter(|s| s.name == "queue") {
            queue_spans += 1;
            assert!(
                s.start_ns >= r.start_ns && s.end_ns <= r.end_ns,
                "queue span [{}, {}] escapes root {} [{}, {}]",
                s.start_ns,
                s.end_ns,
                r.label,
                r.start_ns,
                r.end_ns
            );
        }
    }
    assert!(
        queue_spans >= 20,
        "expected queue residency on the pipe-mounted RPCs, saw {queue_spans}"
    );
    reset(tracer);
}

/// With tracing off (the default), a full RPC workload adds nothing to
/// the span ring: the recorder is pay-for-use.
#[test]
fn tracing_off_leaves_ring_untouched() {
    let _g = lock();
    let tracer = trace::global();
    reset(tracer);
    let before = (tracer.len(), tracer.active_len());

    let (a, b) = lossy_stacks(40);
    let listener = b.il_module().listen(&b, 17012).unwrap();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/blob", &[0x11u8; 256]).unwrap();
        let fs: Arc<dyn ProcFs> = fs;
        let io = IlIo(conn);
        let _ = plan9::ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
    });
    let conn = a.il_module().connect(&a, b.addr(), 17012).unwrap();
    let io = IlIo(Arc::clone(&conn));
    let client = NineClient::new(Box::new(io.clone()), Box::new(io));
    let (fid, _) = client.attach("test", "").unwrap();
    client.walk(fid, "blob").unwrap();
    client.open(fid, OpenMode::READ).unwrap();
    for _ in 0..20 {
        assert_eq!(client.read(fid, 0, 256).unwrap().len(), 256);
    }
    let _ = client.clunk(fid);
    conn.close();
    let _ = server.join();

    assert_eq!(
        (tracer.len(), tracer.active_len()),
        before,
        "tracing off must record nothing"
    );
}
