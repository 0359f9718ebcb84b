//! nettrace end-to-end properties: causal attribution survives a lossy,
//! duplicating wire. An event is one entry of a machine's `/net/log`
//! ring, naming the root it happened for; a root is in the tracer's.
//!
//! The tracer is process-global: each test resets it, and runs under a
//! virtual clock of its own, which `vtime::enter` gives one test at a
//! time.

use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::namespace::MREPL;
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::inet::nine::IlIo;
use plan9::inet::ip::{IpConfig, IpStack};
use plan9::netlog::trace::{self, Tracer};
use plan9::netlog::Event;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::client::NineClient;
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_support::vtime;
use std::collections::HashSet;
use std::sync::Arc;

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

/// The entries of `stack`'s ring whose text contains `what`.
fn entries(stack: &IpStack, what: &str) -> Vec<Event> {
    let events = stack.netlog().events.events();
    events.into_iter().filter(|e| e.msg.contains(what)).collect()
}

/// Asserts that every entry names a root the tracer's ring holds.
fn all_name_a_root(tracer: &Tracer, entries: &[Event]) {
    let roots: HashSet<u64> = tracer.roots().iter().map(|r| r.id).collect();
    for e in entries {
        assert!(
            e.trace.is_some_and(|id| roots.contains(&id)),
            "`{}` names trace {:?}, which is not a root in the ring",
            e.msg,
            e.trace
        );
    }
}

/// Every `rexmit id ...` entry the two rings record names a root in
/// the tracer's ring: attribution loses nothing, even while the wire
/// loses and duplicates frames.
#[test]
fn rexmit_events_attach_to_exactly_one_root() {
    let _vt = vtime::enter();
    let tracer = trace::global();
    reset(tracer);

    let (a, b) = lossy_stacks(1);
    let listener = b.il_module().listen(&b, 17011).unwrap();
    let server = vtime::kproc("server", move || {
        let conn = listener.accept().unwrap();
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/blob", &[0x7au8; 700]).unwrap();
        let fs: Arc<dyn ProcFs> = fs;
        let io = IlIo(conn);
        let _ = plan9::ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
    })
    .unwrap();
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
    // Stop both endpoints; once their conversations are gone no
    // recovery can follow, so the record is final.
    conn.close();
    let _ = server.join();
    assert_eq!([a.settle(), b.settle()], [0, 0]);

    let rexmits = [&a, &b].map(|s| entries(s, "rexmit id")).concat();
    assert!(!rexmits.is_empty(), "6% loss over 150 RPCs produced no retransmissions");
    all_name_a_root(tracer, &rexmits);
    reset(tracer);
}

fn boot_pair(seed: u64) -> (Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(
        Profiles::ether_fast().with_loss(0.05).with_dup(0.03).with_seed(seed),
    );
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
    let _vt = vtime::enter();
    let tracer = trace::global();
    reset(tracer);

    let (helix, gnot) = boot_pair(1);
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
    let server = vtime::kproc("server", move || {
        let _ = plan9::ninep::server::serve(fs, Box::new(io), Box::new(sink));
    })
    .unwrap();
    p.mount_fd(mfd, "", "/n/self", MREPL, false).unwrap();
    for _ in 0..20 {
        let fd = p.open("/n/self/lib/ndb/local", OpenMode::READ).unwrap();
        assert!(!p.read(fd, 4096).unwrap().is_empty());
        p.close(fd);
    }
    // Every root and span is closed once the server has seen the
    // hangup and returned.
    p.ns.unmount("/n/self").unwrap();
    p.close(sfd);
    server.join().unwrap();

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

/// TCP's retransmissions, by timeout or by three duplicate acks, name
/// the root of the RPC whose bytes they repair: its last traced writer.
/// A TCP import reads 8 KiB files over the lossy pair with `set tcp` on
/// both machines; the wire's seed makes at least one fast retransmit.
#[test]
fn tcp_rexmits_name_their_writers_root() {
    let _vt = vtime::enter();
    let tracer = trace::global();
    reset(tracer);

    let (helix, gnot) = boot_pair(7);
    helix.rootfs.put_file("/lib/blob", &[0x5au8; 8192]).unwrap();
    exportfs_listener(helix.proc(), "tcp!*!exportfs", usize::MAX).unwrap();
    let p = gnot.proc();
    tracer.ctl("trace on").unwrap();
    import(&p, "tcp!helix!exportfs", "/lib", "/n/helix", MREPL).unwrap();
    // Every writer on the conversation has been traced by now: the
    // facility goes on once both ends have a root to name.
    for m in [&helix, &gnot] {
        m.netlog.events.ctl("set tcp").unwrap();
    }
    for _ in 0..60 {
        let fd = p.open("/n/helix/blob", OpenMode::READ).unwrap();
        assert_eq!(p.read(fd, 8192).unwrap().len(), 8192);
        p.close(fd);
    }
    p.ns.unmount("/n/helix").unwrap();
    drop(p);
    let stacks = [&helix, &gnot].map(|m| Arc::clone(m.ip.as_ref().unwrap()));
    assert_eq!(stacks.each_ref().map(|s| s.settle()), [0, 0]);

    let rexmits = stacks.each_ref().map(|s| entries(s, "rexmit")).concat();
    assert!(
        rexmits.iter().any(|e| e.msg.starts_with("fast rexmit")),
        "no fast retransmit over 60 lossy 8 KiB reads: {rexmits:?}"
    );
    all_name_a_root(tracer, &rexmits);
    reset(tracer);
}

/// With tracing off (the default), a full RPC workload adds nothing to
/// the span ring: the recorder is pay-for-use.
#[test]
fn tracing_off_leaves_ring_untouched() {
    let _vt = vtime::enter();
    let tracer = trace::global();
    reset(tracer);
    let before = (tracer.len(), tracer.active_len());

    let (a, b) = lossy_stacks(40);
    let listener = b.il_module().listen(&b, 17012).unwrap();
    let server = vtime::kproc("server", move || {
        let conn = listener.accept().unwrap();
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/blob", &[0x11u8; 256]).unwrap();
        let fs: Arc<dyn ProcFs> = fs;
        let io = IlIo(conn);
        let _ = plan9::ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
    })
    .unwrap();
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
