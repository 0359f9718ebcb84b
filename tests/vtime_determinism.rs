//! Replayability on the virtual clock: two runs of the same lossy
//! 9P-over-IL scenario, from the same impairment seed, must be
//! byte-identical — same IL stats, same nettrace span layout, same
//! `/net/log` entries with the roots they name, down to the
//! nanosecond. This is the property that makes a failure seed a bug
//! report: whatever happened, it happens again.

use plan9_inet::nine::IlIo;
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_netlog::{trace, Event};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::Profiles;
use plan9_ninep::client::NineClient;
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_support::vtime;
use std::fmt::Write as _;
use std::sync::Arc;

const RPCS: usize = 200;
const LOSS: f64 = 0.10;

/// The scenario body: a 9P read loop over a 10%-loss Ethernet, with
/// `set il` on both stacks. Runs entirely in registered kernel
/// processes so the quiescence census sees every actor. Returns the IL
/// stats render and the two stacks' event rings.
fn scenario(seed: u64) -> (String, [Vec<Event>; 2]) {
    let seg = EtherSegment::new(Profiles::ether_fast().with_loss(LOSS).with_seed(seed));
    let a = IpStack::new_pooled(seg.attach([8, 0, 0, 0xd, 0, 1]), IpConfig::local("10.50.0.1"));
    let b = IpStack::new_pooled(seg.attach([8, 0, 0, 0xd, 0, 2]), IpConfig::local("10.50.0.2"));
    for stack in [&a, &b] {
        stack.netlog().events.ctl("set il").expect("set il");
    }
    let listener = b.il_module().listen(&b, 17012).expect("listen");
    let server = vtime::kproc("det-server", move || {
        let conn = listener.accept().expect("accept");
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/blob", &[0x42u8; 512]).expect("seed blob");
        let fs: Arc<dyn ProcFs> = fs;
        let io = IlIo(conn);
        let _ = plan9_ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
    })
    .expect("spawn server");
    let conn = a.il_module().connect(&a, b.addr(), 17012).expect("connect");
    let io = IlIo(Arc::clone(&conn));
    let client = NineClient::new(Box::new(io.clone()), Box::new(io));
    let (fid, _) = client.attach("det", "").expect("attach");
    client.walk(fid, "blob").expect("walk");
    client.open(fid, OpenMode::READ).expect("open");
    for _ in 0..RPCS {
        let d = client.read(fid, 0, 512).expect("read");
        assert_eq!(d.len(), 512);
    }
    let _ = client.clunk(fid);
    conn.close();
    let _ = server.join();

    let mut out = String::new();
    for (side, stack) in [("a", &a), ("b", &b)] {
        let s = &stack.il_module().stats;
        writeln!(
            out,
            "il {side}: tx={} rx={} queries={} acks={} rexmit_msgs={} \
             rexmit_bytes={} rtt_samples={} rtt_sum_us={}",
            s.tx_msgs.get(),
            s.rx_msgs.get(),
            s.queries.get(),
            s.acks.get(),
            s.retransmit_msgs.get(),
            s.retransmit_bytes.get(),
            s.rtt.count(),
            s.rtt.sum_us(),
        )
        .expect("write stats");
    }
    (out, [&a, &b].map(|s| s.netlog().events.events()))
}

/// One full run under a fresh virtual clock: stats render plus the
/// normalized trace span layout and event rings. Normalized means
/// relative to the run's earliest root — times to its start, trace ids
/// to its id — so only virtual-time deltas remain: the real instant
/// the clock was installed at, and the roots earlier tests opened,
/// cancel out.
fn one_run(seed: u64) -> String {
    let guard = vtime::enter();
    let tracer = trace::global();
    tracer.ctl("clear").expect("clear");
    tracer.ctl("trace on").expect("trace on");
    let h = vtime::kproc("det-scenario", move || scenario(seed)).expect("spawn scenario");
    let (mut out, rings) = h.join().expect("scenario");
    tracer.ctl("trace off").expect("trace off");
    let roots = tracer.roots();
    tracer.ctl("clear").expect("clear");
    drop(guard);

    let base = roots.iter().map(|r| r.start_ns).min().unwrap_or(0);
    let first = roots.iter().map(|r| r.id).min().unwrap_or(0);
    for (side, ring) in ["a", "b"].iter().zip(&rings) {
        for e in ring {
            let root = e.trace.map(|id| id.wrapping_sub(first) as i64);
            let at = tracer.ns(e.at).wrapping_sub(base) as i64;
            writeln!(out, "{side} {}: {} root {root:?} @{at}", e.facility.name(), e.msg)
                .expect("write event");
        }
    }
    writeln!(out, "roots={}", roots.len()).expect("write roots");
    for r in &roots {
        writeln!(
            out,
            "root {} [{}..{}]",
            r.label,
            r.start_ns.saturating_sub(base),
            r.end_ns.saturating_sub(base),
        )
        .expect("write root");
        for s in &r.spans {
            writeln!(
                out,
                "  span {} +{} {}ns",
                s.name,
                s.start_ns.saturating_sub(r.start_ns),
                s.end_ns.saturating_sub(s.start_ns),
            )
            .expect("write span");
        }
    }
    out
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let first = one_run(0x5eed);
    let second = one_run(0x5eed);
    assert!(
        first.contains("queries="),
        "stats render missing: {first:?}"
    );
    // A 10% loss sweep must actually have exercised recovery, or the
    // determinism claim is vacuous.
    assert!(
        !first.contains("queries=0"),
        "no queries at 10% loss — scenario too easy:\n{first}"
    );
    if first != second {
        // Show the first divergent line, not a 40 KiB dump.
        for (l, r) in first.lines().zip(second.lines()) {
            assert_eq!(l, r, "first divergence between same-seed runs");
        }
        panic!(
            "runs differ in length: {} vs {} bytes",
            first.len(),
            second.len()
        );
    }
}
