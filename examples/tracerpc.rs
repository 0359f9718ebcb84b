//! tracerpc: follow one 9P RPC through every layer of the network.
//!
//! Two machines share a lossy Ethernet; helix exports its root over IL
//! and gnot imports it, so every file operation on gnot becomes a 9P
//! RPC carried by the full stack. Tracing is switched on the Plan 9
//! way — `echo trace on > /net/trace/ctl` — and the flight recorder
//! then captures, for each RPC, the marshal/transmit/reply partition
//! in the mount driver, the protocol device write, the IL send, the IP
//! and wire transmissions, and (on the pipe-mounted second phase) the
//! stream queue residency. IL's retransmissions and queries are
//! netlog events, kept by `echo set il > /net/log/ctl` on each machine;
//! each names its RPC's root, and `/net/trace/data` lists it there.
//!
//! The example prints a per-layer latency breakdown (p50/p99) and the
//! trace of a retransmitted RPC as `/net/trace/data` serves it, whose
//! inflated tail is the whole point of causal tracing: the retransmit
//! explains the outlier.
//!
//! Run with `cargo run --example tracerpc`; with `-- off` it runs the
//! same workload with tracing off and asserts the span ring stays
//! empty (the recorder must cost nothing when disabled).

use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::namespace::MREPL;
use plan9::core::proc::Proc;
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::inet::ip::IpConfig;
use plan9::netlog::trace::{self, RootSpan};
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::{OpenMode, ProcFs};
use std::collections::HashMap;
use std::sync::Arc;

/// The layers a span name maps to, in stack order.
const LAYERS: &[&str] = &[
    "marshal", "txwait", "devwrite", "il send", "ip tx", "wire tx", "queue", "reply", "handle",
];

fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS.iter().copied().find(|l| name.starts_with(l))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Fraction of the root interval covered by the union of its child
/// spans, clipped to the root.
fn coverage(root: &RootSpan) -> f64 {
    let mut iv: Vec<(u64, u64)> = root
        .spans
        .iter()
        .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (a, b) in iv {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered as f64 / root.dur_ns().max(1) as f64
}

fn is_client(root: &RootSpan) -> bool {
    !root.label.starts_with("serve")
}

/// `/net/trace/data` as `p`'s machine serves it, cut into one block
/// per root (its `trace` line, its spans, and this machine's events
/// that name it), by root id.
fn trace_data(p: &Proc) -> HashMap<u64, String> {
    let fd = p.open("/net/trace/data", OpenMode::READ).expect("open trace data");
    let text = p.read_string(fd).expect("read trace data");
    p.close(fd);
    let mut blocks: HashMap<u64, String> = HashMap::new();
    let mut id = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("trace ") {
            id = rest.split(' ').next().and_then(|w| w.parse().ok());
        }
        if let Some(id) = id {
            let block = blocks.entry(id).or_default();
            block.push_str(line);
            block.push('\n');
        }
    }
    blocks
}

fn set_il(m: &Machine) {
    println!("{}% echo set il > /net/log/ctl", m.name);
    let p = m.proc();
    let ctl = p.open("/net/log/ctl", OpenMode::RDWR).expect("open log ctl");
    p.write_str(ctl, "set il").expect("set il");
    p.close(ctl);
}

fn boot() -> (Arc<Machine>, Arc<Machine>) {
    // 5% loss: enough for IL's query/retransmit machinery to show up
    // in a few hundred RPCs.
    let profile = Profiles::ether_fast().with_loss(0.05);
    let seg = EtherSegment::new(profile);
    let ndb = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 proto=il proto=tcp
sys=gnot ip=135.104.9.40 proto=il proto=tcp
";
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .ndb(ndb)
        .build()
        .expect("boot helix");
    let gnot = MachineBuilder::new("gnot")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0x40], IpConfig::local("135.104.9.40"))
        .ndb(ndb)
        .build()
        .expect("boot gnot");
    (helix, gnot)
}

/// The RPC workload: read a remote file over and over. Every iteration
/// is a walk/open/read/clunk sequence, each a traced 9P RPC.
fn workload(p: &Proc, path: &str, iters: usize) {
    for _ in 0..iters {
        let fd = p.open(path, OpenMode::READ).expect("open remote file");
        let data = p.read(fd, 4096).expect("read remote file");
        assert!(!data.is_empty(), "remote file came back empty");
        p.close(fd);
    }
}

fn main() {
    let off_mode = std::env::args().nth(1).map(|a| a == "off").unwrap_or(false);
    let (helix, gnot) = boot();
    helix
        .rootfs
        .put_file("/lib/blob", &vec![0x42u8; 1024])
        .expect("seed file");
    exportfs_listener(helix.proc(), "il!*!exportfs", usize::MAX).expect("exportfs listener");

    let p = gnot.proc();
    let tracer = trace::global();

    if off_mode {
        // Tracing is off by default; the workload must leave the span
        // ring untouched.
        let before = (tracer.len(), tracer.active_len());
        import(&p, "il!helix!exportfs", "/lib", "/n/helix", MREPL).expect("import");
        workload(&p, "/n/helix/blob", 20);
        let after = (tracer.len(), tracer.active_len());
        assert_eq!(before, after, "tracing off must add zero blocks to the span ring");
        println!("tracerpc off: ring unchanged at {}/{} roots: OK", after.0, after.1);
        return;
    }

    // Phase 1: RPCs over lossy IL, with IL's events kept on both ends.
    set_il(&gnot);
    set_il(&helix);
    println!("gnot% echo trace on > /net/trace/ctl");
    let ctl = p.open("/net/trace/ctl", OpenMode::RDWR).expect("open trace ctl");
    p.write_str(ctl, "trace on").expect("trace on");

    import(&p, "il!helix!exportfs", "/lib", "/n/helix", MREPL).expect("import");
    workload(&p, "/n/helix/blob", 100);
    // Let trailing acks and any in-flight recovery land on their roots.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let roots = tracer.roots();
    let client: Vec<&RootSpan> = roots.iter().filter(|r| is_client(r)).collect();
    assert!(client.len() >= 100, "expected a few hundred client RPCs, got {}", client.len());

    // Per-layer latency breakdown.
    println!("\nper-layer latency over {} client RPCs:", client.len());
    println!("{:<10} {:>6} {:>9} {:>9}", "layer", "spans", "p50(us)", "p99(us)");
    for layer in LAYERS {
        let mut durs: Vec<u64> = client
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| layer_of(&s.name) == Some(*layer))
            .map(|s| s.end_ns.saturating_sub(s.start_ns) / 1_000)
            .collect();
        if durs.is_empty() {
            continue;
        }
        durs.sort_unstable();
        println!(
            "{:<10} {:>6} {:>9} {:>9}",
            layer,
            durs.len(),
            percentile(&durs, 0.50),
            percentile(&durs, 0.99),
        );
    }

    // The client's time must be accounted for by its children: the
    // marshal/txwait/reply partition guarantees >=90% coverage. The
    // gate is duration-weighted across all RPCs — on the real clock
    // an OS preemption can open a gap inside any one ~100us RPC, but
    // it cannot erase a tenth of the whole workload.
    let mut worst = 1.0f64;
    let (mut covered_ns, mut total_ns) = (0u64, 0u64);
    for r in &client {
        let c = coverage(r);
        worst = worst.min(c);
        covered_ns += (c * r.dur_ns() as f64) as u64;
        total_ns += r.dur_ns();
    }
    let overall = covered_ns as f64 / total_ns.max(1) as f64;
    assert!(
        overall >= 0.90,
        "child spans cover only {:.0}% of the client's RPC time",
        overall * 100.0
    );
    println!(
        "\nchild-span coverage of client RPC time {:.1}% (worst single RPC {:.1}%)",
        overall * 100.0,
        worst * 100.0
    );

    // The retransmit-inflated tail, explained by its trace: the roots
    // gnot's `/net/trace/data` lists an IL event under.
    let data = trace_data(&p);
    let has_recovery = |r: &RootSpan| data.get(&r.id).is_some_and(|b| b.contains("\n  event il "));
    let recovered: Vec<&&RootSpan> = client.iter().filter(|r| has_recovery(r)).collect();
    assert!(
        !recovered.is_empty(),
        "5% loss over {} RPCs produced no rexmit/query events",
        client.len()
    );
    let mean = |rs: &[&&RootSpan]| {
        rs.iter().map(|r| r.dur_ns() / 1_000).sum::<u64>() / rs.len().max(1) as u64
    };
    let clean: Vec<&&RootSpan> = client.iter().filter(|r| !has_recovery(r)).collect();
    let mut durs: Vec<u64> = client.iter().map(|r| r.dur_ns() / 1_000).collect();
    durs.sort_unstable();
    println!(
        "\nroot RPC p50 {}us p99 {}us; {} of {} RPCs needed IL recovery \
         (mean {}us vs {}us clean)",
        percentile(&durs, 0.50),
        percentile(&durs, 0.99),
        recovered.len(),
        client.len(),
        mean(&recovered),
        mean(&clean),
    );
    println!("\na retransmitted RPC, end to end (gnot% cat /net/trace/data):");
    print!("{}", data[&recovered.iter().max_by_key(|r| r.dur_ns()).unwrap().id]);

    // Phase 2: the same file tree mounted over a local pipe, so the
    // stream queues carry the 9P messages and their residency shows up
    // as `queue` spans inside the RPC.
    p.write_str(ctl, "clear").expect("clear ring");
    let (mfd, sfd) = p.pipe().expect("pipe");
    let io = p.io(sfd).expect("chan io");
    let sink = io.clone();
    let fs: Arc<dyn ProcFs> = gnot.rootfs.clone();
    std::thread::spawn(move || {
        let _ = plan9::ninep::server::serve(fs, Box::new(io), Box::new(sink));
    });
    p.mount_fd(mfd, "", "/n/self", MREPL, false).expect("mount pipe");
    workload(&p, "/n/self/lib/ndb/local", 10);
    std::thread::sleep(std::time::Duration::from_millis(100));

    let roots = tracer.roots();
    let queued = roots
        .iter()
        .filter(|r| is_client(r))
        .find(|r| r.spans.iter().any(|s| s.name == "queue"))
        .expect("no client RPC carried a queue-residency span over the pipe mount");
    println!("\nthe same RPC over a pipe mount, stream queues visible:");
    print!("{}", trace_data(&p)[&queued.id]);

    println!("\ngnot% echo trace off > /net/trace/ctl");
    p.write_str(ctl, "trace off").expect("trace off");
    p.close(ctl);
    println!("\ntracerpc: OK");
}
