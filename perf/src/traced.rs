//! The traced run of one workload: counts per operation read through
//! the system's public telemetry, and nettrace span totals.
//!
//! Three legs follow set-up, on one conversation:
//! 1. counted: tracing off, a fixed number of operations between two
//!    snapshots of every counter, so the per-op counts repeat exactly;
//! 2. untraced: tracing off, timed;
//! 3. traced: `trace on`, timed, the span ring drained every
//!    [`DRAIN_EVERY`] operations.
//!
//! Legs 2 and 3 give `trace.overhead_pct`. Nothing here feeds an
//! end-to-end metric: this binary carries a counting allocator.

use crate::env::{os_counters, OsCounters};
use crate::run::{modelled, on_clock, set_up, trial, Metric, Outcome, Samples, Trial};
use crate::workloads::{Spec, Workload};
use plan9_netlog::trace::{self, RootSpan};
use plan9_support::copysite::{self, CopySnapshot};
use plan9_support::{pool, wheel};
use std::time::Duration;

/// Operations between drains of the span ring. Each operation records
/// a client root and a server root, and the ring keeps 2048.
const DRAIN_EVERY: u64 = 500;

/// Every copy site the datapath declares, in report order.
pub const COPY_SITES: [&str; 18] = [
    "buf.split",
    "buf.freeze",
    "buf.from_slice",
    "streams.qput",
    "streams.delim.prepend",
    "streams.delim.coalesce",
    "streams.bytestuff",
    "tcp.encode",
    "tcp.segment",
    "tcp.rxcopy",
    "ip.encode",
    "ip.fragment",
    "ip.reassemble",
    "ip.rxcopy",
    "il.encode",
    "il.decode",
    "il.segment",
    "il.rxcopy",
];

/// The layers a nettrace span name maps to, as `(prefix, metric)`.
pub const TRACE_LAYERS: [(&str, &str); 9] = [
    ("marshal", "trace.marshal.us_per_op"),
    ("txwait", "trace.txwait.us_per_op"),
    ("devwrite", "trace.devwrite.us_per_op"),
    ("il send", "trace.il_send.us_per_op"),
    ("ip tx", "trace.ip_tx.us_per_op"),
    ("wire tx", "trace.wire_tx.us_per_op"),
    ("queue", "trace.queue.us_per_op"),
    ("reply", "trace.reply.us_per_op"),
    ("handle", "trace.handle.us_per_op"),
];

/// Monotone counters summed over the workload's stacks and wire.
#[derive(Default, Clone, Copy)]
struct NetCounters {
    il_tx: u64,
    il_acks: u64,
    il_rexmit: u64,
    il_rexmit_bytes: u64,
    il_queries: u64,
    ip_tx: u64,
    ip_frags: u64,
    tcp_segs: u64,
    tcp_rexmit: u64,
    ether_frames: u64,
    ether_drops: u64,
}

fn net_counters(w: &dyn Workload) -> NetCounters {
    let mut c = NetCounters::default();
    let Some((seg, stacks)) = w.network() else {
        return c;
    };
    for s in stacks {
        let il = &s.il_module().stats;
        c.il_tx += il.tx_msgs.get();
        c.il_acks += il.acks.get();
        c.il_rexmit += il.retransmit_msgs.get();
        c.il_rexmit_bytes += il.retransmit_bytes.get();
        c.il_queries += il.queries.get();
        c.ip_tx += s.stats.tx_packets.get();
        c.ip_frags += s.stats.fragments_out.get();
        let tcp = &s.tcp_module().stats;
        c.tcp_segs += tcp.tx_segments.get();
        c.tcp_rexmit += tcp.retransmit_segments.get();
    }
    let wire = seg.medium().stats();
    c.ether_frames = wire.sent.get();
    c.ether_drops = wire.dropped.get();
    c
}

/// Everything read before and after the counted leg.
struct Snapshot {
    copy: CopySnapshot,
    alloc: (u64, u64),
    os: OsCounters,
    net: NetCounters,
    pool_jobs: u64,
    wheel: wheel::WheelStats,
}

fn snapshot(w: &dyn Workload) -> Snapshot {
    Snapshot {
        copy: copysite::snapshot(),
        alloc: crate::alloc::counts(),
        os: os_counters(),
        net: net_counters(w),
        pool_jobs: pool::stats().submitted.iter().sum(),
        wheel: wheel::stats(),
    }
}

/// The (b) metrics: what one operation cost in copies, allocations,
/// context switches, packets and timer work.
fn counts_per_op(before: &Snapshot, w: &dyn Workload, ops: u64, payload: usize) -> Vec<Metric> {
    let after = snapshot(w);
    let n = ops as f64;
    let per_op = |d: u64| d as f64 / n;
    let per_kop = |d: u64| 1000.0 * d as f64 / n;
    let payload_mb = n * payload as f64 / 1e6;

    let copies = before.copy.delta();
    let copied: u64 = copies.iter().map(|c| c.bytes).sum();
    let mut out: Vec<(String, &'static str, f64)> = Vec::new();
    for site in COPY_SITES {
        let c = copies.iter().find(|c| c.name == site);
        let (bytes, calls) = c.map_or((0, 0), |c| (c.bytes, c.calls));
        out.push((format!("copy.{site}.bytes_per_op"), "B", per_op(bytes)));
        out.push((format!("copy.{site}.calls_per_op"), "count", per_op(calls)));
    }

    let (a, b) = (&after.net, &before.net);
    let (ut, st) = (
        after.os.utime - before.os.utime,
        after.os.stime - before.os.stime,
    );
    let fixed: [(&str, &'static str, f64); 20] = [
        (
            "copy.bytes_per_payload_byte",
            "B/B",
            copied as f64 / (n * payload as f64),
        ),
        (
            "alloc.calls_per_op",
            "count",
            per_op(after.alloc.0 - before.alloc.0),
        ),
        (
            "alloc.bytes_per_op",
            "B",
            per_op(after.alloc.1 - before.alloc.1),
        ),
        (
            "os.ctxsw_per_op",
            "count",
            per_op(after.os.ctxsw - before.os.ctxsw),
        ),
        (
            "os.stime_share",
            "ratio",
            st as f64 / (ut + st).max(1) as f64,
        ),
        ("os.threads", "count", after.os.threads as f64),
        ("inet.il.pkts_per_op", "count", per_op(a.il_tx - b.il_tx)),
        (
            "inet.il.acks_per_op",
            "count",
            per_op(a.il_acks - b.il_acks),
        ),
        (
            "inet.il.rexmit_per_kop",
            "count",
            per_kop(a.il_rexmit - b.il_rexmit),
        ),
        (
            "inet.il.queries_per_kop",
            "count",
            per_kop(a.il_queries - b.il_queries),
        ),
        (
            "inet.il.rexmit_bytes_per_mb",
            "B/MB",
            (a.il_rexmit_bytes - b.il_rexmit_bytes) as f64 / payload_mb,
        ),
        ("inet.ip.tx_per_op", "count", per_op(a.ip_tx - b.ip_tx)),
        (
            "inet.ip.frags_per_op",
            "count",
            per_op(a.ip_frags - b.ip_frags),
        ),
        (
            "inet.tcp.segs_per_op",
            "count",
            per_op(a.tcp_segs - b.tcp_segs),
        ),
        (
            "inet.tcp.rexmit_per_kop",
            "count",
            per_kop(a.tcp_rexmit - b.tcp_rexmit),
        ),
        (
            "netsim.ether.frames_per_op",
            "count",
            per_op(a.ether_frames - b.ether_frames),
        ),
        (
            "netsim.ether.drops",
            "count",
            (a.ether_drops - b.ether_drops) as f64,
        ),
        (
            "support.pool.jobs_per_op",
            "count",
            per_op(after.pool_jobs - before.pool_jobs),
        ),
        (
            "support.wheel.arms_per_op",
            "count",
            per_op(after.wheel.scheduled - before.wheel.scheduled),
        ),
        (
            "support.wheel.fires_per_op",
            "count",
            per_op(after.wheel.fired - before.wheel.fired),
        ),
    ];
    out.extend(fixed.map(|(name, unit, value)| (name.to_string(), unit, value)));
    out.into_iter()
        .map(|(name, unit, value)| Metric::new(&name, unit, value).over(format!("over {ops} ops")))
        .collect()
}

/// Span totals gathered while draining the ring.
#[derive(Default)]
struct SpanTotals {
    layer_ns: [u64; TRACE_LAYERS.len()],
    client_ns: u64,
    covered_ns: u64,
}

/// Nanoseconds of `root` covered by the union of its child spans.
fn covered_ns(root: &RootSpan) -> u64 {
    let mut iv: Vec<(u64, u64)> = root
        .spans
        .iter()
        .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut cursor) = (0, 0);
    for (a, b) in iv {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

impl SpanTotals {
    fn drain(&mut self) {
        let tracer = trace::global();
        for root in tracer.roots() {
            for s in &root.spans {
                if let Some(i) = TRACE_LAYERS
                    .iter()
                    .position(|(prefix, _)| s.name.starts_with(prefix))
                {
                    self.layer_ns[i] += s.end_ns.saturating_sub(s.start_ns);
                }
            }
            // The client's RPC roots are the ones an operation waits
            // on; `serve` roots overlap them on the other machine.
            if !root.label.starts_with("serve") {
                self.client_ns += root.dur_ns();
                self.covered_ns += covered_ns(&root);
            }
        }
        tracer.ctl("clear").expect("clear span ring");
    }
}

/// What the traced binary reports for one workload.
pub struct TracedOutcome {
    pub outcome: Outcome,
    /// Every (b) and (c) metric, plus the modelled ones.
    pub metrics: Vec<Metric>,
}

/// Runs the three legs. `counted_ops` operations are counted; the two
/// timed legs last `leg_len` each (or a modelled workload's fixed count).
pub fn measure(spec: Spec, seed: u64, counted_ops: u64, leg_len: Duration) -> TracedOutcome {
    on_clock(spec, move || {
        let mut samples = Samples::new(spec.vtime_ops.is_some());
        let (mut w, setup_s, mut failed) = set_up(spec, seed);
        let timed = |ops: u64, since: Duration| spec.trial_over(ops, since, leg_len);

        let before = snapshot(w.as_ref());
        let counted = trial(w.as_mut(), &mut samples, &mut failed, |ops, _| {
            ops == counted_ops
        });
        let mut metrics = counts_per_op(&before, w.as_ref(), counted.ops, spec.payload);

        let untraced = trial(w.as_mut(), &mut samples, &mut failed, timed);

        let tracer = trace::global();
        tracer.ctl("clear").expect("clear span ring");
        tracer.ctl("trace on").expect("trace on");
        let mut spans = SpanTotals::default();
        let mut since = Duration::ZERO;
        let mut ops = 0;
        // The traced leg, in chunks short enough for the ring.
        loop {
            let chunk = trial(w.as_mut(), &mut samples, &mut failed, |n, dt| {
                n == DRAIN_EVERY || timed(ops + n, since + dt)
            });
            spans.drain();
            ops += chunk.ops;
            since += Duration::from_secs_f64(chunk.wall_s);
            if timed(ops, since) {
                break;
            }
        }
        tracer.ctl("trace off").expect("trace off");
        spans.drain();

        let n = ops as f64;
        let traced_ops = |m: Metric| m.over(format!("over {ops} traced ops"));
        for (i, (_, name)) in TRACE_LAYERS.iter().enumerate() {
            metrics.push(traced_ops(Metric::new(
                name,
                "us",
                spans.layer_ns[i] as f64 / 1e3 / n,
            )));
        }
        metrics.push(traced_ops(Metric::new(
            "trace.coverage",
            "ratio",
            spans.covered_ns as f64 / spans.client_ns.max(1) as f64,
        )));
        let rate = |t: &Trial| t.ops as f64 / t.wall_s;
        let traced_rate = n / since.as_secs_f64();
        metrics.push(
            Metric::new(
                "trace.overhead_pct",
                "%",
                100.0 * (rate(&untraced) - traced_rate) / rate(&untraced),
            )
            .over(format!(
                "{:.0} against {traced_rate:.0} ops/s",
                rate(&untraced)
            )),
        );

        let finish = w.finish();
        failed += finish.total();
        metrics.push(Metric::new(
            "inet.il.leaked_convs",
            "count",
            finish.leaked_convs as f64,
        ));

        let attempted = spec.warmup + counted.ops + untraced.ops + ops;
        let outcome = Outcome {
            trials: vec![counted, untraced],
            attempted,
            failed,
            setup_s,
        };
        metrics.extend(modelled(&outcome));
        TracedOutcome { outcome, metrics }
    })
}
