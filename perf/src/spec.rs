//! The benchmark's contract: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is this module
//! printed (`perf --benchmark-json`); `perf --quick` fails if the two
//! have drifted apart.

use crate::stats::{median, quantile_f64};
use crate::traced::{COPY_SITES, TRACE_LAYERS};
use crate::workloads::WORKLOADS;

/// Seconds one run measures for; the driver passes it as `--seconds`.
/// The driver makes 4 + 22 runs per gated workload inside 3420 s, so
/// four workloads leave a run 25 s of measuring plus its five
/// set-ups, with a seventh of the time to spare for a slow host.
pub const RUN_SECONDS: u64 = 25;

/// The workloads `BENCHMARK.json` names, which the driver gates. The
/// other four (`write8k_il`, `dial_il`, `rpc64_pooled`,
/// `lossy_il_vtime`) run in the whole set and in `--ab` only: eight
/// workloads left a run 10 s, and the driver refused the benchmark as
/// too noisy for its bounds. These four keep one workload on each side
/// of every planned change: per message and per byte over IL, TCP as
/// the control for IL-only work, the pipe mount as the control for all
/// network work.
pub const GATED: [&str; 4] = ["rpc64_il", "read8k_il", "read8k_tcp", "rpc64_pipe"];

/// How a run's value of a metric is taken from its 100 trial values
/// or its five process values.
pub enum Take {
    /// The 10th percentile of a time or a cost, the 90th of a rate.
    BetterDecile,
    Median,
}

/// An end-to-end metric and the share of the parent's median by which
/// it may get worse before a change is rejected; `None` for a metric
/// that is printed but not in `BENCHMARK.json`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub take: Take,
    pub bound: Option<f64>,
}

impl EndToEnd {
    /// The run's value from its trials' or processes' values.
    ///
    /// Every timing takes the better decile. Interference from the
    /// shared host only ever slows a trial or a set-up, in bursts
    /// shorter than a second that come thick for minutes at a time,
    /// so the better tail is where the program's own cost shows
    /// (README, "Why the better decile of many short trials").
    /// Memory is not disturbed that way and takes the median.
    pub fn of(&self, values: &[f64]) -> f64 {
        match (&self.take, self.better) {
            (Take::Median, _) => median(&mut values.to_vec()),
            (Take::BetterDecile, "lower") => quantile_f64(values, 0.1),
            (Take::BetterDecile, _) => quantile_f64(values, 0.9),
        }
    }
}

/// What a user of the system sees, per workload. `failed_share` is not
/// here because a metric of the contract may never be 0; it travels as
/// the result line's `failed` over `attempted`, and any failure makes
/// the run incorrect.
///
/// Every timing carries the contract's ceiling of 25%. With the host
/// quiet the reported values spread 1 to 7% between runs; a busy spell
/// of the host, which lasts minutes and slows everything by 10 to 40%,
/// has spread them by up to 23%, so a tighter bound would reject sound
/// changes for the weather. Memory does not share the problem.
///
/// The gated tail is the 90th percentile. The 99th is printed with
/// it, but through a busy spell it spread 40% whatever was taken over
/// the trials, and the driver refused the benchmark for it.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        take: Take::BetterDecile,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        take: Take::BetterDecile,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: "lower",
        take: Take::BetterDecile,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: "lower",
        take: Take::BetterDecile,
        bound: None,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        take: Take::BetterDecile,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "payload_mb_per_s",
        unit: "MB/s",
        better: "higher",
        take: Take::BetterDecile,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        take: Take::BetterDecile,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        take: Take::Median,
        bound: Some(0.10),
    },
];

/// The metrics of `BENCHMARK.json`'s `end_to_end`, each with its bound.
pub fn gated() -> impl Iterator<Item = (&'static EndToEnd, f64)> {
    END_TO_END.iter().filter_map(|m| Some((m, m.bound?)))
}

/// The ladder's rungs, in the order `ladder::measure` reports them.
pub const LADDER: [&str; 31] = [
    "ninep.codec.rt64_ns",
    "ninep.codec.rt8k_ns",
    "inet.il.codec8k_ns",
    "inet.ip.codec1500_ns",
    "ninep.rpc.rt64_ns",
    "ninep.rpc.rt8k_ns",
    "streams.pipe.rt64_ns",
    "streams.pipe.rt8k_ns",
    "netsim.ether.rt64_ns",
    "netsim.ether.rt1500_ns",
    "inet.udp.rt64_ns",
    "inet.il.rt64_ns",
    "inet.il.rt8k_ns",
    "inet.tcp.rt64_ns",
    "inet.tcp.rt8k_ns",
    "datakit.urp.rt64_ns",
    "datakit.urp.rt8k_ns",
    "netsim.cyclone.rt64_ns",
    "netsim.cyclone.rt8k_ns",
    "core.local.read64_ns",
    "cs.translate_ns",
    "ndb.lookup_ns",
    "core.devproto.rt64_ns",
    "core.mount.rt64_ns",
    "exportfs.import.rt64_ns",
    "ladder.self.ether_ns",
    "ladder.self.ip_udp_ns",
    "ladder.self.il_ns",
    "ladder.self.devproto_ns",
    "ladder.self.ninep_mount_ns",
    "ladder.residual_pct",
];

/// The counts read around the counted leg, after the copy sites.
const COUNTS: [(&str, &str); 23] = [
    ("copy.bytes_per_payload_byte", "B/B"),
    ("alloc.calls_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("os.ctxsw_per_op", "count"),
    ("os.stime_share", "ratio"),
    ("os.threads", "count"),
    ("inet.il.pkts_per_op", "count"),
    ("inet.il.acks_per_op", "count"),
    ("inet.il.rexmit_per_kop", "count"),
    ("inet.il.queries_per_kop", "count"),
    ("inet.il.rexmit_bytes_per_mb", "B/MB"),
    ("inet.ip.tx_per_op", "count"),
    ("inet.ip.frags_per_op", "count"),
    ("inet.tcp.segs_per_op", "count"),
    ("inet.tcp.rexmit_per_kop", "count"),
    ("netsim.ether.frames_per_op", "count"),
    ("netsim.ether.drops", "count"),
    ("support.pool.jobs_per_op", "count"),
    ("support.wheel.arms_per_op", "count"),
    ("support.wheel.fires_per_op", "count"),
    ("inet.il.leaked_convs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The modelled metrics of the virtual-clock workload: operations per
/// virtual second, then median and 99th percentile virtual latency.
pub const MODELLED: [(&str, &str); 3] = [
    ("vtime.vops_per_vs", "1/vs"),
    ("vtime.op_p50_vus", "vus"),
    ("vtime.op_p99_vus", "vus"),
];

/// A per-layer metric: name, unit, and which way is better.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every per-layer metric a traced run prints, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let lower = |name: &str, unit| PerLayer {
        name: name.to_string(),
        unit,
        better: "lower",
    };
    let mut out: Vec<PerLayer> = LADDER
        .iter()
        .map(|name| lower(name, if name.ends_with("_pct") { "%" } else { "ns" }))
        .collect();
    for site in COPY_SITES {
        out.push(lower(&format!("copy.{site}.bytes_per_op"), "B"));
        out.push(lower(&format!("copy.{site}.calls_per_op"), "count"));
    }
    out.extend(COUNTS.iter().map(|(name, unit)| lower(name, unit)));
    out.extend(TRACE_LAYERS.iter().map(|(_, name)| lower(name, "us")));
    out.extend(MODELLED.iter().map(|(name, unit)| lower(name, unit)));
    for m in &mut out {
        if m.name == "trace.coverage" || m.name == "vtime.vops_per_vs" {
            m.better = "higher";
        }
    }
    out
}

/// The unit of a metric the end-to-end processes report.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(MODELLED)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| GATED.contains(&w.name))
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = gated()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_limits_hold() {
        let names: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(per_layer().into_iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('"')));
        assert!(gated().all(|(_, bound)| bound <= 0.25));
        assert!(GATED.iter().all(|g| WORKLOADS.iter().any(|w| w.name == *g)));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
