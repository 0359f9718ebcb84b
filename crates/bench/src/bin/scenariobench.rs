//! Adversity at paper scale, measured and watched: a generated internet
//! of a thousand hosts survives a flash crowd, a flapping trunk, a
//! backbone partition and a murdered gateway, while every gateway
//! samples its metric registry.
//!
//! The scenario engine (crates/scenario) builds the fabric from a
//! seeded script: four cities of 250 pooled machines each, bridged
//! Ethernets inside a city, Cyclone trunks between them, an exportfs
//! `/net` gateway at every border, and an ndb at the paper's 43k-line
//! scale. The script injects its events on the shared timer wheel under
//! the virtual clock, so the run is a pure function of (script, seed),
//! and the fabric-wide frame-conservation audit (delivered == sent −
//! dropped + duplicated on every medium) must hold.
//!
//! `netmon 250ms` has each gateway sample its registry into a ring; at
//! the end city 0's gateway imports every peer's `/net` and reads
//! `log/series` remotely — no agent, just `read(2)` on a file the fabric
//! already exports (§6.1). The series merge into one time-indexed view
//! of the fabric: IL traffic per interval, mean RPC round trip (the
//! flash crowd and the partition both show), queue-depth watermarks and
//! timer backlog. The copy profile ranks every named data-path copy
//! site by bytes.
//!
//! A smaller two-city row runs first as a second data point. The
//! walkthrough runs once: that its replay is byte-identical is
//! `tests/scenario_determinism.rs`'s and `tests/netmon.rs`'s business,
//! and that it is a function of the tree is verify.sh's.
//!
//! Results land in `BENCH_scenario.json`, `BENCH_netmon.json` and
//! `REPORT_netmon.txt` at the repository root.
//!
//! Usage: `cargo run -p plan9-bench --release --bin scenariobench`

use plan9_bench::{within_budget, write_artifact};
use plan9_scenario::Report;
use plan9_support::{copysite, time, vtime};
use std::collections::BTreeMap;

/// The wall clock both rows may take.
const BUDGET_S: f64 = 120.0;

/// The EXPERIMENTS walkthrough: a flash crowd hits city 3 while the
/// backbone misbehaves. 4 cities × 250 hosts, ndb at paper scale, every
/// gateway sampling at 250 ms.
const WALKTHROUGH: &str = "\
seed 1993
topology grid cities=4 hosts=250
at 2s flashcrowd city=3 dials=2000 size=512 window=1s
at 2500ms flap trunk=1-2 for 300ms
at 8s partition {0,1}|{2,3} heal 2s
at 12s kill gateway city=2
netmon 250ms
end 15s
";

/// The warm-up row: two cities, one partition, small ndb.
const WARMUP: &str = "\
seed 7
topology grid cities=2 hosts=50 ndb-lines=4000
at 100ms flashcrowd city=1 dials=200 size=64 window=500ms
at 1s partition {0}|{1} heal 500ms
end 3s
";

/// Runs `text` and returns its `BENCH_scenario.json` row and report.
fn run_script(name: &str, text: &str) -> (String, Report) {
    let sc = plan9_scenario::dsl::parse(text).expect("bench script parses");
    let report = plan9_scenario::run(&sc);
    println!(
        "{name}: {} cities x {} hosts, dials ok={} failed={}, violations={}, residual={}, virtual {:.1}s",
        sc.cities,
        sc.hosts_per_city,
        report.dials_ok,
        report.dials_failed,
        report.conservation_violations,
        report.residual_conns,
        report.virtual_s,
    );
    assert!(report.clean(), "{name} violated fabric invariants:\n{}", report.text);
    // The engine keys p99s by event index; label them by the crowd's
    // payload size, the way the other benches do.
    let p99 = report
        .p99_us
        .iter()
        .map(|&(ev, us)| {
            let size = match sc.events.get(ev).map(|te| &te.ev) {
                Some(plan9_scenario::Event::FlashCrowd { size, .. }) => *size,
                _ => 0,
            };
            format!("\"{size}\": {us}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    let row = format!(
        "{{\"name\": \"{name}\", \"cities\": {}, \"hosts_per_city\": {}, \
         \"hosts\": {}, \"dials_ok\": {}, \"dials_failed\": {}, \
         \"p99_us\": {{{p99}}}, \"conservation_violations\": {}, \
         \"residual_conns\": {}, \"virtual_s\": {:.1}}}",
        sc.cities,
        sc.hosts_per_city,
        sc.cities * sc.hosts_per_city,
        report.dials_ok,
        report.dials_failed,
        report.conservation_violations,
        report.residual_conns,
        report.virtual_s,
    );
    (row, report)
}

/// One merged fabric sample: sums of per-gateway counter deltas, maxes
/// of the process-wide scheduler gauges.
#[derive(Default, Clone)]
struct FabricSample {
    il_tx: u64,
    il_rx: u64,
    rexmits: u64,
    rtt_count: u64,
    rtt_sum_us: u64,
    queue_depth_max: u64,
    wheel_armed: u64,
    cities: usize,
}

/// Folds one gateway's rendered series into the fabric map, keyed by
/// the sample's scheduled offset. Gauges only render when they change,
/// so the parser carries the last seen value forward within a series.
fn merge_series(fabric: &mut BTreeMap<u64, FabricSample>, body: &str) {
    let mut t: Option<u64> = None;
    let (mut depth_max, mut armed) = (0u64, 0u64);
    let commit = |fabric: &mut BTreeMap<u64, FabricSample>, t: Option<u64>, depth: u64, armed: u64| {
        if let Some(at) = t {
            let f = fabric.entry(at).or_default();
            f.queue_depth_max = f.queue_depth_max.max(depth);
            f.wheel_armed = f.wheel_armed.max(armed);
        }
    };
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("sample ") {
            // Leaving a sample: commit the carried gauges to it.
            commit(fabric, t, depth_max, armed);
            t = rest
                .split_whitespace()
                .nth(1)
                .and_then(|w| w.strip_prefix("t="))
                .and_then(|w| w.strip_suffix("us"))
                .and_then(|w| w.parse().ok());
            if let Some(at) = t {
                fabric.entry(at).or_default().cities += 1;
            }
            continue;
        }
        let Some(at) = t else { continue };
        let mut it = line.split_whitespace();
        let (Some(name), Some(second)) = (it.next(), it.next()) else {
            continue;
        };
        let num = |w: Option<&str>| -> u64 {
            w.map(|w| w.trim_start_matches(['+', '=']).trim_end_matches("us")).and_then(|w| w.parse().ok()).unwrap_or(0)
        };
        let (f, v) = (fabric.entry(at).or_default(), num(Some(second)));
        match (name, second.as_bytes().first()) {
            ("il.tx", Some(b'+')) => f.il_tx += v,
            ("il.rx", Some(b'+')) => f.il_rx += v,
            ("il.rexmit" | "tcp.rexmit", Some(b'+')) => f.rexmits += v,
            ("pool.wheel.armed", Some(b'=')) => armed = v,
            (n, Some(b'=')) if n.starts_with("pool.shard") && n.ends_with(".depth") => {
                depth_max = depth_max.max(v);
            }
            // `il.rtt count +<n> sum +<n>us`
            ("il.rtt", _) if second == "count" => {
                f.rtt_count += num(it.next());
                f.rtt_sum_us += num(it.nth(1));
            }
            _ => {}
        }
    }
    commit(fabric, t, depth_max, armed);
}

/// `BENCH_netmon.json` and `REPORT_netmon.txt` from the walkthrough's
/// series and the copy sites it crossed.
fn netmon(report: &Report, copy_sites: &[copysite::SiteCount]) -> (String, String) {
    // Every surviving gateway's series made it across the fabric; the
    // murdered one (city 2) deterministically reports empty.
    let samples = |body: &str| body.lines().filter(|l| l.starts_with("sample ")).count();
    let live = report.series.iter().filter(|(_, b)| !b.is_empty()).count();
    assert!(live >= 3, "only {live} gateways exported a series");
    for (sys, body) in report.series.iter().filter(|(_, b)| !b.is_empty()) {
        assert!(samples(body) >= 10, "{sys} recorded only {} samples", samples(body));
    }
    // The ranked copy table: the walkthrough must exercise at least
    // three named sites, all with positive byte totals.
    assert!(
        copy_sites.len() >= 3 && copy_sites.iter().take(3).all(|c| c.bytes > 0),
        "copy profile too thin: {copy_sites:?}"
    );

    let mut fabric = BTreeMap::new();
    for (_, body) in &report.series {
        merge_series(&mut fabric, body);
    }
    assert!(!fabric.is_empty(), "merged fabric series is empty");
    let mut text = String::from("fabric series: t il_tx il_rx rexmits rtt_mean_us queue_max wheel_armed cities\n");
    let mut fabric_json = Vec::new();
    for (t, f) in &fabric {
        let mean = f.rtt_sum_us.checked_div(f.rtt_count).unwrap_or(0);
        text.push_str(&format!(
            "fabric t={t}us il_tx={} il_rx={} rexmits={} rtt_mean_us={mean} \
             queue_max={} wheel_armed={} cities={}\n",
            f.il_tx, f.il_rx, f.rexmits, f.queue_depth_max, f.wheel_armed, f.cities
        ));
        fabric_json.push(format!(
            "{{\"t_us\": {t}, \"il_tx\": {}, \"il_rx\": {}, \"rexmits\": {}, \
             \"rtt_mean_us\": {mean}, \"queue_depth_max\": {}, \"wheel_armed\": {}}}",
            f.il_tx, f.il_rx, f.rexmits, f.queue_depth_max, f.wheel_armed
        ));
    }

    let join = |v: Vec<String>| v.join(",\n    ");
    let series = report
        .series
        .iter()
        .map(|(sys, body)| format!("{{\"sys\": \"{sys}\", \"samples\": {}, \"bytes\": {}}}", samples(body), body.len()))
        .collect();
    let copies = copy_sites
        .iter()
        .take(10)
        .map(|c| format!("{{\"site\": \"{}\", \"bytes\": {}, \"calls\": {}}}", c.name, c.bytes, c.calls))
        .collect();
    let top3: Vec<String> = copy_sites.iter().take(3).map(|c| format!("\"{}\"", c.name)).collect();
    let json = format!(
        "{{\n  \"bench\": \"netmon\",\n  \"vtime\": true,\n  \"seed\": 1993,\n  \
         \"cities\": 4,\n  \"hosts_per_city\": 250,\n  \"sample_interval_us\": 250000,\n  \
         \"fabric_samples\": {},\n  \"top_copy_sites\": [{}],\n  \
         \"series\": [\n    {}\n  ],\n  \"copy_sites\": [\n    {}\n  ],\n  \
         \"fabric\": [\n    {}\n  ]\n}}\n",
        fabric.len(),
        top3.join(", "),
        join(series),
        join(copies),
        join(fabric_json),
    );
    (json, text)
}

fn main() {
    println!("scenariobench — generated topologies under a deterministic adversarial script");
    let started = time::real_now();
    let guard = vtime::enter();
    let (warmup, _) = run_script("warmup", WARMUP);
    let copy0 = copysite::snapshot();
    let (walkthrough, report) = run_script("walkthrough", WALKTHROUGH);
    let copy_sites = copy0.delta();
    drop(guard);

    assert!(report.dials_ok >= 2000 && report.dials_failed == 0, "the flash crowd must land every dial");
    write_artifact(
        "BENCH_scenario.json",
        &format!(
            "{{\n  \"bench\": \"scenario\",\n  \"vtime\": true,\n  \"seed\": 1993,\n  \
             \"sweep\": [\n    {walkthrough},\n    {warmup}\n  ]\n}}\n"
        ),
    );
    let (json, text) = netmon(&report, &copy_sites);
    write_artifact("BENCH_netmon.json", &json);
    write_artifact("REPORT_netmon.txt", &text);
    within_budget("scenariobench", started, BUDGET_S);
    println!("scenariobench: OK (1000 hosts, {} dials, one walkthrough with netmon on)", report.dials_ok);
}
