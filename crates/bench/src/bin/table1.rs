//! Regenerates the paper's **Table 1**, modelled: throughput and
//! latency for pipes, IL/ether, URP/Datakit and Cyclone.
//!
//! The three network paths run the real protocol code over media paced
//! at 1993 rates (the `*_calibrated` profiles of `netsim::profile`), on
//! the virtual clock and inside one kernel process, so every cell is a
//! function of the code and the profiles. What the same paths cost in
//! real CPU is perf/'s ladder (`inet.il.rt8k_ns`, `datakit.urp.rt8k_ns`,
//! `netsim.cyclone.rt8k_ns`).
//!
//! Pipes are unpaced by design: a pipe moves any amount in no virtual
//! time, so its cells are `null`, and its real cost is perf/'s
//! `streams.pipe.rt8k_ns`. A cell more than 20 % from the paper's names
//! the calibration constant that owns the miss. The run fails if either
//! of the paper's orderings breaks over the three paced paths.
//!
//! Usage: `cargo run -p plan9-bench --release --bin table1`; writes
//! `BENCH_table1.json` at the repository root.

use plan9_bench::paths::{il_ether_path, measure, urp_datakit_path};
use plan9_bench::{within_budget, write_artifact, PAPER_TABLE1};
use plan9_netsim::cyclone::cyclone_link;
use plan9_netsim::profile::Profiles;
use plan9_support::json::quote;
use plan9_support::{time, vtime};

/// The wall clock the modelled table may take. Paced in real time, the
/// same transfers would wait out about 8 s of line.
const BUDGET_S: f64 = 5.0;

const PIPES_NOTE: &str = "unpaced by design: a pipe moves data in no virtual time; \
                          its real cost is perf's streams.pipe.rt8k_ns";

/// One paced path's row: its name, its profile and its (MB/s, ms).
type Row = (&'static str, &'static str, (f64, f64));

/// The constant that owns a cell more than 20 % from the paper's:
/// the line rate owns throughput, the per-frame charge a round trip.
fn miss(profile: &str, col: &str, got: f64, paper: f64) -> Option<String> {
    let field = if col == "mbs" { "bandwidth_bps" } else { "per_frame" };
    ((got / paper - 1.0).abs() > 0.2).then(|| format!("{col}: Profiles::{profile}().{field}"))
}

fn main() {
    let started = time::real_now();
    let clock = vtime::enter();
    let rows: Vec<Row> = vtime::kproc("table1", || {
        vec![
            ("IL/ether", "ether_calibrated", measure(|| il_ether_path(Profiles::ether_calibrated()), 2 << 20, 200)),
            (
                "URP/Datakit",
                "datakit_calibrated",
                measure(|| urp_datakit_path(Profiles::datakit_calibrated()), 1 << 20, 200),
            ),
            ("Cyclone", "cyclone_calibrated", measure(|| cyclone_link(Profiles::cyclone_calibrated()), 4 << 20, 400)),
        ]
    })
    // checked: spawn fails only on OS thread exhaustion at setup
    .expect("spawn")
    .join()
    .expect("table1");
    drop(clock);

    println!("Table 1 — modelled (calibrated 1993 media, virtual clock)");
    println!("{:<14} {:>10} {:>10}   {:>10} {:>10}", "test", "MB/s", "ms", "paper MB/s", "paper ms");
    let (_, pmbs, pms) = PAPER_TABLE1[0];
    println!("{:<14} {:>10} {:>10}   {pmbs:>10.2} {pms:>10.3}", "pipes", "-", "-");
    let mut json = vec![format!(
        "{{\"test\": \"pipes\", \"mbs\": null, \"ms\": null, \"paper_mbs\": {pmbs}, \
         \"paper_ms\": {pms}, \"note\": {}}}",
        quote(PIPES_NOTE)
    )];
    for &(test, profile, (mbs, ms)) in &rows {
        let &(_, pmbs, pms) = PAPER_TABLE1.iter().find(|p| p.0 == test).expect("a paper row");
        let misses: Vec<String> =
            [miss(profile, "mbs", mbs, pmbs), miss(profile, "ms", ms, pms)].into_iter().flatten().collect();
        println!("{test:<14} {mbs:>10.3} {ms:>10.3}   {pmbs:>10.2} {pms:>10.3}  {}", misses.join("; "));
        json.push(format!(
            "{{\"test\": {}, \"mbs\": {mbs:.3}, \"ms\": {ms:.3}, \"paper_mbs\": {pmbs}, \
             \"paper_ms\": {pms}, \"misses\": [{}]}}",
            quote(test),
            misses.iter().map(|m| quote(m)).collect::<Vec<_>>().join(", ")
        ));
    }

    // The paper's orderings, over the paced paths: Cyclone, IL/ether,
    // URP/Datakit.
    let (cy, il, urp) = (rows[2].2, rows[0].2, rows[1].2);
    let throughput_ok = cy.0 > il.0 && il.0 > urp.0;
    let latency_ok = cy.1 < il.1 && il.1 < urp.1;
    println!("throughput Cyclone > IL/ether > URP/Datakit: {throughput_ok}");
    println!("latency    Cyclone < IL/ether < URP/Datakit: {latency_ok}");

    write_artifact(
        "BENCH_table1.json",
        &format!(
            "{{\n  \"bench\": \"table1\",\n  \"profile\": \"calibrated\",\n  \"vtime\": true,\n  \
             \"rows\": [\n    {}\n  ],\n  \"ordering_over\": [\"Cyclone\", \"IL/ether\", \"URP/Datakit\"],\n  \
             \"throughput_ordering_holds\": {throughput_ok},\n  \"latency_ordering_holds\": {latency_ok}\n}}\n",
            json.join(",\n    "),
        ),
    );
    assert!(throughput_ok && latency_ok, "the paper's orderings do not hold");
    within_budget("table1", started, BUDGET_S);
}
