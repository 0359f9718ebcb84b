//! End-to-end tests of the checkflow passes against the seeded flow
//! fixture (`tests/fixtures/flow`): a miniature kernel carrying one
//! deliberate bug per pass — a pool job that blocks inside `resolve`,
//! a wheel callback that panics two calls deep, and a two-lock order
//! cycle. Each test asserts the exact witness path or cycle the
//! analyzer must derive, and the binary-level test checks the same
//! facts survive into `REPORT_checkflow.json` and the exit status.

use plan9_check::{flow, graph, lockgraph};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow")
}

fn fixture_graph() -> graph::CallGraph {
    graph::build_graph(&fixture_root()).expect("fixture graph builds")
}

#[test]
fn pool_job_blocking_in_resolve_yields_exact_witness_path() {
    let g = fixture_graph();
    let findings = flow::blocking_findings(&g);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.root_kind, "pool-job");
    assert_eq!(f.sink_kind, "resolve");
    assert_eq!(f.sink_file, "crates/inet/src/lib.rs");
    let names: Vec<&str> = f.path.iter().map(|s| s.qualified.as_str()).collect();
    assert_eq!(names, ["inet::{closure}", "inet::deliver"]);
}

#[test]
fn wheel_callback_panic_two_deep_yields_exact_witness_path() {
    let g = fixture_graph();
    let findings = flow::panic_findings(&g);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.root_kind, "wheel-callback");
    assert_eq!(f.sink_kind, "unwrap");
    assert_eq!(f.sink_file, "crates/inet/src/lib.rs");
    let names: Vec<&str> = f.path.iter().map(|s| s.qualified.as_str()).collect();
    assert_eq!(names, ["inet::{closure}", "inet::tick", "inet::decode"]);
}

#[test]
fn opposed_lock_orders_yield_the_cycle() {
    let g = fixture_graph();
    let locks = lockgraph::analyze(&g, None);
    let mut edges: Vec<(&str, &str)> = locks
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    edges.sort_unstable();
    assert_eq!(
        edges,
        [("fix.left", "fix.right"), ("fix.right", "fix.left")],
        "static edges: {edges:?}"
    );
    assert_eq!(locks.cycles.len(), 1, "{:?}", locks.cycles);
    let mut cycle = locks.cycles[0].clone();
    cycle.sort_unstable();
    assert_eq!(cycle, ["fix.left", "fix.right"]);
    assert!(!locks.cross_checked, "no observed dump was given");
}

#[test]
fn observed_dump_confirms_edges_and_reports_dead_classes() {
    let g = fixture_graph();
    // The runtime saw left-before-right (and never touched fix.cache).
    let observed = "class fix.left acquires=2\n\
                    class fix.right acquires=2\n\
                    edge fix.left -> fix.right thread=main\n";
    let locks = lockgraph::analyze(&g, Some(observed));
    assert!(locks.cross_checked);
    for e in &locks.edges {
        let expect_confirmed = (e.from.as_str(), e.to.as_str()) == ("fix.left", "fix.right");
        assert_eq!(
            e.confirmed, expect_confirmed,
            "{} -> {} confirmation wrong",
            e.from, e.to
        );
    }
    assert_eq!(locks.dead_classes, ["fix.cache"]);
}

#[test]
fn binary_flow_run_reports_all_three_bugs_and_fails() {
    let report = std::env::temp_dir().join(format!(
        "checkflow-fixture-report-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_plan9-check"))
        .arg("--root")
        .arg(fixture_root())
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for rule in ["blocking-context", "panic-reach", "lock-cycle"] {
        assert!(stderr.contains(rule), "stderr lacks {rule}: {stderr}");
    }

    let text = std::fs::read_to_string(&report).expect("report written");
    let _ = std::fs::remove_file(&report);
    // The witness paths land in the report, in order.
    for fragment in [
        "\"sink_kind\": \"resolve\"",
        "\"fn\": \"inet::{closure}\"",
        "\"fn\": \"inet::deliver\"",
        "\"sink_kind\": \"unwrap\"",
        "\"fn\": \"inet::tick\"",
        "\"fn\": \"inet::decode\"",
    ] {
        assert!(text.contains(fragment), "report lacks {fragment}:\n{text}");
    }
    let deliver = text.find("\"fn\": \"inet::deliver\"").unwrap();
    let closure = text.find("\"fn\": \"inet::{closure}\"").unwrap();
    assert!(closure < deliver, "witness path is not root-first");
    assert!(
        text.contains("fix.left") && text.contains("fix.right"),
        "cycle classes missing from report"
    );
}
