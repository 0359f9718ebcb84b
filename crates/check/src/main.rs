//! `plan9-check`: run the netcheck lint pass — and, with `--flow`, the
//! checkflow interprocedural passes — against a workspace. Any
//! violation fails.
//!
//! ```text
//! plan9-check [--root DIR] [--list] [--flow] [--report FILE]
//!             [--observed FILE] [--budget-ms N]
//! ```
//!
//! `--flow` builds the whole-workspace call graph and adds three rule
//! classes on top of the line lints: `blocking-context` (no blocking
//! primitive reachable from a pool/wheel/rx root), `panic-reach` (no
//! panic reachable from those roots), and `lock-cycle` (the static
//! acquired-while-held graph is acyclic). It writes
//! `REPORT_checkflow.json` (graph stats, witness paths, lock-order
//! cross-check against `scripts/lockgraph-observed.txt`) and enforces
//! its own wall budget: verify.sh runs this before every build, so a
//! slow analysis is itself a regression.
//!
//! Exit status: 0 when no rule is violated (and, under `--flow`, the
//! budget holds), 1 otherwise, 2 on usage or I/O errors.

use plan9_check::{flow, graph, lockgraph, report, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report_path: Option<PathBuf> = None;
    let mut observed_path: Option<PathBuf> = None;
    let mut list = false;
    let mut flow_mode = false;
    let mut budget_ms: u128 = 10_000;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(PathBuf::from(v)),
                None => return usage("--report needs a file"),
            },
            "--observed" => match args.next() {
                Some(v) => observed_path = Some(PathBuf::from(v)),
                None => return usage("--observed needs a file"),
            },
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => budget_ms = v,
                None => return usage("--budget-ms needs a number"),
            },
            "--list" => list = true,
            "--flow" => flow_mode = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    // checked: lint wall budget; the host clock is the measurand here
    let started = std::time::Instant::now();

    // Read and lexed once, for the line rules and the call graph both.
    let ws = match Workspace::read(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("plan9-check: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let mut violations = ws.lint();

    let mut flow_summary = String::new();
    if flow_mode {
        let g = graph::graph_of(&ws);
        let blocking = flow::blocking_findings(&g);
        let panics = flow::panic_findings(&g);
        let observed_path =
            observed_path.unwrap_or_else(|| root.join("scripts/lockgraph-observed.txt"));
        let observed = std::fs::read_to_string(&observed_path).ok();
        let locks = lockgraph::analyze(&g, observed.as_deref());

        violations.extend(flow::to_violations(&blocking));
        violations.extend(flow::to_violations(&panics));
        violations.extend(lockgraph::to_violations(&locks));

        let wall_ms = started.elapsed().as_millis();
        let text = report::render(&g, &blocking, &panics, &locks, wall_ms);
        let report_path = report_path.unwrap_or_else(|| root.join("REPORT_checkflow.json"));
        if let Err(e) = std::fs::write(&report_path, text) {
            eprintln!("plan9-check: writing {}: {e}", report_path.display());
            return ExitCode::from(2);
        }
        flow_summary = format!(
            "plan9-check: flow: {} fns, {} call sites ({} resolved), {} roots; \
             blocking {} / panic-reach {} / lock edges {} ({} untested, {} dynamic-only, \
             {} cycles, {} dead classes){}",
            g.fns.len(),
            g.call_sites(),
            g.resolved_calls,
            g.roots().count(),
            blocking.len(),
            panics.len(),
            locks.edges.len(),
            locks.untested().count(),
            locks.dynamic_only.len(),
            locks.cycles.len(),
            locks.dead_classes.len(),
            if locks.cross_checked {
                ""
            } else {
                " [no runtime dump: lock edges unconfirmed]"
            },
        );
    }

    if list {
        for v in &violations {
            println!("{v}");
        }
    }

    if !violations.is_empty() {
        eprintln!("plan9-check: {} violations:", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!(
            "plan9-check: FAIL: fix them (or, for a justified infallible \
             call, annotate it `// checked: <reason>`; for a bounded wait in \
             a non-blocking context, `// blocking-ok: <reason>`)"
        );
        return ExitCode::from(1);
    }
    if !flow_summary.is_empty() {
        println!("{flow_summary}");
    }
    let wall_ms = started.elapsed().as_millis();
    if flow_mode && wall_ms > budget_ms {
        eprintln!(
            "plan9-check: FAIL: {wall_ms}ms exceeds the --budget-ms {budget_ms} wall budget"
        );
        return ExitCode::from(1);
    }
    println!(
        "plan9-check: OK: no violations across {} in {wall_ms}ms",
        if flow_mode {
            "panic-path/raw-sync/wall-clock/mono-clock/registry-dep/blocking-context/panic-reach/lock-cycle"
        } else {
            "panic-path/raw-sync/wall-clock/mono-clock/registry-dep"
        }
    );
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "plan9-check: {err}\nusage: plan9-check [--root DIR] [--list] [--flow] [--report FILE] \
         [--observed FILE] [--budget-ms N]"
    );
    ExitCode::from(2)
}
