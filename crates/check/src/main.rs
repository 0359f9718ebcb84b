//! `plan9-check`: run netcheck's line rules and the checkflow passes
//! against a workspace. Any violation fails.
//!
//! ```text
//! plan9-check [--root DIR] [--report FILE]
//! ```
//!
//! Beside the line lints it builds the whole-workspace call graph and
//! checks three more rule classes: `blocking-context` (no blocking
//! primitive reachable from a pool/wheel/rx root), `panic-reach` (no
//! panic reachable from those roots, nor any in a kernel crate), and
//! `lock-cycle` (the static acquired-while-held graph is acyclic). It
//! writes `REPORT_checkflow.json` (or `--report FILE`: graph stats,
//! witness paths, the lock-order cross-check against the runtime dump
//! `scripts/lockgraph-observed.txt`) and holds the analysis to a 10 s
//! wall budget: verify.sh runs this before every build, so a slow
//! analysis is itself a regression.
//!
//! Exit status: 0 when no rule is violated and the budget holds, 1
//! otherwise, 2 on usage or I/O errors.

use plan9_check::{flow, graph, lockgraph, report, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

/// The analysis's wall budget.
const BUDGET_MS: u128 = 10_000;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--root" => &mut root,
            "--report" => report_path.insert(PathBuf::new()),
            other => return usage(&format!("unknown argument {other:?}")),
        };
        match args.next() {
            Some(v) => *slot = PathBuf::from(v),
            None => return usage(&format!("{a} needs a path")),
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
    let g = graph::graph_of(&ws);
    let blocking = flow::blocking_findings(&g);
    let panics = flow::panic_findings(&g);
    let observed = std::fs::read_to_string(root.join("scripts/lockgraph-observed.txt")).ok();
    let locks = lockgraph::analyze(&g, observed.as_deref());
    let wall_ms = started.elapsed().as_millis();
    violations.extend(flow::to_violations(&blocking));
    violations.extend(flow::to_violations(&panics));
    violations.extend(lockgraph::to_violations(&locks));

    let report_path = report_path.unwrap_or_else(|| root.join("REPORT_checkflow.json"));
    let text = report::render(&g, &blocking, &panics, &locks);
    if let Err(e) = std::fs::write(&report_path, text) {
        eprintln!("plan9-check: writing {}: {e}", report_path.display());
        return ExitCode::from(2);
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
    println!(
        "plan9-check: {} fns, {} call sites ({} resolved, {} by receiver type), {} roots; \
         lock edges {} ({} untested, {} dynamic-only){}",
        g.fns.len(),
        g.call_sites(),
        g.resolved_calls,
        g.typed_calls,
        g.roots().count(),
        locks.edges.len(),
        locks.untested().count(),
        locks.dynamic_only.len(),
        if locks.cross_checked { "" } else { " [no runtime dump: lock edges unconfirmed]" },
    );
    if wall_ms > BUDGET_MS {
        eprintln!("plan9-check: FAIL: analysis took {wall_ms}ms, over its {BUDGET_MS}ms budget");
        return ExitCode::from(1);
    }
    println!("plan9-check: OK: no violations in {wall_ms}ms");
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("plan9-check: {err}\nusage: plan9-check [--root DIR] [--report FILE]");
    ExitCode::from(2)
}
