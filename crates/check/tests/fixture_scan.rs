//! End-to-end tests of the netcheck scanner against fixture workspaces.
//!
//! The fixtures mark every line the scanner must report with a
//! `V:<rule>` marker comment, so the expected set is read from the
//! fixtures themselves and the two can never drift apart. The line and
//! manifest rules report a line; so does the panic-reach pass, for a
//! panic site in a kernel crate.

use plan9_check::{flow, graph, scan_workspace};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The rules the violating fixture seeds.
const RULES: [&str; 4] = ["panic-reach", "raw-sync", "wall-clock", "registry-dep"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Collects `(rule-code, file, line)` triples from `V:<rule>` markers in
/// every `.rs` and `Cargo.toml` file under the fixture root.
fn expected_markers(root: &Path) -> Vec<(String, String, usize)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    let mut out = Vec::new();
    for path in files {
        let scannable = path.extension().is_some_and(|x| x == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml");
        if !scannable {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        for (idx, line) in std::fs::read_to_string(&path).unwrap().lines().enumerate() {
            if let Some(marker) = line.split("V:").nth(1) {
                let rule = marker.split_whitespace().next().unwrap_or("");
                // Prose like "`V:<rule>` marker" is not a seed; only the
                // real rule codes count.
                if RULES.contains(&rule) {
                    out.push((rule.to_string(), rel.clone(), idx + 1));
                }
            }
        }
    }
    out.sort();
    out
}

fn scanned(root: &Path) -> Vec<(String, String, usize)> {
    let panics = flow::to_violations(&flow::panic_findings(&graph::build_graph(root).unwrap()));
    let mut got: Vec<_> = scan_workspace(root)
        .unwrap()
        .into_iter()
        .chain(panics)
        .map(|v| (v.rule.code().to_string(), v.file, v.line))
        .collect();
    got.sort();
    got
}

#[test]
fn violating_fixture_reports_exactly_the_marked_lines() {
    let root = fixture("violating");
    let want = expected_markers(&root);
    assert!(
        want.len() >= 10,
        "fixture should seed every rule class, found only {want:?}"
    );
    // Every rule class is represented.
    for rule in RULES {
        assert!(
            want.iter().any(|(r, _, _)| r == rule),
            "fixture lost its {rule} seeds"
        );
    }
    assert_eq!(scanned(&root), want);
}

#[test]
fn clean_fixture_reports_nothing() {
    let root = fixture("clean");
    assert_eq!(expected_markers(&root), vec![]);
    assert_eq!(scanned(&root), vec![]);
}

/// Runs the binary on a fixture, with its report kept out of the tree.
fn check(name: &str) -> std::process::Output {
    let report = std::env::temp_dir().join(format!("checkflow-{name}-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_plan9-check"))
        .arg("--root")
        .arg(fixture(name))
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&report);
    out
}

#[test]
fn binary_fails_on_seeded_violations() {
    let out = check("violating");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Diagnostics name file and line.
    assert!(
        stderr.contains("crates/streams/src/lib.rs:7"),
        "diagnostics lost file:line: {stderr}"
    );
}

#[test]
fn binary_passes_on_clean_workspace() {
    let out = check("clean");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
