//! `REPORT_checkflow.json`: the machine-readable face of checkflow.
//!
//! Everything the three passes know — graph statistics, every finding
//! with its witness path, every static lock edge with its confirmation
//! status — lands here so verify.sh (and a reviewer's `jq`) can gate on
//! shape rather than scrape terminal output. The crate is
//! dependency-free by design (it builds before everything else), so the
//! JSON is emitted by hand; [`esc`] covers the full string-escape
//! grammar the writers need.

use crate::flow::Finding;
use crate::graph::CallGraph;
use crate::lockgraph::LockReport;
use std::fmt::Write as _;

/// Escapes a string for a JSON literal (without the quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn findings_json(out: &mut String, findings: &[Finding], indent: &str) {
    if findings.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "{indent}  {{\"root_kind\": \"{}\", \"root\": \"{}:{}\", \"sink_kind\": \"{}\", \"sink\": \"{}:{}\", \"path\": [",
            esc(f.root_kind),
            esc(&f.root_file),
            f.root_line,
            esc(f.sink_kind),
            esc(&f.sink_file),
            f.sink_line,
        );
        for (j, s) in f.path.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \"call_line\": {}}}",
                if j == 0 { "" } else { ", " },
                esc(&s.qualified),
                esc(&s.file),
                s.line,
                s.call_line,
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 == findings.len() { "\n" } else { ",\n" });
    }
    let _ = write!(out, "{indent}]");
}

/// Renders the full report.
pub fn render(
    graph: &CallGraph,
    blocking: &[Finding],
    panics: &[Finding],
    locks: &LockReport,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"checkflow-v1\",");
    let _ = writeln!(
        out,
        "  \"graph\": {{\"functions\": {}, \"call_sites\": {}, \"resolved_calls\": {}, \"unresolved_calls\": {}, \"typed_calls\": {}, \"roots\": {}, \"lock_classes\": {}}},",
        graph.fns.len(),
        graph.call_sites(),
        graph.resolved_calls,
        graph.unresolved_calls,
        graph.typed_calls,
        graph.roots().count(),
        locks.static_classes,
    );

    let _ = write!(out, "  \"blocking_context\": {{\"count\": {}, \"findings\": ", blocking.len());
    findings_json(&mut out, blocking, "  ");
    out.push_str("},\n");

    let _ = write!(out, "  \"panic_reach\": {{\"count\": {}, \"findings\": ", panics.len());
    findings_json(&mut out, panics, "  ");
    out.push_str("},\n");

    out.push_str("  \"lock_order\": {\n");
    let _ = writeln!(out, "    \"cross_checked\": {},", locks.cross_checked);
    let _ = writeln!(out, "    \"observed_classes\": {},", locks.observed_classes);
    let _ = writeln!(out, "    \"ambiguous_receivers\": {},", graph.ambiguous_receivers);

    out.push_str("    \"static_edges\": [");
    for (i, e) in locks.edges.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n      {{\"from\": \"{}\", \"to\": \"{}\", \"confirmed\": {}, \"via\": \"{}\", \"site\": \"{}:{}\"}}",
            if i == 0 { "" } else { "," },
            esc(&e.from),
            esc(&e.to),
            e.confirmed,
            esc(&e.via),
            esc(&e.file),
            e.line,
        );
    }
    out.push_str(if locks.edges.is_empty() { "],\n" } else { "\n    ],\n" });

    let pairs = |it: &mut dyn Iterator<Item = (&String, &String)>| {
        it.map(|(a, b)| format!("[\"{}\", \"{}\"]", esc(a), esc(b))).collect::<Vec<_>>().join(", ")
    };
    let strs = |it: &[String]| it.iter().map(|c| format!("\"{}\"", esc(c))).collect::<Vec<_>>().join(", ");
    let _ = writeln!(out, "    \"untested\": [{}],", pairs(&mut locks.untested().map(|e| (&e.from, &e.to))));
    let _ = writeln!(out, "    \"dynamic_only\": [{}],", pairs(&mut locks.dynamic_only.iter().map(|(a, b)| (a, b))));
    let cycles: Vec<String> = locks.cycles.iter().map(|c| format!("[{}]", strs(c))).collect();
    let _ = writeln!(out, "    \"cycles\": [{}],", cycles.join(", "));
    let _ = writeln!(out, "    \"dead_classes\": [{}]", strs(&locks.dead_classes));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{blocking_findings, panic_findings};
    use crate::graph::scan_file;
    use crate::lockgraph::analyze;

    #[test]
    fn report_renders_valid_shape() {
        let mut g = CallGraph::default();
        let src = crate::SourceFile::new(
            "demo",
            "demo/src/lib.rs",
            &[],
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
             fn ab(&self) {\n    let ga = self.a.lock();\n    let gb = self.b.lock();\n}\n\
             }\n\
             fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n\
             fn service(key: u64) {\n    pool::submit(key, move || nap());\n}\n\
             fn nap() { time::sleep(d); }\n",
        );
        scan_file(&mut g, &src);
        g.index();
        let blocking = blocking_findings(&g);
        let panics = panic_findings(&g);
        let locks = analyze(&g, Some("class demo.a acquires=1\nedge demo.a -> demo.b thread=t\n"));
        let text = render(&g, &blocking, &panics, &locks);
        assert!(text.contains("\"schema\": \"checkflow-v1\""), "{text}");
        // A function of the tree alone: the wall clock goes to stdout.
        assert!(!text.contains("wall_ms"));
        assert!(text.contains("\"blocking_context\": {\"count\": 1"));
        assert!(text.contains("\"sink_kind\": \"sleep\""));
        assert!(text.contains("\"from\": \"demo.a\""));
        assert!(text.contains("\"dead_classes\": [\"demo.b\"]"));
        // Structural sanity: balanced braces/brackets outside strings.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for c in text.chars() {
            match c {
                '"' if prev != '\\' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            prev = c;
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("tab\there"), "tab\\there");
    }
}
