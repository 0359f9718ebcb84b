//! The flow passes: blocking-context and panic-reachability.
//!
//! Both are the same question asked of the call graph — "is any *sink*
//! call site reachable from a non-blocking *root*?" — differing only in
//! what counts as a sink and which comment annotation waives a site:
//!
//! - **blocking-context**: sinks are the blocking primitives (condvar
//!   `wait*`, channel `recv*`, `sleep`, a zero-argument `.join()`,
//!   `resolve`: a name-space walk through mounted servers, or a DNS
//!   lookup). Roots are `pool::submit` jobs, `wheel::schedule`
//!   callbacks, and ether `set_rx_handler` frame handlers — the
//!   contexts PR 7 documents as "must be short and must not block".
//!   `// blocking-ok: <reason>` waives a call site.
//! - **panic-reach**: sinks are `panic!`-family macros and
//!   `unwrap`/`expect` methods, from the same roots — and in a kernel
//!   crate ([`KERNEL_CRATES`]) every sink is a finding of its own,
//!   reached or not. `// checked: <reason>` waives a site. (The
//!   `assert!` family is deliberately *not* a sink: an assertion firing
//!   means the kernel is already in an undefined state, and making
//!   every debug assertion a finding would drown the signal.)
//!
//! Reachability runs breadth-first from the sinks over reversed call
//! edges, so every flagged root carries a *shortest* witness path
//! root → … → sink, reconstructed from the BFS parent pointers. A
//! waived call site is removed from the graph before the search: the
//! annotation suppresses both the sink itself and any traversal
//! through the annotated call.

use crate::graph::{CallGraph, CallSite, Callee, FnNode};
use crate::{Rule, Violation, KERNEL_CRATES};
use std::collections::{BTreeSet, VecDeque};

/// Pass name for blocking-context findings.
pub const BLOCKING: &str = "blocking-context";
/// Pass name for panic-reachability findings.
pub const PANIC: &str = "panic-reach";

/// One function on a witness path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// `crate::module::Type::name` of the function.
    pub qualified: String,
    pub file: String,
    /// Line the function is defined at.
    pub line: usize,
    /// Line of the call to the next step (or of the sink itself, on
    /// the terminal step).
    pub call_line: usize,
}

impl PathStep {
    fn at(f: &FnNode, call_line: usize) -> PathStep {
        PathStep { qualified: f.qualified(), file: f.file.clone(), line: f.line, call_line }
    }
}

/// One root → sink reachability finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// [`BLOCKING`] or [`PANIC`].
    pub pass: &'static str,
    /// `pool-job` / `wheel-callback` / `rx-handler`.
    pub root_kind: &'static str,
    pub root_file: String,
    pub root_line: usize,
    /// What the sink is (`condvar-wait`, `chan-recv`, `sleep`, `join`,
    /// `resolve`, `panic-macro`, `unwrap`).
    pub sink_kind: &'static str,
    pub sink_file: String,
    pub sink_line: usize,
    /// Root-first witness path; the last step contains the sink.
    pub path: Vec<PathStep>,
}

impl Finding {
    /// The witness path as `a -> b -> c` of qualified names.
    pub fn path_line(&self) -> String {
        self.path
            .iter()
            .map(|s| s.qualified.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Classifies a call site as a blocking primitive.
fn blocking_sink(c: &CallSite) -> Option<&'static str> {
    if matches!(c.callee, Callee::Macro(_)) {
        return None;
    }
    match c.callee.name() {
        "wait" | "wait_until" | "wait_for" | "wait_timeout" | "wait_while" | "park_wait"
        | "vwait" => Some("condvar-wait"),
        "recv" | "recv_timeout" | "recv_deadline" => Some("chan-recv"),
        "sleep" => Some("sleep"),
        // Zero-argument method `.join()` is a thread/kproc join;
        // `path.join("x")` and `strings.join(sep)` take arguments.
        "join" if c.zero_args && matches!(c.callee, Callee::Method(_)) => Some("join"),
        "resolve" => Some("resolve"),
        _ => None,
    }
}

/// Classifies a call site as a panic site.
fn panic_sink(c: &CallSite) -> Option<&'static str> {
    match &c.callee {
        Callee::Macro(m) => match m.as_str() {
            "panic" | "unreachable" | "todo" | "unimplemented" => Some("panic-macro"),
            _ => None,
        },
        Callee::Method(m) => match m.as_str() {
            "unwrap" | "expect" | "unwrap_err" | "expect_err" => Some("unwrap"),
            _ => None,
        },
        _ => None,
    }
}

/// Runs the blocking-context pass.
pub fn blocking_findings(g: &CallGraph) -> Vec<Finding> {
    run_pass(g, BLOCKING, blocking_sink, |c| c.blocking_ok.is_some())
}

/// Runs the panic-reachability pass: each root that reaches a panic
/// site, then each kernel-crate panic site no root's witness ends at
/// (a finding whose "root" is the function holding it).
pub fn panic_findings(g: &CallGraph) -> Vec<Finding> {
    let mut out = run_pass(g, PANIC, panic_sink, |c| c.checked);
    let mut seen: BTreeSet<(String, usize)> = out.iter().map(|f| (f.sink_file.clone(), f.sink_line)).collect();
    for f in g.fns.iter().filter(|f| KERNEL_CRATES.contains(&f.crate_name.as_str())) {
        let sinks = f.calls().filter(|c| !c.checked).filter_map(|c| Some((panic_sink(c)?, c.line)));
        for (sink_kind, line) in sinks {
            if seen.insert((f.file.clone(), line)) {
                out.push(Finding {
                    pass: PANIC,
                    root_kind: "fn",
                    root_file: f.file.clone(),
                    root_line: line,
                    sink_kind,
                    sink_file: f.file.clone(),
                    sink_line: line,
                    path: vec![PathStep::at(f, line)],
                });
            }
        }
    }
    out
}

type Sink = fn(&CallSite) -> Option<&'static str>;

fn run_pass(g: &CallGraph, pass: &'static str, sink: Sink, waived: fn(&CallSite) -> bool) -> Vec<Finding> {
    let n = g.fns.len();

    // Earliest unwaived sink per node, in body (source) order.
    let mut direct: Vec<Option<(&'static str, usize)>> = vec![None; n];
    for (i, f) in g.fns.iter().enumerate() {
        for c in f.calls() {
            if waived(c) {
                continue;
            }
            if let Some(kind) = sink(c) {
                direct[i] = Some((kind, c.line));
                break;
            }
        }
    }

    // Reversed call edges: callee → (caller, call line). Waived call
    // sites are dropped here, severing traversal through them.
    let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (i, f) in g.fns.iter().enumerate() {
        for c in f.calls() {
            if waived(c) || matches!(c.callee, Callee::Macro(_)) {
                continue;
            }
            for &t in &c.targets {
                rev[t].push((i, c.line));
            }
        }
    }
    for v in &mut rev {
        v.sort_unstable();
        v.dedup();
    }

    // BFS from every sink node: `next[i]` is the parent pointer toward
    // the nearest sink, so witness paths are shortest and (given the
    // deterministic scan order) stable across runs.
    let mut next: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, d) in direct.iter().enumerate() {
        if d.is_some() {
            seen[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(t) = queue.pop_front() {
        for &(caller, line) in &rev[t] {
            if !seen[caller] {
                seen[caller] = true;
                next[caller] = Some((t, line));
                queue.push_back(caller);
            }
        }
    }

    // A finding per reachable root, with the witness path.
    let mut out = Vec::new();
    for (i, f) in g.roots() {
        if !seen[i] {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = i;
        while let Some((t, line)) = next[cur] {
            path.push(PathStep::at(&g.fns[cur], line));
            cur = t;
        }
        // BFS invariant: a terminal node was seeded from `direct`, so
        // the sink is always present.
        let (sink_kind, sink_line) = direct[cur].unwrap_or(("sink", g.fns[cur].line));
        path.push(PathStep::at(&g.fns[cur], sink_line));
        out.push(Finding {
            pass,
            root_kind: f.root.map(|r| r.label()).unwrap_or("fn"),
            root_file: f.file.clone(),
            root_line: f.line,
            sink_kind,
            sink_file: g.fns[cur].file.clone(),
            sink_line,
            path,
        });
    }
    out
}

/// Converts flow findings into ratchet violations, keyed by the root's
/// file (the context that must not block), carrying the witness path in
/// the excerpt.
pub fn to_violations(findings: &[Finding]) -> Vec<Violation> {
    findings
        .iter()
        .map(|f| Violation {
            rule: if f.pass == BLOCKING {
                Rule::BlockingContext
            } else {
                Rule::PanicReach
            },
            file: f.root_file.clone(),
            line: f.root_line,
            excerpt: format!(
                "{} reaches {} at {}:{} via {}",
                f.root_kind,
                f.sink_kind,
                f.sink_file,
                f.sink_line,
                f.path_line()
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{scan_file, CallGraph};

    fn graph_of(src: &str) -> CallGraph {
        graph_in("demo", src)
    }

    fn graph_in(krate: &str, src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        scan_file(&mut g, &crate::SourceFile::new(krate, "f.rs", &[], src));
        g.index();
        g
    }

    fn panic_lines(krate: &str, src: &str) -> Vec<usize> {
        panic_findings(&graph_in(krate, src)).iter().map(|f| f.sink_line).collect()
    }

    #[test]
    fn a_kernel_panic_site_is_a_finding_unreached() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(panic_lines("streams", src), vec![2]);
        let v = to_violations(&panic_findings(&graph_in("streams", src)));
        assert_eq!((v[0].rule, v[0].line), (Rule::PanicReach, 2));
        // Not a kernel crate: only a root's reach counts there.
        assert!(panic_lines("bench", src).is_empty());
        // Strings, comments and test code are no code.
        let src = "fn f() {\n    let s = \".unwrap()\";\n    // calling .unwrap() here would be bad\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(panic_lines("inet", src).is_empty());
    }

    #[test]
    fn checked_waives_a_kernel_panic_site() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // checked: caller guarantees Some\n}\n";
        assert!(panic_lines("streams", src).is_empty());
        // …but an empty reason does not, and a standalone annotation
        // blesses the next line only.
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // checked:\n}\n";
        assert_eq!(panic_lines("streams", src), vec![2]);
        let src = "fn f(x: Option<u8>) -> u8 {\n    // checked: length verified above\n    x.unwrap()\n}\n\
                   fn g(y: Option<u8>) -> u8 { y.expect(\"y\") }\n";
        assert_eq!(panic_lines("streams", src), vec![5]);
    }

    #[test]
    fn pool_job_reaching_condvar_wait_two_deep() {
        let g = graph_of(
            "fn service(key: u64, cv: &Condvar) {\n    pool::submit(key, move || step1(cv));\n}\n\
             fn step1(cv: &Condvar) { step2(cv); }\n\
             fn step2(cv: &Condvar) { cv.wait(&mut g); }\n",
        );
        let f = blocking_findings(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].sink_kind, "condvar-wait");
        assert_eq!(f[0].root_kind, "pool-job");
        let names: Vec<&str> = f[0].path.iter().map(|s| s.qualified.as_str()).collect();
        assert_eq!(names, vec!["demo::{closure}", "demo::step1", "demo::step2"]);
    }

    #[test]
    fn blocking_ok_severs_the_path() {
        let g = graph_of(
            "fn service(key: u64, cv: &Condvar) {\n    pool::submit(key, move || step1(cv));\n}\n\
             fn step1(cv: &Condvar) {\n    step2(cv); // blocking-ok: bounded 1ms drain, measured\n}\n\
             fn step2(cv: &Condvar) { cv.wait(&mut g); }\n",
        );
        assert!(blocking_findings(&g).is_empty());
    }

    #[test]
    fn sink_outside_a_root_is_not_a_finding() {
        let g = graph_of("fn plain(cv: &Condvar) { cv.wait(&mut g); }\n");
        assert!(blocking_findings(&g).is_empty());
    }

    #[test]
    fn panic_two_calls_deep_from_wheel_callback() {
        let g = graph_of(
            "fn arm(at: Instant) {\n    wheel::schedule(1, at, move || fire());\n}\n\
             fn fire() { decode(None); }\n\
             fn decode(v: Option<u8>) { v.expect(\"always set\"); }\n",
        );
        let f = panic_findings(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].sink_kind, "unwrap");
        assert_eq!(f[0].root_kind, "wheel-callback");
        assert_eq!(f[0].path.len(), 3);
    }

    #[test]
    fn checked_annotation_waives_panic_sink() {
        let g = graph_of(
            "fn arm(at: Instant) {\n    wheel::schedule(1, at, move || fire());\n}\n\
             fn fire(v: Option<u8>) {\n    v.unwrap(); // checked: set by the scheduler before arming\n}\n",
        );
        assert!(panic_findings(&g).is_empty());
        // A panic macro is still caught without the annotation.
        let g = graph_of(
            "fn arm(at: Instant) {\n    wheel::schedule(1, at, move || fire());\n}\n\
             fn fire() { panic!(\"boom\"); }\n",
        );
        let f = panic_findings(&g);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].sink_kind, "panic-macro");
    }

    #[test]
    fn join_requires_zero_args() {
        let g = graph_of(
            "fn service(key: u64) {\n    pool::submit(key, move || tidy());\n}\n\
             fn tidy(p: &Path, parts: &[String]) {\n    p.join(\"x\");\n    parts.join(\", \");\n}\n",
        );
        assert!(blocking_findings(&g).is_empty());
        let g = graph_of(
            "fn service(key: u64, h: KprocHandle) {\n    pool::submit(key, move || h.join());\n}\n",
        );
        let f = blocking_findings(&g);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].sink_kind, "join");
    }

    #[test]
    fn violations_carry_the_witness_path() {
        let g = graph_of(
            "fn service(key: u64) {\n    pool::submit(key, move || nap());\n}\n\
             fn nap() { time::sleep(ms(10)); }\n",
        );
        let v = to_violations(&blocking_findings(&g));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::BlockingContext);
        assert!(v[0].excerpt.contains("sleep"), "{}", v[0].excerpt);
        assert!(v[0].excerpt.contains("demo::nap"), "{}", v[0].excerpt);
    }
}
