//! Static lock-order analysis: the acquired-while-held graph, rebuilt
//! from source, cross-checked against the runtime lockdep dump.
//!
//! Runtime lockdep (PR 5) learns the order graph from whatever the
//! tests happen to execute; this pass derives it from the program text,
//! so an ordering that no test exercises is still visible. The two
//! views check each other:
//!
//! - a **static edge** also present in the runtime dump is *confirmed*;
//! - a static edge absent from the dump is *untested* — legal, but
//!   listed in `REPORT_checkflow.json` so a reviewer sees which
//!   orderings ride on inspection alone;
//! - a runtime edge the static pass missed is *dynamic-only* — a
//!   resolution gap worth knowing about, not an error;
//! - a class named in source but absent from the dump is *dead*: either
//!   the lock is never taken or no test reaches it;
//! - a **cycle** in the static graph is an error before any test runs.
//!
//! A receiver's class is its field's: `Mutex::named(v, "c")`
//! initializing field `f` of `T { f: .. }` makes `x.f.lock()` on any
//! `x` of type `T` an acquisition of `c` (graph.rs types `x`). An
//! acquisition of a field some class is named for, on a receiver whose
//! type is not inferred, is *ambiguous*: it contributes nothing and is
//! counted in the report, because guessing manufactures cycles between
//! unrelated locks. Held-set tracking replays each function's body
//! events: named guards die at `drop(g)` or when their block closes,
//! statement temporaries at the `;`. Calls made while holding a lock
//! contribute the callee's *transitive* acquire set, computed as a
//! fixpoint over the same call edges the flow passes walk — all but a
//! method call whose receiver's type is unknown, whose fan-out to every
//! method of its name would invent orderings (`c.close()` in
//! `Conn::hangup` alone would add thirteen, through `Proc::close`).
//! Orderings the static graph misses surface as `dynamic_only` in the
//! runtime cross-check rather than vanishing.

use crate::graph::{AcqOp, BodyEvent, CallGraph};
use crate::{transitive, Rule, Violation};
use std::collections::{BTreeMap, BTreeSet};

/// One `A held while acquiring B` edge derived from source.
#[derive(Debug, Clone)]
pub struct StaticEdge {
    pub from: String,
    pub to: String,
    /// First witness site: where B is acquired (or the call that
    /// transitively acquires it).
    pub file: String,
    pub line: usize,
    /// Qualified name of the function the witness sits in.
    pub via: String,
    /// Present in the runtime-observed graph.
    pub confirmed: bool,
}

/// The lock-order analysis result.
#[derive(Debug, Default)]
pub struct LockReport {
    /// All static edges, sorted by (from, to), first witness each.
    pub edges: Vec<StaticEdge>,
    /// Cycles in the static graph: each is the class list of one
    /// strongly-connected component (or a self-loop).
    pub cycles: Vec<Vec<String>>,
    /// Runtime-observed edges the static pass did not derive.
    pub dynamic_only: Vec<(String, String)>,
    /// Classes named in source but absent from the runtime dump.
    pub dead_classes: Vec<String>,
    /// Distinct class names found in source.
    pub static_classes: usize,
    /// Distinct class names in the runtime dump.
    pub observed_classes: usize,
    /// Whether a runtime dump was available to cross-check against.
    pub cross_checked: bool,
}

impl LockReport {
    pub fn untested(&self) -> impl Iterator<Item = &StaticEdge> {
        self.edges.iter().filter(|e| !e.confirmed)
    }
}

/// A lock held at some point during body replay.
struct Held {
    classes: Vec<String>,
    guard: Option<String>,
    depth: usize,
}

/// Parses the runtime dump (`/net/log/lockgraph` format):
/// `class <name> acquires=<n>` and `edge <from> -> <to> thread=<t>`.
fn parse_observed(text: &str) -> (BTreeSet<String>, BTreeSet<(String, String)>) {
    let mut classes = BTreeSet::new();
    let mut edges = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("class") => {
                if let Some(name) = parts.next() {
                    classes.insert(name.to_string());
                }
            }
            Some("edge") => {
                let toks: Vec<&str> = parts.collect();
                // `<from> -> <to> thread=<t>`
                if let Some(arrow) = toks.iter().position(|t| *t == "->") {
                    if arrow >= 1 && arrow + 1 < toks.len() {
                        edges.insert((toks[arrow - 1].to_string(), toks[arrow + 1].to_string()));
                    }
                }
            }
            _ => {}
        }
    }
    (classes, edges)
}

/// Runs the static lock-order pass. `observed` is the runtime lockdep
/// dump text, when available.
pub fn analyze(g: &CallGraph, observed: Option<&str>) -> LockReport {
    let n = g.fns.len();

    // Transitive acquire sets: classes a call to fn `i` may take,
    // directly or through callees, as a fixpoint.
    let mut acq: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (i, f) in g.fns.iter().enumerate() {
        for ev in &f.body {
            // try_lock is edge-free, matching runtime lockdep.
            if let BodyEvent::Acquire { classes, op, .. } = ev {
                if *op != AcqOp::TryLock {
                    acq[i].extend(classes.iter().cloned());
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut add: Vec<String> = Vec::new();
            for c in g.fns[i].calls().filter(|c| !c.by_name) {
                for &t in &c.targets {
                    if t == i {
                        continue;
                    }
                    for c in &acq[t] {
                        if !acq[i].contains(c) {
                            add.push(c.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                acq[i].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    // Replay each body, collecting held-while-acquiring edges.
    let mut edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        let mut held: Vec<Held> = Vec::new();
        let mut record = |held: &[Held], to: &BTreeSet<String>, line: usize| {
            for h in held {
                for hc in &h.classes {
                    for tc in to {
                        if hc != tc {
                            edges
                                .entry((hc.clone(), tc.clone()))
                                .or_insert_with(|| (f.file.clone(), line, f.qualified()));
                        }
                    }
                }
            }
        };
        for ev in &f.body {
            match ev {
                BodyEvent::Acquire { classes, op, line, guard, depth, .. } if !classes.is_empty() => {
                    if *op != AcqOp::TryLock {
                        record(&held, &classes.iter().cloned().collect(), *line);
                    }
                    held.push(Held {
                        classes: classes.clone(),
                        guard: guard.clone(),
                        depth: *depth,
                    });
                }
                BodyEvent::Acquire { .. } => {}
                BodyEvent::DropGuard { name, .. } => {
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.guard.as_deref() == Some(name.as_str()))
                    {
                        held.remove(pos);
                    }
                }
                BodyEvent::CloseBlock { depth } => {
                    held.retain(|h| h.depth <= *depth);
                }
                BodyEvent::EndStmt => {
                    held.retain(|h| h.guard.is_some());
                }
                BodyEvent::Call(c) => {
                    if held.is_empty() || c.by_name {
                        continue;
                    }
                    let mut to: BTreeSet<String> = BTreeSet::new();
                    for &t in &c.targets {
                        if t != i {
                            to.extend(acq[t].iter().cloned());
                        }
                    }
                    if !to.is_empty() {
                        record(&held, &to, c.line);
                    }
                }
            }
        }
    }

    // Cross-check against the runtime dump.
    let (obs_classes, obs_edges) = match observed {
        Some(text) => parse_observed(text),
        None => (BTreeSet::new(), BTreeSet::new()),
    };
    let cross_checked = observed.is_some();

    let static_edges: Vec<StaticEdge> = edges
        .into_iter()
        .map(|((from, to), (file, line, via))| {
            let confirmed = obs_edges.contains(&(from.clone(), to.clone()));
            StaticEdge { from, to, file, line, via, confirmed }
        })
        .collect();

    let static_pairs: BTreeSet<(String, String)> = static_edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    let dynamic_only: Vec<(String, String)> = obs_edges
        .iter()
        .filter(|p| !static_pairs.contains(*p))
        .cloned()
        .collect();

    let source_classes: BTreeSet<&str> = g.classes.iter().map(|c| c.class.as_str()).collect();
    let dead_classes: Vec<String> = if cross_checked {
        source_classes
            .iter()
            .filter(|c| !obs_classes.contains(**c))
            .map(|c| c.to_string())
            .collect()
    } else {
        Vec::new()
    };

    let cycles = find_cycles(&static_edges);

    LockReport {
        edges: static_edges,
        cycles,
        dynamic_only,
        dead_classes,
        static_classes: source_classes.len(),
        observed_classes: obs_classes.len(),
        cross_checked,
    }
}

/// The strongly-connected components of the class graph that hold a
/// cycle, each as its sorted class list: a class on a cycle reaches
/// itself, and its component is every class it reaches that reaches it
/// back. (The graph has a few dozen classes: its transitive closure is
/// the simplest thing that finds them.)
fn find_cycles(edges: &[StaticEdge]) -> Vec<Vec<String>> {
    let mut step: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        step.entry(&e.from).or_default().insert(&e.to);
    }
    let reach = transitive(step);
    let mut out: Vec<Vec<String>> = reach
        .iter()
        .filter(|(a, to)| to.contains(*a))
        .map(|(a, to)| {
            let back = to.iter().filter(|b| reach.get(*b).is_some_and(|r| r.contains(a)));
            back.map(|b| b.to_string()).collect()
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Converts cycles into ratchet violations; each names the classes and
/// anchors at a member edge's first witness site.
pub fn to_violations(report: &LockReport) -> Vec<Violation> {
    report
        .cycles
        .iter()
        .map(|cycle| {
            let member = report
                .edges
                .iter()
                .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to));
            let (file, line) = member
                .map(|e| (e.file.clone(), e.line))
                .unwrap_or_else(|| ("<unknown>".to_string(), 0));
            Violation {
                rule: Rule::LockCycle,
                file,
                line,
                excerpt: format!("lock-order cycle: {}", cycle.join(" <-> ")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::scan_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (file, src) in files {
            g_scan(&mut g, file, src);
        }
        g.index();
        g
    }

    fn g_scan(g: &mut CallGraph, file: &str, src: &str) {
        let crate_name = file.split('/').next().unwrap_or("demo");
        scan_file(g, &crate::SourceFile::new(crate_name, file, &[], src));
    }

    const TWO_LOCKS: &str = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
        impl S {\n\
        fn ab(&self) {\n    let ga = self.a.lock();\n    let gb = self.b.lock();\n    drop(gb);\n    drop(ga);\n}\n\
        }\n\
        fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n";

    #[test]
    fn held_while_acquiring_yields_edge() {
        let g = graph_of(&[("demo/src/lib.rs", TWO_LOCKS)]);
        let r = analyze(&g, None);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "demo.a");
        assert_eq!(r.edges[0].to, "demo.b");
        assert!(r.cycles.is_empty());
        assert!(!r.edges[0].confirmed);
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl S {\n\
            fn ab(&self) {\n    let ga = self.a.lock();\n    let gb = self.b.lock();\n}\n\
            fn ba(&self) {\n    let gb = self.b.lock();\n    let ga = self.a.lock();\n}\n\
            }\n\
            fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n";
        let g = graph_of(&[("demo/src/lib.rs", src)]);
        let r = analyze(&g, None);
        assert_eq!(r.cycles, vec![vec!["demo.a".to_string(), "demo.b".to_string()]]);
        let v = to_violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::LockCycle);
        assert!(v[0].excerpt.contains("demo.a"), "{}", v[0].excerpt);
    }

    #[test]
    fn cycles_are_the_components_that_loop() {
        let edge = |from: &str, to: &str| StaticEdge {
            from: from.to_string(),
            to: to.to_string(),
            file: String::new(),
            line: 0,
            via: String::new(),
            confirmed: false,
        };
        let edges = [edge("a", "b"), edge("b", "a"), edge("b", "c"), edge("c", "d"), edge("d", "e"), edge("e", "c"), edge("x", "a")];
        assert_eq!(find_cycles(&edges), [vec!["a", "b"], vec!["c", "d", "e"]]);
        assert!(find_cycles(&edges[2..4]).is_empty());
    }

    #[test]
    fn interprocedural_edge_through_a_call() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl S {\n\
            fn outer(&self) {\n    let ga = self.a.lock();\n    self.inner();\n}\n\
            fn inner(&self) {\n    let gb = self.b.lock();\n}\n\
            }\n\
            fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n";
        let g = graph_of(&[("demo/src/lib.rs", src)]);
        let r = analyze(&g, None);
        assert!(
            r.edges.iter().any(|e| e.from == "demo.a" && e.to == "demo.b"),
            "{:?}",
            r.edges
        );
    }

    #[test]
    fn drop_releases_before_next_acquire() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl S {\n\
            fn seq(&self) {\n    let ga = self.a.lock();\n    drop(ga);\n    let gb = self.b.lock();\n}\n\
            }\n\
            fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n";
        let g = graph_of(&[("demo/src/lib.rs", src)]);
        let r = analyze(&g, None);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    /// A generic type's lock, named by its parameter's const, is each
    /// instantiation's class: what is taken under it is taken under all.
    #[test]
    fn a_generic_lock_holds_each_instantiations_class() {
        let src = "trait K { const CLASS: &'static str; }\n\
            struct A;\nimpl K for A { const CLASS: &'static str = \"demo.a\"; }\n\
            struct B;\nimpl K for B { const CLASS: &'static str = \"demo.b\"; }\n\
            struct G<C: K> { m: Mutex<u8> }\n\
            impl<C: K> G<C> {\n\
            fn new() -> Self { G { m: Mutex::named(0, C::CLASS) } }\n\
            fn f(&self) {\n    let g = self.m.lock();\n    let t = TICK.lock();\n    drop(t);\n    drop(g);\n}\n\
            }\n\
            static TICK: Mutex<u8> = Mutex::named(0, \"demo.tick\");\n";
        let g = graph_of(&[("demo/src/lib.rs", src)]);
        assert_eq!(g.ambiguous_receivers, 0);
        let r = analyze(&g, None);
        let edges: Vec<(&str, &str)> = r.edges.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
        assert_eq!(edges, [("demo.a", "demo.tick"), ("demo.b", "demo.tick")]);
        assert_eq!(r.static_classes, 3);
    }

    #[test]
    fn a_lock_field_is_its_own_structs_class() {
        // Two structs in one file both call their lock field `state`;
        // each acquisition maps to the class of its receiver's struct.
        let src = "struct Shard { state: Mutex<u8> }\n\
            impl Shard {\n    fn work(&self) { let st = self.state.lock(); }\n}\n\
            fn shard() -> Shard { Shard { state: Mutex::named(0, \"support.pool.shard\") } }\n\
            struct Wheel { state: Mutex<u8>, aux: Mutex<u8> }\n\
            impl Wheel {\n    fn arm(&self) {\n        let st = self.state.lock();\n        let ax = self.aux.lock();\n    }\n}\n\
            fn wheel() -> Wheel { Wheel { state: Mutex::named(0, \"support.wheel\"), aux: Mutex::named(0, \"support.wheel.aux\") } }\n";
        let g = graph_of(&[("support/src/pool.rs", src)]);
        let r = analyze(&g, None);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!((r.edges[0].from.as_str(), r.edges[0].to.as_str()), ("support.wheel", "support.wheel.aux"));
        assert_eq!(g.ambiguous_receivers, 0);
    }

    #[test]
    fn a_std_method_on_a_guard_takes_no_lock() {
        // `.len()` of the guarded map is `HashMap`'s, not the file's own
        // `ArpCache::len`, which takes the other lock.
        let src = "struct ArpCache { entries: Mutex<HashMap<u32, u64>>, pending: Mutex<HashMap<u32, Vec<u8>>> }\n\
            impl ArpCache {\n\
            fn new() -> ArpCache { ArpCache { entries: Mutex::named(HashMap::new(), \"inet.arp\"), pending: Mutex::named(HashMap::new(), \"inet.arp.pending\") } }\n\
            fn len(&self) -> usize { self.entries.lock().len() }\n\
            fn hold(&self) -> bool { self.pending.lock().len() < 32 }\n\
            }\n";
        let g = graph_of(&[("inet/src/arp.rs", src)]);
        let hold = g.fns.iter().find(|f| f.name == "hold").unwrap();
        let len = hold.calls().find(|c| c.callee.name() == "len").unwrap();
        assert!(len.targets.is_empty() && !len.by_name, "{:?}", len.targets);
        assert!(analyze(&g, None).edges.is_empty());
    }

    #[test]
    fn a_kproc_body_is_not_under_its_spawners_locks() {
        // The spawner holds `a` across the spawn; the worker takes `b`
        // on a thread of its own, with nothing held.
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl S {\n\
            fn spawn(&self) {\n    let ga = self.a.lock();\n    vtime::kproc(\"w\", move || self.work());\n}\n\
            fn work(&self) {\n    let gb = self.b.lock();\n}\n\
            }\n\
            fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n";
        let g = graph_of(&[("demo/src/lib.rs", src)]);
        assert!(analyze(&g, None).edges.is_empty());
        // And a kproc may block: its body is no root to check for that.
        assert_eq!(g.roots().count(), 0);
    }

    #[test]
    fn try_lock_is_edge_free() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl S {\n\
            fn t(&self) {\n    let ga = self.a.lock();\n    let gb = self.b.try_lock();\n}\n\
            }\n\
            fn mk() -> S { S { a: Mutex::named(0, \"demo.a\"), b: Mutex::named(0, \"demo.b\") } }\n";
        let g = graph_of(&[("demo/src/lib.rs", src)]);
        let r = analyze(&g, None);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn cross_check_confirms_and_finds_dead() {
        let g = graph_of(&[("demo/src/lib.rs", TWO_LOCKS)]);
        let observed = "# lockdep graph\nclass demo.a acquires=12\nclass demo.b acquires=12\n\
                        class demo.other acquires=3\nedge demo.a -> demo.b thread=t0\n\
                        edge demo.other -> demo.a thread=t1\n";
        let r = analyze(&g, Some(observed));
        assert!(r.cross_checked);
        assert!(r.edges[0].confirmed);
        assert_eq!(r.untested().count(), 0);
        assert_eq!(
            r.dynamic_only,
            vec![("demo.other".to_string(), "demo.a".to_string())]
        );
        // demo.a and demo.b are observed; nothing in source is dead.
        assert!(r.dead_classes.is_empty(), "{:?}", r.dead_classes);
        // Drop demo.b from the dump: it becomes a dead class.
        let r = analyze(&g, Some("class demo.a acquires=1\n"));
        assert_eq!(r.dead_classes, vec!["demo.b".to_string()]);
    }
}
