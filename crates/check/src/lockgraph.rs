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
//! Receivers resolve to lock classes by name: `Mutex::named(v, "c")`
//! construction sites associate the binding ident (or enclosing impl
//! type) with class `c`, and `x.state.lock()` looks `state` up with
//! same-file, then same-crate preference — two crates may both bind a
//! lock to a field called `state` (pool and wheel both do) without
//! cross-contaminating each other's edges. A receiver still ambiguous
//! after narrowing contributes nothing (counted in the report): taking
//! the cross-product of candidate classes manufactures cycles between
//! unrelated locks. Held-set tracking replays each function's body
//! events: named guards die at `drop(g)` or when their block closes,
//! statement temporaries at the `;`. Calls made while holding a lock
//! contribute the callee's *transitive* acquire set, computed as a
//! fixpoint over the call graph — with method calls propagated only to
//! a unique same-file target and bare calls to a unique same-module
//! target, because name fan-out invents orderings that do not exist.
//! Orderings lost to that strictness surface as `dynamic_only` in the
//! runtime cross-check rather than vanishing.

use crate::graph::{AcqOp, BodyEvent, CallGraph, Callee};
use crate::{Rule, Violation};
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
    /// Acquire sites skipped because the receiver still mapped to more
    /// than one class after narrowing.
    pub ambiguous: usize,
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

/// Maps a receiver ident (or impl-type fallback) to candidate class
/// names, preferring same-file, then same-crate association sites.
struct ClassResolver<'a> {
    /// binding ident → (file, crate, class)
    by_binding: BTreeMap<&'a str, Vec<(&'a str, &'a str, &'a str)>>,
    /// impl type → (file, crate, class)
    by_type: BTreeMap<&'a str, Vec<(&'a str, &'a str, &'a str)>>,
}

impl<'a> ClassResolver<'a> {
    fn new(g: &'a CallGraph) -> ClassResolver<'a> {
        let mut by_binding: BTreeMap<&str, Vec<(&str, &str, &str)>> = BTreeMap::new();
        let mut by_type: BTreeMap<&str, Vec<(&str, &str, &str)>> = BTreeMap::new();
        for c in &g.classes {
            if let Some(b) = &c.binding {
                by_binding.entry(b.as_str()).or_default().push((
                    c.file.as_str(),
                    c.crate_name.as_str(),
                    c.class.as_str(),
                ));
            }
            if let Some(t) = &c.impl_type {
                by_type.entry(t.as_str()).or_default().push((
                    c.file.as_str(),
                    c.crate_name.as_str(),
                    c.class.as_str(),
                ));
            }
        }
        ClassResolver { by_binding, by_type }
    }

    /// The class `receiver` denotes from `file` in `crate_name`, or
    /// `None`. A receiver that still maps to several classes after the
    /// same-file/same-crate narrowing is *ambiguous*: it contributes no
    /// edges and no held entry (`ambiguous` is bumped so the report
    /// shows how much was skipped). Taking the cross-product instead
    /// manufactures cycles out of unrelated locks that merely share a
    /// binding name — two `rx` fields in different structs must not
    /// become an ordering between their classes.
    fn class(&self, receiver: &str, file: &str, crate_name: &str, ambiguous: &mut usize) -> Option<String> {
        for map in [&self.by_binding, &self.by_type] {
            let Some(cands) = map.get(receiver) else {
                continue;
            };
            let same_file: BTreeSet<&str> = cands
                .iter()
                .filter(|(f, _, _)| *f == file)
                .map(|(_, _, c)| *c)
                .collect();
            let same_crate: BTreeSet<&str> = cands
                .iter()
                .filter(|(_, cr, _)| *cr == crate_name)
                .map(|(_, _, c)| *c)
                .collect();
            let all: BTreeSet<&str> = cands.iter().map(|(_, _, c)| *c).collect();
            let narrowed = if !same_file.is_empty() {
                same_file
            } else if !same_crate.is_empty() {
                same_crate
            } else {
                all
            };
            if narrowed.len() == 1 {
                return narrowed.into_iter().next().map(String::from);
            }
            *ambiguous += 1;
            return None;
        }
        None
    }
}

/// Call resolution for lock propagation. Much stricter than the flow
/// passes: a spurious edge here doesn't just lengthen a witness path,
/// it can close a spurious cycle and fail the build. Method calls
/// propagate only when exactly one same-file candidate exists (keeps
/// `self.transmit()`-style intra-type chains); bare calls only with
/// exactly one same-module candidate; fully-qualified path calls
/// (`pool::submit`, `Queue::get`) keep the normal resolution. Edges
/// lost to this strictness show up as `dynamic_only` in the
/// cross-check — reported, not silent.
fn lock_resolve(g: &CallGraph, caller: usize, callee: &Callee, args: Option<usize>) -> Vec<usize> {
    let targets = g.resolve_with_args(caller, callee, args);
    match callee {
        Callee::Method(_) => {
            let me = &g.fns[caller];
            let same_file: Vec<usize> = targets
                .into_iter()
                .filter(|&t| g.fns[t].file == me.file)
                .collect();
            if same_file.len() == 1 { same_file } else { Vec::new() }
        }
        Callee::Bare(_) => {
            let me = &g.fns[caller];
            let same_module: Vec<usize> = targets
                .into_iter()
                .filter(|&t| {
                    g.fns[t].crate_name == me.crate_name && g.fns[t].module == me.module
                })
                .collect();
            if same_module.len() == 1 { same_module } else { Vec::new() }
        }
        _ => targets,
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
    let resolver = ClassResolver::new(g);
    let n = g.fns.len();
    let mut ambiguous = 0usize;

    // Transitive acquire sets: classes a call to fn `i` may take,
    // directly or through callees, as a fixpoint.
    let mut acq: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (i, f) in g.fns.iter().enumerate() {
        for ev in &f.body {
            if let BodyEvent::Acquire { receiver, op, .. } = ev {
                if *op == AcqOp::TryLock {
                    continue; // edge-free, matching runtime lockdep
                }
                if let Some(c) = resolver.class(receiver, &f.file, &f.crate_name, &mut ambiguous) {
                    acq[i].insert(c);
                }
            }
        }
    }
    // Pre-resolve lock-relevant call targets once.
    let callee_targets: Vec<Vec<Vec<usize>>> = g
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            f.calls()
                .map(|c| {
                    if matches!(c.callee, Callee::Macro(_)) {
                        Vec::new()
                    } else {
                        lock_resolve(g, i, &c.callee, c.args)
                    }
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut add: Vec<String> = Vec::new();
            for targets in &callee_targets[i] {
                for &t in targets {
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
        let mut call_idx = 0usize;
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
                BodyEvent::Acquire { receiver, op, line, guard, depth } => {
                    // Ambiguity was already tallied in the seeding pass.
                    let mut scratch = 0usize;
                    let class = resolver.class(receiver, &f.file, &f.crate_name, &mut scratch);
                    if let Some(class) = class {
                        if *op != AcqOp::TryLock {
                            let to: BTreeSet<String> = [class.clone()].into_iter().collect();
                            record(&held, &to, *line);
                        }
                        held.push(Held {
                            classes: vec![class],
                            guard: guard.clone(),
                            depth: *depth,
                        });
                    }
                }
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
                    let targets = &callee_targets[i][call_idx];
                    call_idx += 1;
                    if held.is_empty() {
                        continue;
                    }
                    let mut to: BTreeSet<String> = BTreeSet::new();
                    for &t in targets {
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
        ambiguous,
        observed_classes: obs_classes.len(),
        cross_checked,
    }
}

/// Tarjan SCC over the class graph; any component with more than one
/// class — or a self-loop — is a cycle.
fn find_cycles(edges: &[StaticEdge]) -> Vec<Vec<String>> {
    fn id<'a>(ids: &mut BTreeMap<&'a str, usize>, names: &mut Vec<&'a str>, n: &'a str) -> usize {
        if let Some(&i) = ids.get(n) {
            return i;
        }
        names.push(n);
        ids.insert(n, names.len() - 1);
        names.len() - 1
    }
    let mut ids: BTreeMap<&str, usize> = BTreeMap::new();
    let mut names: Vec<&str> = Vec::new();
    let mut adj: Vec<Vec<usize>> = Vec::new();
    for e in edges {
        let a = id(&mut ids, &mut names, e.from.as_str());
        let b = id(&mut ids, &mut names, e.to.as_str());
        adj.resize(names.len(), Vec::new());
        adj[a].push(b);
    }
    adj.resize(names.len(), Vec::new());

    // Iterative Tarjan.
    let n = names.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<String>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, next-child position)
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, ci)) = work.last() {
            if ci == 0 && index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ci) {
                if let Some(top) = work.last_mut() {
                    top.1 += 1;
                }
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(names[w].to_string());
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = comp.len() == 1 && adj[ids[comp[0].as_str()]].contains(&ids[comp[0].as_str()]);
                    if comp.len() > 1 || self_loop {
                        comp.sort();
                        out.push(comp);
                    }
                }
            }
        }
    }
    out.sort();
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

    #[test]
    fn same_binding_name_prefers_same_file() {
        // Two crates both call their lock field `state`; each crate's
        // acquisitions must map to its own class.
        let pool = "struct Shard { state: Mutex<u8> }\n\
            impl Shard {\n    fn work(&self) { let st = self.state.lock(); }\n}\n\
            fn mk() -> Shard { Shard { state: Mutex::named(0, \"support.pool.shard\") } }\n";
        let wheel = "struct Wheel { state: Mutex<u8>, aux: Mutex<u8> }\n\
            impl Wheel {\n    fn arm(&self) {\n        let st = self.state.lock();\n        let ax = self.aux.lock();\n    }\n}\n\
            fn mk() -> Wheel { Wheel { state: Mutex::named(0, \"support.wheel\"), aux: Mutex::named(0, \"support.wheel.aux\") } }\n";
        let g = graph_of(&[("support/src/pool.rs", pool), ("support/src/wheel.rs", wheel)]);
        let r = analyze(&g, None);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "support.wheel");
        assert_eq!(r.edges[0].to, "support.wheel.aux");
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
