//! Runtime lock-order checking ("lockdep"), debug builds only.
//!
//! The streams kernel is a chain of modules whose `put` routines call
//! the next module while their own state is locked — exactly the shape
//! where lock-order inversions hide: thread 1 takes queue A then queue
//! B, thread 2 takes B then A, and the system deadlocks only under the
//! right interleaving. This module catches the *order* violation on any
//! run, even one that never interleaves badly enough to deadlock.
//!
//! How it works, mirroring the Linux kernel's lockdep at toy scale:
//!
//! - Every [`sync::Mutex`](crate::sync::Mutex) built with `named()`
//!   belongs to a **class**, keyed by the construction-site name (many
//!   instances — every stream queue, say — share one class). Classes
//!   are assigned lazily on first acquisition.
//! - Each thread keeps a stack of the classes it currently holds.
//! - A blocking acquisition of class `c` while holding `h` records the
//!   edge `h → c` in a global acquisition-order graph. Each edge keeps
//!   the backtrace and held-stack of the first time it was seen.
//! - If the reverse path `c → … → h` already exists, the new edge would
//!   close a cycle — a lock-order inversion. We panic immediately with
//!   both orders' lock names and both acquisition backtraces, instead
//!   of deadlocking some unlucky future run.
//!
//! Deliberate non-reports:
//!
//! - **Self edges** (`c` while holding `c`) are skipped: two *instances*
//!   of one class are routinely nested (queue A feeding queue B), and
//!   the class graph cannot tell instances apart.
//! - **`try_lock`** pushes the held stack but records no edge: a
//!   non-blocking acquisition cannot be the waiting half of a deadlock.
//! - **Unnamed locks** (plain `new()`) have no class and take no part
//!   in the order graph; name a lock to put it under surveillance. Their
//!   acquisitions are still counted, by the source line that locks
//!   ([`site_counts`]), so a count of every lock a path takes misses
//!   none.
//!
//! The whole module — graph, held stacks, per-lock class fields — is
//! compiled only under `debug_assertions`. Release builds carry zero
//! bytes and zero instructions of it, the same off-path guarantee
//! nettrace makes.

use std::backtrace::Backtrace;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Index of a lock class in the global registry.
pub type ClassId = u32;

/// The per-lock handle: a construction-site name plus the lazily
/// assigned class id (0 = not yet registered). Embedded in every named
/// `sync::Mutex`; absent entirely in release builds.
pub struct LockClass {
    name: &'static str,
    id: AtomicU32,
}

impl LockClass {
    /// A class handle for `name`; registration happens on first use.
    pub const fn new(name: &'static str) -> LockClass {
        LockClass {
            name,
            id: AtomicU32::new(0),
        }
    }

    /// The class id, registering the name on first call.
    pub fn id(&self) -> ClassId {
        match self.id.load(Ordering::Relaxed) {
            0 => {
                let id = register(self.name);
                self.id.store(id, Ordering::Relaxed);
                id
            }
            id => id,
        }
    }
}

/// What we remember about the first acquisition that created an edge.
struct EdgeSite {
    thread: String,
    held_names: Vec<&'static str>,
    backtrace: String,
}

#[derive(Default)]
struct Graph {
    /// Class names, indexed by `ClassId - 1`.
    names: Vec<&'static str>,
    by_name: HashMap<&'static str, ClassId>,
    /// Blocking acquisitions per class, indexed by `ClassId - 1`. A
    /// zero after a full run marks a dead class — named but never
    /// locked — which checkflow reports.
    acquires: Vec<u64>,
    /// `from → to` acquisition-order edges with their first sighting.
    edges: HashMap<(ClassId, ClassId), EdgeSite>,
    /// Adjacency lists over the same edges, for reachability walks.
    adj: HashMap<ClassId, Vec<ClassId>>,
    /// Acquisitions of unnamed locks, by the line that locks.
    sites: HashMap<&'static Location<'static>, u64>,
}

impl Graph {
    fn name(&self, c: ClassId) -> &'static str {
        self.names[(c - 1) as usize]
    }

    /// A path `from → … → to` over recorded edges, if one exists.
    fn path(&self, from: ClassId, to: ClassId) -> Option<Vec<ClassId>> {
        let mut parent: HashMap<ClassId, ClassId> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                let mut path = vec![to];
                let mut at = to;
                while at != from {
                    at = parent[&at];
                    path.push(at);
                }
                path.reverse();
                return Some(path);
            }
            for &next in self.adj.get(&n).map_or(&[][..], |v| v) {
                parent.entry(next).or_insert_with(|| {
                    queue.push_back(next);
                    n
                });
            }
        }
        None
    }
}

static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();

fn graph() -> std::sync::MutexGuard<'static, Graph> {
    GRAPH
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<ClassId>> = const { RefCell::new(Vec::new()) };
}

fn register(name: &'static str) -> ClassId {
    let mut g = graph();
    if let Some(&id) = g.by_name.get(name) {
        return id;
    }
    g.names.push(name);
    g.acquires.push(0);
    let id = g.names.len() as ClassId;
    g.by_name.insert(name, id);
    id
}

/// Records a blocking acquisition of `c`: adds order edges from every
/// held class and panics if one would close a cycle. Call *before*
/// blocking on the underlying lock.
pub fn acquire(c: ClassId) {
    graph().acquires[(c - 1) as usize] += 1;
    let held: Vec<ClassId> = HELD.with(|h| h.borrow().clone());
    for &h in &held {
        if h == c {
            continue; // instances of one class may nest
        }
        let mut g = graph();
        if g.edges.contains_key(&(h, c)) {
            continue;
        }
        if let Some(path) = g.path(c, h) {
            let cycle: Vec<&str> = path.iter().map(|&n| g.name(n)).collect();
            let first_leg = g
                .edges
                .get(&(path[0], path[1]))
                .map(|e| {
                    format!(
                        "the \"{}\" -> \"{}\" order was established on thread {:?} \
                         (held: [{}]) at:\n{}",
                        g.name(path[0]),
                        g.name(path[1]),
                        e.thread,
                        e.held_names.join(", "),
                        e.backtrace
                    )
                })
                .unwrap_or_default();
            let msg = format!(
                "lockdep: lock-order inversion: acquiring \"{now}\" while holding \"{held}\", \
                 but the opposite order {cycle:?} already exists.\n{first_leg}\n\
                 this acquisition of \"{now}\" on thread {thread:?} at:\n{bt}",
                now = g.name(c),
                held = g.name(h),
                cycle = cycle,
                first_leg = first_leg,
                thread = std::thread::current().name().unwrap_or("<unnamed>"),
                bt = Backtrace::force_capture(),
            );
            drop(g);
            // checked: deliberate abort — a lock-order cycle means deadlock is possible
            panic!("{msg}");
        }
        let site = EdgeSite {
            thread: std::thread::current()
                .name()
                .unwrap_or("<unnamed>")
                .to_string(),
            held_names: held.iter().map(|&n| g.name(n)).collect(),
            backtrace: Backtrace::force_capture().to_string(),
        };
        g.edges.insert((h, c), site);
        g.adj.entry(h).or_default().push(c);
    }
    HELD.with(|s| s.borrow_mut().push(c));
}

/// Records a successful `try_lock` of `c`: the class is now held, but a
/// non-blocking acquisition records no order edge (it cannot be the
/// waiting half of a deadlock).
pub fn acquire_try(c: ClassId) {
    graph().acquires[(c - 1) as usize] += 1;
    HELD.with(|s| s.borrow_mut().push(c));
}

/// Records an acquisition of an unnamed lock at `site`.
pub fn acquire_site(site: &'static Location<'static>) {
    *graph().sites.entry(site).or_default() += 1;
}

/// Acquisitions of unnamed locks so far, as `(file:line, count)` sorted
/// by site.
pub fn site_counts() -> Vec<(String, u64)> {
    let mut sites: Vec<(String, u64)> =
        graph().sites.iter().map(|(l, &n)| (format!("{}:{}", l.file(), l.line()), n)).collect();
    sites.sort_unstable();
    sites
}

/// Records the release of `c` (guard drop, or a condvar wait parking
/// the lock).
pub fn release(c: ClassId) {
    HELD.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|&h| h == c) {
            s.remove(pos);
        }
    });
}

/// The class names this thread currently holds, innermost last. Test
/// and diagnostic aid.
pub fn held_names() -> Vec<&'static str> {
    let held: Vec<ClassId> = HELD.with(|h| h.borrow().clone());
    let g = graph();
    held.iter().map(|&c| g.name(c)).collect()
}

/// Renders the whole runtime graph in the `/net/log/lockgraph` format
/// checkflow's lock-order cross-check parses:
///
/// ```text
/// class <name> acquires=<n>
/// edge <from> -> <to> thread=<t>
/// ```
///
/// Classes sort by name and edges by (from, to), so two dumps of the
/// same history are byte-identical.
pub fn graph_dump() -> String {
    let g = graph();
    let mut out = String::new();
    let mut classes: Vec<(&str, u64)> = g
        .names
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, g.acquires[i]))
        .collect();
    classes.sort_unstable();
    for (name, n) in classes {
        out.push_str(&format!("class {name} acquires={n}\n"));
    }
    let mut edges: Vec<(&str, &str, &str)> = g
        .edges
        .iter()
        .map(|(&(from, to), site)| (g.name(from), g.name(to), site.thread.as_str()))
        .collect();
    edges.sort_unstable();
    for (from, to, thread) in edges {
        out.push_str(&format!("edge {from} -> {to} thread={thread}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Class names here are unique to this module so the shared global
    // graph never couples these tests to the rest of the suite.

    #[test]
    fn classes_dedup_by_name() {
        let a = LockClass::new("lockdep.unit.dedup");
        let b = LockClass::new("lockdep.unit.dedup");
        assert_eq!(a.id(), b.id());
        let c = LockClass::new("lockdep.unit.other");
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn held_stack_balances() {
        let a = LockClass::new("lockdep.unit.h1").id();
        let b = LockClass::new("lockdep.unit.h2").id();
        acquire(a);
        acquire(b);
        assert_eq!(held_names(), vec!["lockdep.unit.h1", "lockdep.unit.h2"]);
        release(b);
        release(a);
        assert!(held_names().is_empty());
    }

    #[test]
    fn consistent_order_is_silent() {
        let a = LockClass::new("lockdep.unit.c1").id();
        let b = LockClass::new("lockdep.unit.c2").id();
        for _ in 0..3 {
            acquire(a);
            acquire(b);
            release(b);
            release(a);
        }
    }

    #[test]
    fn same_class_nesting_is_silent() {
        let a = LockClass::new("lockdep.unit.self").id();
        acquire(a);
        acquire(a); // two instances of one class, e.g. queue -> queue
        release(a);
        release(a);
    }

    #[test]
    fn inversion_panics_with_both_names() {
        let a = LockClass::new("lockdep.unit.invA").id();
        let b = LockClass::new("lockdep.unit.invB").id();
        acquire(a);
        acquire(b); // records invA -> invB
        release(b);
        release(a);
        let err = std::panic::catch_unwind(|| {
            acquire(b);
            acquire(a); // invB -> invA closes the cycle
        })
        .expect_err("inversion must panic");
        // catch_unwind left b (and possibly a) on this thread's stack.
        release(a);
        release(b);
        let msg = err
            .downcast_ref::<String>()
            .expect("lockdep panics with a String payload");
        assert!(msg.contains("lockdep.unit.invA"), "{msg}");
        assert!(msg.contains("lockdep.unit.invB"), "{msg}");
        assert!(msg.contains("lock-order inversion"), "{msg}");
    }

    #[test]
    fn transitive_inversion_detected() {
        let a = LockClass::new("lockdep.unit.t1").id();
        let b = LockClass::new("lockdep.unit.t2").id();
        let c = LockClass::new("lockdep.unit.t3").id();
        acquire(a);
        acquire(b);
        release(b);
        release(a);
        acquire(b);
        acquire(c);
        release(c);
        release(b);
        let err = std::panic::catch_unwind(|| {
            acquire(c);
            acquire(a); // t1 -> t2 -> t3 -> t1
        })
        .expect_err("transitive inversion must panic");
        release(a);
        release(c);
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("lockdep.unit.t1"), "{msg}");
        assert!(msg.contains("lockdep.unit.t3"), "{msg}");
    }

    #[test]
    fn try_acquire_records_no_edge_but_holds() {
        let a = LockClass::new("lockdep.unit.try1").id();
        let b = LockClass::new("lockdep.unit.try2").id();
        // By name: the graph is the process's, and the tests beside
        // this one add edges of their own.
        let edges = |to: &str| graph_dump().matches(&format!("-> lockdep.unit.{to} ")).count();
        acquire(b);
        release(b);
        acquire_try(a);
        assert_eq!(held_names(), vec!["lockdep.unit.try1"]);
        acquire_try(b);
        release(b);
        assert_eq!((edges("try1"), edges("try2")), (0, 0));
        // A blocking acquire under a try-held lock still records.
        acquire(b);
        assert_eq!(edges("try2"), 1);
        release(b);
        release(a);
    }
}
