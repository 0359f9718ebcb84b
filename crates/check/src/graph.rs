//! The checkflow front end: an approximate whole-workspace call graph,
//! resolved by the types the source declares.
//!
//! The flow passes ask "can this closure, transitively, reach a
//! blocking primitive", which takes a call graph. This module parses
//! every `crates/*/src/**/*.rs` file into function nodes and call
//! edges with no dependencies and no type checker, reading only the
//! types the source writes down. It lexes nothing itself: it walks the
//! tokens [`SourceFile::new`] made, the ones the line rules read, from
//! which the test-only items are gone (test code may block and panic at
//! will).
//!
//! - **Items**: `fn` items with their crate, module path (file path +
//!   inline `mod`), enclosing `impl`/`trait`, parameters and return
//!   type; `struct` fields, `enum`s, `trait`s and `static`s.
//! - **Receivers**: a method call's receiver is kept as the chain the
//!   source writes (`self.station`, `conn.inner.lock()`) and typed once
//!   every file is in: `self` is the impl type; a local is its
//!   parameter's type, its `let x: T`, or its initializer's
//!   (`T::new(..)`, `T { .. }`, looking through `&`, `Arc`, `Box` and
//!   `Weak`), or what the value it is bound from holds (`Some(x) = e`,
//!   `for x in e`, `(a, b) = e`, `e.map(|x| ..)`); a field is its
//!   declared type, a call its return type, a `Mutex<T>` guard stands
//!   for its `T`, and a `std` method hands back what it
//!   does (`get` an `Option` of the element, `iter` its elements, …).
//! - **Calls**: `.m(..)` on a receiver of known type `T` goes to `T`'s
//!   own `m`, to every impl's `m` (and the trait's default body) when
//!   `T` is a trait object, and to nothing when `T` is no workspace type
//!   (`HashMap`, `Vec`, `Option`, a generic parameter, …). Only a
//!   receiver the parser cannot type fans out to every workspace method
//!   named `m`. Every candidate lies in a crate the caller's depends on,
//!   but for a call through a generic parameter bounded by a trait,
//!   which reaches the trait's impls in whatever crate they lie.
//!   `path::to::f(..)` resolves against module-path and impl-type
//!   suffixes; bare `f(..)` same-module, then same-crate, then
//!   workspace-wide. Macro calls are kept (for panic sinks) but never
//!   resolved.
//! - **Closures** are attributed to their enclosing item, *except* the
//!   closure argument of a non-blocking-context registration —
//!   `pool::submit`, `pool::submit_or_run`, `wheel::schedule` (or
//!   `wheel::rearm`, whose closure makes the one it passes to it), `.set_rx_handler(..)`
//!   and `.set_rx_tap(..)` — which becomes its own synthetic root node
//!   so the flow passes can start exactly at the code that runs on a
//!   shard, wheel, or rx path; a `vtime::kproc` body is a node of its
//!   own too, code on a thread of its own.
//! - **Locks**: a `Mutex::named(_, "c")` initializing field `f` in
//!   `T { f: .. }` (or `Self { .. }`, or a `static`) names the class of
//!   `T`'s `f`, and each `.lock()`/`.try_lock()` keeps its receiver,
//!   so `lockgraph` rebuilds the acquired-while-held graph by the same
//!   types. A generic `T<C>` whose class is `C::NAME` has one class an
//!   instantiation: each `const NAME: &str = "c"` names one, and an
//!   acquisition of its field holds them all.
//!
//! Escape hatches ride on comments: a call site on a line annotated
//! `// blocking-ok: <reason>` is exempt from the blocking-context pass,
//! and `// checked: <reason>` exempts a panic sink from panic-reach. An
//! annotation in the comment block directly above a line blesses it
//! (`SourceFile::ann_at`, the one waiver parser for every rule).

use crate::{transitive, LineAnn, SourceFile, Tok, Token, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

// ---------------------------------------------------------------------------
// Graph data model.

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// `f(..)` — unqualified.
    Bare(String),
    /// `a::b::f(..)` — the full segment list, including the final name.
    Path(Vec<String>),
    /// `.m(..)` — a method call.
    Method(String),
    /// `m!(..)` — a macro invocation (never resolved; panic sinks only).
    Macro(String),
}

impl Callee {
    /// The called name (last path segment / method / macro name).
    pub fn name(&self) -> &str {
        match self {
            Callee::Bare(n) | Callee::Method(n) | Callee::Macro(n) => n,
            Callee::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
        }
    }
}

/// A type as the source spells it: the last segment of its path and
/// its generic arguments, with references, lifetimes, `dyn` and `impl`
/// dropped (`&'a dyn ProcFs` is `ProcFs`). `_` is a type the parser
/// could not read.
#[derive(Debug, Clone, PartialEq)]
pub struct Ty {
    pub name: String,
    pub args: Vec<Ty>,
}

impl Ty {
    fn named(name: &str) -> Ty {
        Ty { name: name.to_string(), args: Vec::new() }
    }
}

/// `ty` with each generic parameter of `bounds` read as its bound.
fn bounded(ty: Ty, bounds: &[(String, String)]) -> Ty {
    let name = bounds.iter().find(|(p, _)| *p == ty.name).map_or(ty.name, |(_, t)| t.clone());
    Ty { name, args: ty.args.into_iter().map(|a| bounded(a, bounds)).collect() }
}

/// The pointers and guards a method call looks through to the type it
/// lands on.
const WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "Weak", "MutexGuard", "Ref", "RefMut"];

/// A receiver as the source writes it, kept unevaluated until every
/// file's declarations are in: `self.station` is
/// `Field(Ty(IpStack), "station")`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Nothing the parser can type: an untyped closure parameter, a
    /// tuple, the value of an `if`.
    Unknown,
    /// A declared type: `self`, a parameter, `let x: T`, `T { .. }`.
    Ty(Ty),
    /// A `static` or `const`, by name.
    Global(String),
    Field(Box<Expr>, String),
    /// The value of `.m(..)` on the base.
    Method(Box<Expr>, String),
    /// The value of a path or bare call: its callee's return type.
    Call(Callee),
    /// What the base holds: `e?`, `e[i]`, `Some(x) = e`, `for x in e`.
    Inner(Box<Expr>),
    /// `(a, b)`.
    Tuple(Vec<Expr>),
    /// The `n`th element of a tuple.
    Nth(Box<Expr>, usize),
}

/// A lock-related operation at a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqOp {
    Lock,
    /// `try_lock` — held for scope purposes, but never an order edge
    /// (matching runtime lockdep).
    TryLock,
}

/// Events inside one function body, in source order. The flow passes
/// read only `Call`; the lock-order pass replays the full sequence.
#[derive(Debug, Clone)]
pub enum BodyEvent {
    Call(CallSite),
    /// `recv.lock()` etc.
    Acquire {
        recv: Expr,
        op: AcqOp,
        line: usize,
        /// `let g = …` binding name, when the guard is named.
        guard: Option<String>,
        /// Brace depth the binding lives at (guard dies when the walk
        /// closes back below it). Statement-temporary guards die at the
        /// next `EndStmt`.
        depth: usize,
        /// The lockdep classes of the field `recv` names, once indexed:
        /// one, or each instantiation's of a generic type's.
        classes: Vec<String>,
    },
    /// `drop(g)` of a named guard.
    DropGuard {
        name: String,
        line: usize,
    },
    /// A `}` closed; `depth` is the brace depth after closing.
    CloseBlock {
        depth: usize,
    },
    /// A `;` at statement level: temporaries die here.
    EndStmt,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: Callee,
    /// A method call's receiver.
    pub recv: Option<Expr>,
    pub line: usize,
    /// Empty-argument call (`h.join()`), used to tell thread joins from
    /// `Path::join("…")`.
    pub zero_args: bool,
    /// `// blocking-ok: <reason>` on this line or the comment block above.
    pub blocking_ok: Option<String>,
    /// `// checked: <reason>` on this line or the comment block above.
    pub checked: bool,
    /// The nodes the call may reach, once indexed.
    pub targets: Vec<usize>,
    /// `targets` is every method so named: the receiver's type was not
    /// inferred.
    pub by_name: bool,
}

/// Which non-blocking execution context a synthetic root node models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// A closure submitted to `pool::submit`/`submit_or_run`.
    PoolJob,
    /// A `wheel::schedule` deadline callback.
    WheelCallback,
    /// An ether `set_rx_handler` frame handler.
    RxHandler,
    /// The body of a `vtime::kproc`: a thread of its own, which may
    /// block. A root only in that it runs elsewhere: the locks its
    /// spawner holds are not held around it.
    Kproc,
}

impl RootKind {
    pub fn label(self) -> &'static str {
        match self {
            RootKind::PoolJob => "pool-job",
            RootKind::WheelCallback => "wheel-callback",
            RootKind::RxHandler => "rx-handler",
            RootKind::Kproc => "kproc",
        }
    }
}

/// A function (or synthetic root-closure) node.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub crate_name: String,
    /// Module path within the crate, file-derived plus inline `mod`s.
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type, when inside one.
    pub impl_ty: Option<Ty>,
    /// The trait of the enclosing `impl Trait for` or `trait` block.
    pub impl_trait: Option<String>,
    /// Item name; synthetic roots are named `{closure}`.
    pub name: String,
    pub file: String,
    pub line: usize,
    pub has_self: bool,
    /// Declared return type.
    pub ret: Option<Ty>,
    /// `Some` iff this is a synthetic root-closure node.
    pub root: Option<RootKind>,
    /// The traits its generic parameters are bounded by.
    pub bounds: Vec<String>,
    pub body: Vec<BodyEvent>,
    /// `impl_ty` and `impl_trait` as workspace types, once indexed.
    self_ids: Vec<usize>,
    trait_ids: Vec<usize>,
}

impl FnNode {
    /// A human-readable handle: `crate::module::Type::name`.
    pub fn qualified(&self) -> String {
        let mut parts = vec![self.crate_name.clone()];
        parts.extend(self.module.iter().cloned());
        if let Some(t) = &self.impl_ty {
            parts.push(t.name.clone());
        }
        parts.push(self.name.clone());
        parts.join("::")
    }

    pub fn calls(&self) -> impl Iterator<Item = &CallSite> {
        self.body.iter().filter_map(|e| match e {
            BodyEvent::Call(c) => Some(c),
            _ => None,
        })
    }
}

/// A `Mutex::named` construction site: the class of
/// field `field` of `owner`, or of the `static` named `field`.
#[derive(Debug, Clone)]
pub struct NamedClassSite {
    /// The lockdep class string.
    pub class: String,
    /// Named by a type parameter's const: one of the field's classes,
    /// each another instantiation's.
    pub generic: bool,
    /// `T` of the struct literal `T { field: Mutex::named(..) }`;
    /// `None` for a `static field: Mutex<_> = Mutex::named(..)`.
    pub owner: Option<String>,
    pub field: String,
    pub crate_name: String,
    pub module: Vec<String>,
    pub file: String,
    pub line: usize,
}

/// A `struct`, `enum` or `trait` the workspace declares.
#[derive(Debug)]
struct TypeDef {
    name: String,
    crate_name: String,
    module: Vec<String>,
    fields: Vec<(String, Ty)>,
    is_trait: bool,
}

/// A `static`/`const` item, with the scope its type is written in.
#[derive(Debug)]
struct Decl {
    name: String,
    ty: Ty,
    crate_name: String,
    module: Vec<String>,
}

/// A type resolved to the workspace definitions its name may denote
/// (`ids` is empty for `std`'s and for generic parameters).
#[derive(Debug, Clone)]
pub struct RTy {
    name: String,
    ids: Vec<usize>,
    args: Vec<RTy>,
}

impl RTy {
    fn std(name: &str, args: Vec<RTy>) -> RTy {
        RTy { name: name.to_string(), ids: Vec::new(), args }
    }

    /// What a `std` container holds: a map's value, an `Option`'s,
    /// `Result`'s, `Vec`'s or iterator's first argument.
    fn inner(&self) -> Option<RTy> {
        match (self.ids.is_empty(), self.args.is_empty()) {
            (false, _) => None,
            // What a `str` splits into is `std`'s too.
            (true, true) => Some(RTy::std("std", Vec::new())).filter(|_| self.name != "_"),
            (true, false) if self.name.ends_with("Map") => self.args.last().cloned(),
            (true, false) => self.args.first().cloned(),
        }
    }
}

/// The workspace call graph plus the lock-class table.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    pub classes: Vec<NamedClassSite>,
    /// Sites whose class is a type parameter's const (`C::CLASS`), the
    /// const's name as their class, until `index` reads the consts.
    const_classes: Vec<NamedClassSite>,
    /// `const NAME: &str = "value"` items.
    str_consts: Vec<(String, String)>,
    types: Vec<TypeDef>,
    globals: Vec<Decl>,
    by_name: BTreeMap<String, Vec<usize>>,
    types_by_name: BTreeMap<String, Vec<usize>>,
    /// Call sites that resolved to at least one node.
    pub resolved_calls: usize,
    /// Call sites naming something outside the workspace (std, field
    /// inits that look like calls, …).
    pub unresolved_calls: usize,
    /// Method call sites whose receiver's type was inferred, and so
    /// resolved by it rather than by name.
    pub typed_calls: usize,
    /// Acquisitions of a field some lock class is named for, on a
    /// receiver whose type was not inferred: they contribute nothing.
    pub ambiguous_receivers: usize,
    /// crate → transitive workspace dependencies (not including the
    /// crate itself), from Cargo.toml: a call in `support` can never
    /// land in `streams`, whatever the name says. An absent entry
    /// (unit-test graphs built via [`scan_file`]) disables the filter.
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

/// Of `cands`, those in `module` of `krate` if any, else those in
/// `krate` if any, else all: how a name resolves without its `use`s.
fn nearest<'a>(
    cands: Vec<usize>,
    krate: &str,
    module: &[String],
    at: impl Fn(usize) -> (&'a str, &'a [String]),
) -> Vec<usize> {
    let here: Vec<usize> = cands.iter().copied().filter(|&i| at(i) == (krate, module)).collect();
    let same: Vec<usize> = cands.iter().copied().filter(|&i| at(i).0 == krate).collect();
    [here, same].into_iter().find(|c| !c.is_empty()).unwrap_or(cands)
}

impl CallGraph {
    /// Whether the build DAG lets crate `from` name crate `to`.
    fn sees(&self, from: &str, to: &str) -> bool {
        from == to || self.deps.get(from).is_none_or(|d| d.contains(to))
    }

    fn may_call(&self, caller: usize, target: usize) -> bool {
        self.sees(&self.fns[caller].crate_name, &self.fns[target].crate_name)
    }

    /// The workspace types `name` may denote where `krate::module`
    /// writes it.
    fn type_ids(&self, name: &str, krate: &str, module: &[String]) -> Vec<usize> {
        let cands = self.types_by_name.get(name).into_iter().flatten();
        let cands = cands.copied().filter(|&t| self.sees(krate, &self.types[t].crate_name)).collect();
        nearest(cands, krate, module, |t| (self.types[t].crate_name.as_str(), self.types[t].module.as_slice()))
    }

    /// Resolves a written type in its scope, looking through
    /// [`WRAPPERS`]. A generic parameter is no workspace type.
    fn resolve_ty(&self, ty: &Ty, krate: &str, module: &[String]) -> RTy {
        let ids = self.type_ids(&ty.name, krate, module);
        let args = ty.args.iter().map(|a| self.resolve_ty(a, krate, module)).collect();
        let mut t = RTy { name: ty.name.clone(), ids, args };
        while WRAPPERS.contains(&t.name.as_str()) && !t.args.is_empty() {
            t = t.args.swap_remove(0);
        }
        t
    }

    /// The type of `e` as written in node `at`, or `None` when it
    /// cannot be inferred.
    pub fn ty_of(&self, e: &Expr, at: usize) -> Option<RTy> {
        let f = &self.fns[at];
        let t = match e {
            Expr::Unknown => return None,
            Expr::Ty(ty) => self.resolve_ty(ty, &f.crate_name, &f.module),
            Expr::Global(name) => {
                let cands = (0..self.globals.len()).filter(|&g| {
                    self.globals[g].name == *name && self.sees(&f.crate_name, &self.globals[g].crate_name)
                });
                let g = &self.globals[*nearest(cands.collect(), &f.crate_name, &f.module, |g| {
                    (self.globals[g].crate_name.as_str(), self.globals[g].module.as_slice())
                })
                .first()?];
                self.resolve_ty(&g.ty, &g.crate_name, &g.module)
            }
            Expr::Field(base, name) => {
                let b = self.ty_of(base, at)?;
                b.ids.iter().find_map(|&id| {
                    let d = &self.types[id];
                    let (_, ty) = d.fields.iter().find(|(n, _)| n == name)?;
                    Some(self.resolve_ty(ty, &d.crate_name, &d.module))
                })?
            }
            Expr::Method(base, m) => self.method_value(at, self.ty_of(base, at)?, m)?,
            Expr::Call(c) => match (self.resolve_path(at, c).as_slice(), c) {
                // `std::thread::current()` returns a `std` type,
                // `Vec::new()` a `Vec`, `IlIo(c)` an `IlIo`.
                ([], Callee::Path(segs)) if ["std", "core", "alloc"].contains(&segs[0].as_str()) => {
                    RTy::std("std", Vec::new())
                }
                ([], Callee::Path(segs)) if upper(&segs[segs.len() - 2]) => {
                    self.resolve_ty(&Ty::named(&segs[segs.len() - 2]), &f.crate_name, &f.module)
                }
                // A tuple struct's constructor.
                ([], Callee::Bare(name)) if upper(name) => self.resolve_ty(&Ty::named(name), &f.crate_name, &f.module),
                (targets, _) => self.ret_of(targets)?,
            },
            Expr::Inner(base) => self.ty_of(base, at)?.inner()?,
            Expr::Tuple(es) => {
                let unknown = || RTy::std("_", Vec::new());
                RTy::std("()", es.iter().map(|e| self.ty_of(e, at).unwrap_or_else(unknown)).collect())
            }
            Expr::Nth(base, n) => Some(self.ty_of(base, at)?).filter(|t| t.name == "()")?.args.get(*n)?.clone(),
        };
        Some(t).filter(|t| t.name != "_")
    }

    /// The value of `b.m(..)`: a workspace method's return type, a
    /// lock's guard standing for what it guards, or what the `std`
    /// method of that name hands back.
    fn method_value(&self, at: usize, b: RTy, m: &str) -> Option<RTy> {
        if b.name == "Mutex" {
            match m {
                "lock" => return b.args.first().cloned(),
                "try_lock" => return Some(RTy::std("Option", b.args)),
                _ => {}
            }
        }
        let targets = self.methods(at, Some(&b), m);
        if !targets.is_empty() {
            return self.ret_of(&targets);
        }
        match m {
            "clone" | "as_ref" | "as_mut" | "as_deref" | "borrow" | "borrow_mut" | "to_owned" | "cloned" | "copied"
            | "take" | "by_ref" | "ok" | "ok_or" | "ok_or_else" | "map_err" | "rev" | "skip" | "step_by" | "filter"
            | "peekable" | "skip_while" | "take_while" | "chain" | "inspect" => Some(b),
            "enumerate" => {
                Some(RTy::std("Iter", vec![RTy::std("()", vec![RTy::std("usize", Vec::new()), b.inner()?])]))
            }
            "upgrade" => Some(RTy::std("Option", vec![b])),
            "unwrap" | "expect" | "unwrap_or_default" | "unwrap_or" | "unwrap_or_else" | "or_default" | "or_insert"
            | "or_insert_with" => b.inner(),
            "entry" => Some(RTy::std("Entry", vec![b.inner()?])),
            "iter" | "iter_mut" | "into_iter" | "drain" | "values" | "values_mut" => {
                Some(RTy::std("Iter", vec![b.inner()?]))
            }
            // A `str`'s or a number's methods make `std` values, but for
            // the ones that convert or run a closure.
            "parse" | "into" | "try_into" | "map" | "and_then" | "then" | "then_some" | "fold" => None,
            _ if b.ids.is_empty() && b.args.is_empty() => Some(RTy::std("std", Vec::new())),
            "get" | "get_mut" | "remove" | "first" | "last" | "pop" | "pop_front" | "pop_back" | "front" | "back"
            | "next" | "find" | "peek" => Some(RTy::std("Option", vec![b.inner()?])),
            _ => None,
        }
    }

    /// The return type `targets` agree on.
    fn ret_of(&self, targets: &[usize]) -> Option<RTy> {
        let mut out: Option<RTy> = None;
        for &t in targets {
            let f = &self.fns[t];
            let r = self.resolve_ty(f.ret.as_ref()?, &f.crate_name, &f.module);
            match &out {
                Some(o) if o.name != r.name || o.ids != r.ids => return None,
                _ => out = Some(r),
            }
        }
        out.filter(|t| t.name != "_")
    }

    /// The methods named `m` a call from `at` reaches on a receiver of
    /// type `recv`: that type's own, or — for a trait — every impl's and
    /// the trait's default bodies, in the crates `at`'s depends on, and
    /// through a parameter bounded by the trait (`<O: Conv>`) in any
    /// crate: a crate below calls into the impls of the crates above
    /// (`support::step::Shell` into each protocol's). A receiver of
    /// unknown type fans out to every method so named.
    fn methods(&self, at: usize, recv: Option<&RTy>, m: &str) -> Vec<usize> {
        let named = self.by_name.get(m).into_iter().flatten().copied().filter(|&i| self.fns[i].has_self);
        let Some(t) = recv else { return named.filter(|&i| self.may_call(at, i)).collect() };
        let on = |i: usize, id: &usize| match &self.types[*id] {
            ty if ty.is_trait => {
                self.fns[i].trait_ids.contains(id) && (self.may_call(at, i) || self.fns[at].bounds.contains(&ty.name))
            }
            _ => self.fns[i].self_ids.contains(id) && self.may_call(at, i),
        };
        named.filter(|&i| t.ids.iter().any(|id| on(i, id))).collect()
    }

    /// Node indices a path or bare call from `caller` may reach: bare
    /// calls resolve same-module, then same-crate, then workspace; path
    /// calls match module-path or impl-type suffixes. Macros and
    /// methods never resolve here.
    fn resolve_path(&self, caller: usize, call: &Callee) -> Vec<usize> {
        let me = &self.fns[caller];
        match call {
            Callee::Macro(_) | Callee::Method(_) => Vec::new(),
            // `drop(x)` is always `std::mem::drop`: calling a
            // `Drop::drop` impl explicitly is a compile error, so edges
            // into workspace `fn drop`s cannot be real.
            Callee::Bare(name) if name == "drop" => Vec::new(),
            Callee::Bare(name) => {
                let all = self.by_name.get(name).into_iter().flatten().copied().filter(|&i| self.may_call(caller, i));
                nearest(all.collect(), &me.crate_name, &me.module, |i| {
                    (self.fns[i].crate_name.as_str(), self.fns[i].module.as_slice())
                })
            }
            Callee::Path(segs) => {
                let [first, .., name] = segs.as_slice() else { return Vec::new() };
                // `plan9_foo::…` names workspace crate `foo`; `crate`,
                // `self`, `super` qualifiers are softened to
                // same-crate matching.
                let (krate, qual) = match first.as_str() {
                    "std" | "core" | "alloc" => return Vec::new(),
                    "crate" | "self" | "super" => (Some(me.crate_name.as_str()), &segs[1..segs.len() - 1]),
                    q => match q.strip_prefix("plan9_") {
                        Some(c) => (Some(c), &segs[1..segs.len() - 1]),
                        None => (None, &segs[..segs.len() - 1]),
                    },
                };
                let all = self.by_name.get(name).into_iter().flatten().copied();
                all.filter(|&i| {
                    let f = &self.fns[i];
                    // Qualifier must suffix-match the node's module
                    // path, optionally ending on the impl type:
                    // `pool::submit`, `Queue::get`, `arp::ArpCache::learn`.
                    let full = [&f.crate_name].into_iter().chain(&f.module).chain(f.impl_ty.iter().map(|t| &t.name));
                    let full: Vec<&String> = full.collect();
                    self.may_call(caller, i)
                        && krate.is_none_or(|c| f.crate_name == c)
                        && full.ends_with(&qual.iter().collect::<Vec<_>>())
                })
                .collect()
            }
        }
    }

    /// The class a lock receiver denotes: field `f` of a type a class
    /// is named for, or a `static`. `Err` when a class is named for a
    /// field so called but the receiver's type is not known.
    fn class_of(
        &self,
        at: usize,
        recv: &Expr,
        fields: &BTreeMap<(usize, &str), (BTreeSet<&str>, bool)>,
    ) -> Result<Vec<String>, ()> {
        // More than one class for a field is ambiguous, but for a generic
        // type's, which holds them all.
        let one = |s: BTreeSet<&str>, all: bool| match s.len() > 1 && !all {
            true => Err(()),
            false => Ok(s.into_iter().map(String::from).collect()),
        };
        match recv {
            Expr::Field(base, f) => {
                if !self.classes.iter().any(|c| c.owner.is_some() && c.field == *f) {
                    return Ok(Vec::new());
                }
                let b = self.ty_of(base, at).ok_or(())?;
                let sites: Vec<_> = b.ids.iter().filter_map(|&id| fields.get(&(id, f.as_str()))).collect();
                one(sites.iter().flat_map(|(c, _)| c.iter().copied()).collect(), sites.iter().all(|(_, generic)| *generic))
            }
            Expr::Global(name) => {
                let me = &self.fns[at].crate_name;
                let c = self
                    .classes
                    .iter()
                    .filter(|c| c.owner.is_none() && c.field == *name && self.sees(me, &c.crate_name));
                one(c.map(|c| c.class.as_str()).collect(), false)
            }
            _ => Ok(Vec::new()),
        }
    }

    /// All synthetic root nodes.
    pub fn roots(&self) -> impl Iterator<Item = (usize, &FnNode)> {
        self.fns.iter().enumerate().filter(|(_, f)| f.root.is_some_and(|r| r != RootKind::Kproc))
    }

    /// Total call sites across all nodes.
    pub fn call_sites(&self) -> usize {
        self.fns.iter().map(|f| f.calls().count()).sum()
    }

    /// Resolves every call site and lock acquisition, once every file
    /// is scanned.
    pub(crate) fn index(&mut self) {
        self.by_name.clear();
        for (i, f) in self.fns.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(i);
        }
        self.types_by_name.clear();
        for (i, t) in self.types.iter().enumerate() {
            self.types_by_name.entry(t.name.clone()).or_default().push(i);
        }
        let ids = |g: &CallGraph, t: Option<&str>, f: &FnNode| {
            t.map(|t| g.type_ids(t, &f.crate_name, &f.module)).unwrap_or_default()
        };
        let node_ids: Vec<_> = (self.fns.iter())
            .map(|f| (ids(self, f.impl_ty.as_ref().map(|t| t.name.as_str()), f), ids(self, f.impl_trait.as_deref(), f)))
            .collect();
        for (f, (s, t)) in self.fns.iter_mut().zip(node_ids) {
            (f.self_ids, f.trait_ids) = (s, t);
        }

        for c in std::mem::take(&mut self.const_classes) {
            let named = self.str_consts.iter().filter(|(name, _)| *name == c.class);
            self.classes.extend(named.map(|(_, class)| NamedClassSite { class: class.clone(), ..c.clone() }));
        }
        let mut fields: BTreeMap<(usize, &str), (BTreeSet<&str>, bool)> = BTreeMap::new();
        for c in &self.classes {
            for id in c.owner.iter().flat_map(|o| self.type_ids(o, &c.crate_name, &c.module)) {
                let (classes, generic) = fields.entry((id, c.field.as_str())).or_insert((BTreeSet::new(), true));
                classes.insert(c.class.as_str());
                *generic &= c.generic;
            }
        }
        let (mut resolved, mut unresolved, mut typed, mut ambiguous) = (0, 0, 0, 0);
        for i in 0..self.fns.len() {
            let mut body = std::mem::take(&mut self.fns[i].body);
            for ev in &mut body {
                match ev {
                    BodyEvent::Call(c) => {
                        (c.targets, c.by_name) = match (&c.callee, &c.recv) {
                            (Callee::Method(m), Some(recv)) => {
                                let t = self.ty_of(recv, i);
                                typed += usize::from(t.is_some());
                                (self.methods(i, t.as_ref(), m), t.is_none())
                            }
                            (callee, _) => (self.resolve_path(i, callee), false),
                        };
                        if !matches!(c.callee, Callee::Macro(_)) {
                            *if c.targets.is_empty() { &mut unresolved } else { &mut resolved } += 1;
                        }
                    }
                    BodyEvent::Acquire { recv, classes, .. } => {
                        *classes = self.class_of(i, recv, &fields).unwrap_or_else(|()| {
                            ambiguous += 1;
                            Vec::new()
                        });
                    }
                    _ => {}
                }
            }
            self.fns[i].body = body;
        }
        (self.resolved_calls, self.unresolved_calls) = (resolved, unresolved);
        (self.typed_calls, self.ambiguous_receivers) = (typed, ambiguous);
    }
}

// ---------------------------------------------------------------------------
// The parser.

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "as", "in", "move", "let", "mut",
    "ref", "dyn", "where", "unsafe", "async", "await", "const", "static", "pub", "use", "mod", "struct", "enum",
    "type", "trait", "impl", "fn", "extern", "crate", "super", "box", "yield", "true", "false",
];

/// Methods whose closure argument takes what their receiver holds.
const CLOSURE_ADAPTERS: &[&str] = &[
    "map", "and_then", "filter", "for_each", "find", "any", "all", "filter_map", "flat_map", "position", "retain",
    "map_or", "map_or_else", "is_some_and", "is_none_or", "inspect", "take_while", "skip_while", "find_map",
    "max_by_key", "min_by_key", "sort_by_key",
];

fn upper(s: &str) -> bool {
    s.starts_with(|c: char| c.is_uppercase())
}

struct ScopeFrame {
    kind: ScopeKind,
    /// Brace depth *inside* this scope; the scope pops when depth drops
    /// below this.
    inner_depth: usize,
}

enum ScopeKind {
    Module(String),
    /// An `impl` or `trait` block: its type and trait.
    Impl(Ty, Option<String>),
    /// The braced body of node `n`: a fn, or a root closure.
    Body(usize),
}

/// A name bound in the body being parsed, and what it holds. It is
/// seen from token `from` on — a `let`'s after its statement — until the
/// walk closes back below `depth`, or, for the parameter of a closure
/// with an expression body, until that argument ends.
struct Local {
    name: String,
    expr: Expr,
    from: usize,
    depth: usize,
    paren: Option<usize>,
}

struct Parser<'a> {
    toks: &'a [Token],
    /// Per bracket token: the index of its partner.
    pair: Vec<usize>,
    pos: usize,
    brace_depth: usize,
    paren_depth: usize,
    /// Open `[`s: a `;` inside `[u8; 4]` ends no statement.
    bracket_depth: usize,
    /// Each open `{`: its token index and the paren and bracket depths
    /// it opened at (a `;` ends a statement only at those).
    braces: Vec<(usize, usize, usize)>,
    scopes: Vec<ScopeFrame>,
    /// Root closures with an expression body: (node, paren depth), each
    /// ended by a `,` or `)` at that depth.
    expr_closures: Vec<(usize, usize)>,
    /// Armed by a root-registration call until its closure argument (if
    /// any) is found: (kind, paren depth inside the call).
    pending_root: Option<(RootKind, usize)>,
    /// Tokens of the current statement, for `let` guard binding lookup.
    stmt_start: usize,
    locals: Vec<Local>,
    /// The method calls whose argument lists are open: paren depth
    /// inside, receiver, name — a closure argument's parameter is what
    /// the receiver holds.
    args_of: Vec<(usize, Expr, String)>,
    graph: &'a mut CallGraph,
    src: &'a SourceFile,
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i).map(|t| &t.tok)
    }

    fn peek(&self, k: usize) -> Option<&Tok> {
        self.tok(self.pos + k)
    }

    fn is(&self, i: usize, t: Tok) -> bool {
        self.tok(i) == Some(&t)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        matches!(self.tok(i), Some(Tok::Ident(id)) if id == s)
    }

    fn line(&self, k: usize) -> usize {
        self.toks.get((self.pos + k).min(self.toks.len().saturating_sub(1))).map(|t| t.line).unwrap_or(0)
    }

    fn module_path(&self) -> Vec<String> {
        let mut m: Vec<String> = self.src.module.clone();
        for s in &self.scopes {
            if let ScopeKind::Module(name) = &s.kind {
                m.push(name.clone());
            }
        }
        m
    }

    /// The enclosing `impl`'s type and trait.
    fn impl_scope(&self) -> Option<(&Ty, &Option<String>)> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(ty, tr) => Some((ty, tr)),
            _ => None,
        })
    }

    /// The type `self` and `Self` denote here.
    fn self_ty(&self) -> Option<Ty> {
        self.impl_scope().map(|(t, _)| t.clone())
    }

    /// The innermost node body to attribute events to (root closure
    /// wins over enclosing fn).
    fn current_node(&self) -> Option<usize> {
        if let Some(&(node, _)) = self.expr_closures.last() {
            return Some(node);
        }
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Body(node) => Some(*node),
            _ => None,
        })
    }

    fn push_event(&mut self, ev: BodyEvent) {
        if let Some(n) = self.current_node() {
            self.graph.fns[n].body.push(ev);
        }
    }

    fn push_node(
        &mut self,
        name: String,
        line: usize,
        has_self: bool,
        ret: Option<Ty>,
        root: Option<RootKind>,
    ) -> usize {
        let (impl_ty, impl_trait) = self.impl_scope().map(|(t, tr)| (Some(t.clone()), tr.clone())).unwrap_or_default();
        self.graph.fns.push(FnNode {
            crate_name: self.src.crate_name.clone(),
            module: self.module_path(),
            impl_ty,
            impl_trait,
            name,
            file: self.src.file.clone(),
            line,
            has_self,
            ret,
            root,
            bounds: Vec::new(),
            body: Vec::new(),
            self_ids: Vec::new(),
            trait_ids: Vec::new(),
        });
        self.graph.fns.len() - 1
    }

    /// The `>` closing the `<` at `i` (or `i` itself, if none does
    /// before the statement ends).
    fn angle_close(&self, i: usize) -> usize {
        let mut depth = 0i32;
        for k in i..self.toks.len() {
            match self.tok(k) {
                Some(Tok::P('<')) => depth += 1,
                Some(Tok::P('>')) => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                Some(Tok::P(';')) | Some(Tok::P('{')) => break,
                _ => {}
            }
        }
        i
    }

    /// Splits tokens `a..b` of a type-level list at top-level commas.
    fn split_top(&self, a: usize, b: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let (mut start, mut angle, mut k) = (a, 0i32, a);
        while k < b {
            match self.tok(k) {
                Some(Tok::P('(' | '[' | '{')) => k = self.pair[k],
                Some(Tok::P('<')) => angle += 1,
                Some(Tok::P('>')) => angle -= 1,
                Some(Tok::P(',')) if angle == 0 => {
                    out.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        out.push((start, b));
        out.retain(|(s, e)| s < e);
        out
    }

    /// Reads the type spelled by tokens `a..b`.
    fn parse_ty(&self, mut a: usize, b: usize) -> Ty {
        while a < b
            && (matches!(self.tok(a), Some(Tok::P('&' | '*')) | Some(Tok::Lifetime))
                || matches!(self.tok(a), Some(Tok::Ident(k)) if ["mut", "dyn", "impl", "const"].contains(&k.as_str())))
        {
            a += 1;
        }
        match self.tok(a) {
            _ if a >= b => Ty::named("_"),
            Some(Tok::P('[')) => {
                let close = self.pair[a].min(b);
                let end = (a + 1..close).find(|&k| self.is(k, Tok::P(';'))).unwrap_or(close);
                Ty { name: "[]".to_string(), args: vec![self.parse_ty(a + 1, end)] }
            }
            Some(Tok::Ident(_)) => {
                while self.is(a + 1, Tok::PathSep) && matches!(self.tok(a + 2), Some(Tok::Ident(_))) {
                    a += 2;
                }
                let Some(Tok::Ident(name)) = self.tok(a) else { unreachable!() };
                let mut ty = Ty::named(name);
                if self.is(a + 1, Tok::P('<')) {
                    let close = self.angle_close(a + 1);
                    let args = self.split_top(a + 2, close).into_iter().filter(|&(s, _)| !self.is(s, Tok::Lifetime));
                    ty.args = args.map(|(s, e)| self.parse_ty(s, e)).collect();
                }
                ty
            }
            Some(Tok::P('(')) => {
                let args = self.split_top(a + 1, self.pair[a].min(b));
                Ty { name: "()".to_string(), args: args.into_iter().map(|(s, e)| self.parse_ty(s, e)).collect() }
            }
            _ => Ty::named("_"),
        }
    }

    /// The type tokens `a..b` spell, `Self` read as the impl type.
    fn ty(&self, a: usize, b: usize) -> Ty {
        self.subst(self.parse_ty(a, b))
    }

    fn subst(&self, ty: Ty) -> Ty {
        match self.self_ty() {
            Some(s) if ty.name == "Self" => s,
            _ => Ty { name: ty.name, args: ty.args.into_iter().map(|a| self.subst(a)).collect() },
        }
    }

    /// Where the current statement's own tokens start: past a leading
    /// `else`, which continues an `if`.
    fn stmt_head(&self) -> usize {
        self.stmt_start + usize::from(self.is_ident(self.stmt_start, "else"))
    }

    fn advance_to(&mut self, i: usize) {
        while self.pos < i && self.pos < self.toks.len() {
            self.advance_raw();
        }
    }

    /// Skips a balanced `<…>` generic-argument list starting at the
    /// current `<`. Gives up (consuming nothing) if no balanced close
    /// is found nearby — then it was a comparison, not generics.
    fn try_skip_generics(&mut self) {
        let end = self.angle_close(self.pos);
        if end > self.pos {
            self.advance_to(end + 1);
        }
    }

    /// The first token from `k` on, outside `(..)` and `[..]`, that
    /// `stop` accepts.
    fn find_top(&self, mut k: usize, stop: impl Fn(&Tok) -> bool) -> usize {
        while let Some(t) = self.tok(k).filter(|t| !stop(t)) {
            if matches!(t, Tok::P('(' | '[')) {
                k = self.pair[k];
            }
            k += 1;
        }
        k
    }

    /// Consumes one token, maintaining depths and scope pops. The only
    /// place `{`/`}`/`(`/`)`/`;` bookkeeping happens.
    fn advance_raw(&mut self) {
        let Some(st) = self.toks.get(self.pos) else {
            return;
        };
        match &st.tok {
            Tok::P('{') => {
                // A plain `if`/`while` condition's temporaries die before
                // its block runs (an `if let`'s live through it).
                let head = self.stmt_head();
                if (self.is_ident(head, "if") || self.is_ident(head, "while"))
                    && !(head..self.pos).any(|k| self.is_ident(k, "let"))
                {
                    self.push_event(BodyEvent::EndStmt);
                }
                self.braces.push((self.pos, self.paren_depth, self.bracket_depth));
                self.stmt_start = self.pos + 1;
                self.brace_depth += 1;
            }
            Tok::P('}') => {
                self.brace_depth = self.brace_depth.saturating_sub(1);
                self.braces.pop();
                let depth = self.brace_depth;
                while self.scopes.last().is_some_and(|top| depth < top.inner_depth) {
                    self.scopes.pop();
                }
                self.locals.retain(|l| l.depth <= depth);
                self.push_event(BodyEvent::CloseBlock { depth });
                self.stmt_start = self.pos + 1;
            }
            Tok::P('(') => self.paren_depth += 1,
            Tok::P('[') => self.bracket_depth += 1,
            Tok::P(']') => self.bracket_depth = self.bracket_depth.saturating_sub(1),
            Tok::P(')') => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                let depth = self.paren_depth;
                while self.expr_closures.last().is_some_and(|ec| depth < ec.1) {
                    self.expr_closures.pop();
                }
                if self.pending_root.is_some_and(|(_, pd)| depth < pd) {
                    self.pending_root = None;
                }
                self.locals.retain(|l| l.paren.is_none_or(|p| depth >= p));
                while self.args_of.last().is_some_and(|a| depth < a.0) {
                    self.args_of.pop();
                }
            }
            Tok::P(',') => {
                let depth = self.paren_depth;
                while self.expr_closures.last().is_some_and(|ec| depth <= ec.1) {
                    self.expr_closures.pop();
                }
                self.locals.retain(|l| l.paren.is_none_or(|p| depth > p));
            }
            Tok::P(';')
                if (self.paren_depth, self.bracket_depth) == self.braces.last().map_or((0, 0), |b| (b.1, b.2)) =>
            {
                self.push_event(BodyEvent::EndStmt);
                self.stmt_start = self.pos + 1;
                let d = self.brace_depth;
                self.locals.retain(|l| l.paren.is_none() || l.depth != d);
            }
            _ => {}
        }
        self.pos += 1;
    }

    /// Skips an attribute `#[…]` / `#![…]`.
    fn skip_attribute(&mut self) {
        self.advance_raw(); // '#'
        if self.peek(0) == Some(&Tok::P('!')) {
            self.advance_raw();
        }
        if self.peek(0) == Some(&Tok::P('[')) {
            self.advance_to(self.pair[self.pos] + 1);
        }
    }

    /// Skips a whole `macro_rules! name { … }` definition.
    fn skip_macro_rules(&mut self) {
        // At `macro_rules`; skip `! name` then the balanced braces.
        while self.peek(0).is_some_and(|t| !matches!(t, Tok::P('{'))) {
            self.advance_raw();
        }
        // Macro bodies are not Rust code: jump, don't parse.
        if self.peek(0).is_some() {
            self.pos = self.pair[self.pos] + 1;
        }
    }

    /// Parses a `fn` item header at the `fn` keyword; pushes a Fn scope
    /// with its parameters in scope if the item has a body.
    fn parse_fn(&mut self) {
        let line = self.line(0);
        self.advance_raw(); // fn
        let Some(Tok::Ident(name)) = self.peek(0).cloned() else { return };
        self.advance_raw();
        // A generic parameter bounded by a trait (`<C: Served>`) is read
        // as the trait: a call on it goes to every impl, as on a trait
        // object.
        let mut bounds = Vec::new();
        if self.peek(0) == Some(&Tok::P('<')) {
            for (a, _) in self.split_top(self.pos + 1, self.angle_close(self.pos)) {
                if let (Some(Tok::Ident(p)), true, Some(Tok::Ident(t))) =
                    (self.tok(a), self.is(a + 1, Tok::P(':')), self.tok(a + 2))
                {
                    bounds.push((p.clone(), t.clone()));
                }
            }
            self.try_skip_generics();
        }
        if self.peek(0) != Some(&Tok::P('(')) {
            return;
        }
        let ty = |a, b| bounded(self.ty(a, b), &bounds);
        let close = self.pair[self.pos];
        // The return type and any `where` clause sit between the
        // parameter list and the body (or the `;` of a declaration).
        let body = self.find_top(close + 1, |t| matches!(t, Tok::P('{' | ';')));
        let where_at = (close + 1..body).find(|&k| self.is_ident(k, "where")).unwrap_or(body);
        let ret = self.is(close + 1, Tok::Arrow).then(|| ty(close + 2, where_at));
        let mut has_self = false;
        let mut params = Vec::new();
        for (a, b) in self.split_top(self.pos + 1, close) {
            match (a..b).find(|&k| self.is(k, Tok::P(':'))) {
                Some(c) if c > a => match self.tok(c - 1) {
                    Some(Tok::Ident(p)) if p == "self" => has_self = true,
                    Some(Tok::Ident(p)) => params.push((p.clone(), ty(c + 1, b))),
                    _ => {}
                },
                _ => has_self |= (a..b).any(|k| self.is_ident(k, "self")),
            }
        }
        self.advance_to(body);
        if self.peek(0) != Some(&Tok::P('{')) {
            return;
        }
        let node = self.push_node(name, line, has_self, ret, None);
        self.graph.fns[node].bounds = bounds.into_iter().map(|(_, t)| t).collect();
        self.advance_raw(); // {
        let depth = self.brace_depth;
        self.scopes.push(ScopeFrame { kind: ScopeKind::Body(node), inner_depth: depth });
        for (name, ty) in params {
            self.locals.push(Local { name, expr: Expr::Ty(ty), from: 0, depth, paren: None });
        }
        self.stmt_start = self.pos;
    }

    /// Parses `impl …` / `trait …` headers, pushing an Impl scope and
    /// recording a trait as a type.
    fn parse_impl(&mut self, is_trait: bool) {
        self.advance_raw(); // impl | trait
        if self.peek(0) == Some(&Tok::P('<')) {
            self.try_skip_generics();
        }
        let start = self.pos;
        let end = self.find_top(start, |t| matches!(t, Tok::P('{' | ';')));
        let head = (start..end).find(|&k| self.is_ident(k, "where")).unwrap_or(end);
        let (ty, tr) = if is_trait {
            let Some(Tok::Ident(name)) = self.tok(start).cloned() else { return };
            self.push_type(name.clone(), Vec::new(), true);
            (Ty::named(&name), Some(name))
        } else {
            let for_at = (start..head).find(|&k| self.is_ident(k, "for"));
            let mut ty = self.ty(for_at.map_or(start, |f| f + 1), head);
            while WRAPPERS.contains(&ty.name.as_str()) && !ty.args.is_empty() {
                ty = ty.args.swap_remove(0);
            }
            (ty, for_at.map(|f| self.parse_ty(start, f).name))
        };
        self.advance_to(end);
        if self.peek(0) == Some(&Tok::P('{')) {
            self.advance_raw();
            let kind = ScopeKind::Impl(ty, tr);
            self.scopes.push(ScopeFrame { kind, inner_depth: self.brace_depth });
        }
    }

    fn push_type(&mut self, name: String, fields: Vec<(String, Ty)>, is_trait: bool) {
        let (crate_name, module) = (self.src.crate_name.clone(), self.module_path());
        self.graph.types.push(TypeDef { name, crate_name, module, fields, is_trait });
    }

    /// Records a `struct` and its fields, or an `enum`.
    fn parse_type_item(&mut self) {
        let is_struct = self.is_ident(self.pos, "struct");
        self.advance_raw();
        let Some(Tok::Ident(name)) = self.peek(0).cloned() else { return };
        self.advance_raw();
        if self.peek(0) == Some(&Tok::P('<')) {
            self.try_skip_generics();
        }
        let mut fields = Vec::new();
        if self.peek(0) == Some(&Tok::P('{')) {
            let close = self.pair[self.pos];
            for (a, b) in self.split_top(self.pos + 1, close).into_iter().filter(|_| is_struct) {
                // `#[attr] pub(crate) name: Type`
                if let Some(c) = (a..b).find(|&k| self.is(k, Tok::P(':'))) {
                    if let Some(Tok::Ident(f)) = self.tok(c - 1) {
                        fields.push((f.clone(), self.ty(c + 1, b)));
                    }
                }
            }
            self.advance_to(close + 1);
        }
        self.push_type(name, fields, false);
    }

    /// Records `static NAME: T` / `const NAME: T`, and the value of a
    /// `const NAME: &str = "value"`; `const fn`, `const { .. }` and
    /// `*const T` are no items.
    fn parse_global(&mut self) {
        if let (Some(Tok::Ident(name)), Some(Tok::P(':'))) = (self.peek(1).cloned(), self.peek(2)) {
            let end = (self.pos + 3..self.toks.len()).find(|&k| matches!(self.tok(k), Some(Tok::P('=' | ';'))));
            let value = end.filter(|&e| self.is(e, Tok::P('=')) && self.is(e + 2, Tok::P(';')));
            if let Some(Tok::Str(value)) = value.and_then(|e| self.tok(e + 1)) {
                self.graph.str_consts.push((name.clone(), value.clone()));
            }
            let ty = self.ty(self.pos + 3, end.unwrap_or(self.toks.len()));
            let (crate_name, module) = (self.src.crate_name.clone(), self.module_path());
            self.graph.globals.push(Decl { name, ty, crate_name, module });
        }
        self.advance_raw();
    }

    /// What pattern tokens `a..b` bind, each name to the part of `e` it
    /// matches: `x`, `(a, b)`, `Some(x)`, `[a, b]`, `x @ ..`; what another
    /// variant's payload binds is unknown.
    fn bind_pat(&self, mut a: usize, b: usize, e: Expr, out: &mut Vec<(String, Expr)>) {
        while a < b && (self.is(a, Tok::P('&')) || self.is_ident(a, "mut") || self.is_ident(a, "ref")) {
            a += 1;
        }
        let mut k = a;
        while self.is(k + 1, Tok::PathSep) {
            k += 2;
        }
        let open = match self.tok(k).filter(|_| k < b) {
            Some(Tok::Ident(name)) if self.is(k + 1, Tok::P('@')) => {
                out.push((name.clone(), e.clone()));
                return self.bind_pat(k + 2, b, e, out);
            }
            Some(Tok::Ident(name)) if !self.is(k + 1, Tok::P('(')) => {
                if k == a && name.starts_with(|c: char| c.is_lowercase()) && !KEYWORDS.contains(&name.as_str()) {
                    out.push((name.clone(), e));
                }
                return;
            }
            Some(Tok::Ident(_)) => k + 1,
            Some(Tok::P('(' | '[')) => a,
            _ => return,
        };
        for (i, (s, t)) in self.split_top(open + 1, self.pair[open].min(b)).into_iter().enumerate() {
            let part = match self.tok(k) {
                Some(Tok::Ident(v)) if v == "Some" || v == "Ok" => Expr::Inner(Box::new(e.clone())),
                Some(Tok::Ident(_)) => Expr::Unknown,
                Some(Tok::P('(')) => Expr::Nth(Box::new(e.clone()), i),
                _ => Expr::Inner(Box::new(e.clone())),
            };
            self.bind_pat(s, t, part, out);
        }
    }

    /// Binds pattern `a..b` to `e` from token `from` on, at this depth —
    /// or, `block`, for the block about to open.
    fn bind(&mut self, a: usize, b: usize, e: Expr, from: usize, block: bool) {
        let mut names = Vec::new();
        self.bind_pat(a, b, e, &mut names);
        let depth = self.brace_depth + usize::from(block);
        self.locals.extend(names.into_iter().map(|(name, expr)| Local { name, expr, from, depth, paren: None }));
    }

    /// At `let`: binds its pattern from the declared type or the
    /// initializer, past its statement (or for an `if let`'s or
    /// `while let`'s block).
    fn parse_let(&mut self) {
        let block = self.pos > 0 && (self.is_ident(self.pos - 1, "if") || self.is_ident(self.pos - 1, "while"));
        let start = self.pos + 1;
        let pat_end = self.find_top(start, |t| matches!(t, Tok::P(':' | '=' | ';')));
        let mut k = pat_end;
        let mut expr = Expr::Unknown;
        if self.is(k, Tok::P(':')) {
            k = self.find_top(k, |t| matches!(t, Tok::P('=' | ';')));
            expr = Expr::Ty(self.ty(pat_end + 1, k));
        }
        if self.is(k, Tok::P('=')) && expr == Expr::Unknown {
            let (init, end) = self.chain(k + 1, self.toks.len());
            // Only an initializer that is one chain types the binding.
            if matches!(self.tok(end), Some(Tok::P(';' | '{'))) || self.is_ident(end, "else") {
                expr = init;
            }
        }
        let from = self.find_top(k, |t| matches!(t, Tok::P(';' | '{')));
        self.bind(start, pat_end, expr, from, block);
        self.advance_raw();
    }

    /// At `for`: binds the loop pattern to what the iterated value holds.
    fn parse_for(&mut self) {
        let start = self.pos + 1;
        let k = self.find_top(start, |t| matches!(t, Tok::P('{' | ';' | '<')) || matches!(t, Tok::Ident(i) if i == "in"));
        if self.is_ident(k, "in") {
            let (iter, end) = self.chain(k + 1, self.toks.len());
            self.bind(start, k, Expr::Inner(Box::new(Expr::Method(Box::new(iter), "into_iter".to_string()))), end, true);
        }
        self.advance_raw();
    }

    /// `|` opens a closure where an expression starts, not where it
    /// continues (`a | b`, `a || b`, a pattern's `A | B`).
    fn closure_starts(&self) -> bool {
        match self.pos.checked_sub(1).and_then(|k| self.tok(k)) {
            Some(Tok::P('(' | ',' | '=' | '{' | ';' | ':')) | Some(Tok::FatArrow) => true,
            Some(Tok::Ident(k)) => k == "move" || k == "return",
            _ => false,
        }
    }

    /// At a closure's opening `|`: binds its parameters for its body,
    /// and, if a root registration is armed at this paren depth, makes
    /// it a synthetic root node (otherwise its body attributes to the
    /// enclosing fn).
    fn parse_closure(&mut self) {
        let line = self.line(0);
        let root = match self.pending_root {
            Some((kind, pd)) if pd == self.paren_depth => {
                self.pending_root = None;
                Some(kind)
            }
            _ => None,
        };
        let open = self.pos;
        let close = (open + 1..self.toks.len()).find(|&k| self.is(k, Tok::P('|'))).unwrap_or(self.toks.len());
        let params = self.split_top(open + 1, close);
        self.advance_to(close + 1);
        let braced = self.peek(0) == Some(&Tok::P('{'));
        let (depth, paren) =
            if braced { (self.brace_depth + 1, None) } else { (self.brace_depth, Some(self.paren_depth)) };
        // `opt.map(|x| ..)`, `list.iter().for_each(|x| ..)`: the one
        // parameter is what the receiver holds.
        let held = match self.args_of.last() {
            Some((d, recv, m))
                if *d == self.paren_depth && params.len() == 1 && CLOSURE_ADAPTERS.contains(&m.as_str()) =>
            {
                Expr::Inner(Box::new(recv.clone()))
            }
            _ => Expr::Unknown,
        };
        let mut names = Vec::new();
        for (a, b) in params {
            match (a..b).find(|&k| self.is(k, Tok::P(':'))) {
                Some(c) => self.bind_pat(a, c, Expr::Ty(self.ty(c + 1, b)), &mut names),
                None => self.bind_pat(a, b, held.clone(), &mut names),
            }
        }
        let from = self.pos;
        self.locals.extend(names.into_iter().map(|(name, expr)| Local { name, expr, from, depth, paren }));
        let Some(kind) = root else {
            return;
        };
        let node = self.push_node("{closure}".to_string(), line, false, None, Some(kind));
        if braced {
            self.advance_raw();
            self.scopes.push(ScopeFrame { kind: ScopeKind::Body(node), inner_depth: self.brace_depth });
        } else {
            self.expr_closures.push((node, self.paren_depth));
        }
    }

    /// The callee a path names, `Self::` read as the impl type.
    fn callee(&self, mut segs: Vec<String>) -> Callee {
        if segs[0] == "Self" {
            if let Some(t) = self.self_ty() {
                segs[0] = t.name;
            }
        }
        if segs.len() == 1 {
            Callee::Bare(segs.remove(0))
        } else {
            Callee::Path(segs)
        }
    }

    /// Reads the value chain starting at token `i` (`&self.conns.lock()
    /// .get(&id)?`), stopping at `end` or where the chain does.
    fn chain(&self, mut i: usize, end: usize) -> (Expr, usize) {
        loop {
            match self.tok(i) {
                Some(Tok::P('&' | '*')) => i += 1,
                Some(Tok::Ident(k)) if k == "mut" || k == "move" => i += 1,
                // A closure's value is its body's.
                Some(Tok::P('|')) => i = (i + 1..end).find(|&k| self.is(k, Tok::P('|'))).map_or(end, |k| k + 1),
                _ => break,
            }
        }
        let mut e = Expr::Unknown;
        match self.tok(i).cloned() {
            Some(Tok::Ident(id)) if id == "self" => {
                e = self.self_ty().map_or(Expr::Unknown, Expr::Ty);
                i += 1;
            }
            Some(Tok::Ident(id)) if !KEYWORDS.contains(&id.as_str()) || id == "crate" || id == "super" => {
                let mut segs = vec![id];
                while self.is(i + 1, Tok::PathSep) {
                    match self.tok(i + 2) {
                        Some(Tok::Ident(s)) => segs.push(s.clone()),
                        Some(Tok::P('<')) => i = self.angle_close(i + 2) - 2, // turbofish
                        _ => break,
                    }
                    i += 2;
                }
                i += 1;
                let last = segs[segs.len() - 1].clone();
                if self.is(i, Tok::P('(')) {
                    let close = self.pair[i];
                    let owner = segs.len().checked_sub(2).map(|q| segs[q].as_str());
                    e = if owner.is_some_and(|q| WRAPPERS.contains(&q) || q == "mem") {
                        self.chain(i + 1, close).0 // `Arc::new(x)`, `mem::take(x)` are `x`
                    } else {
                        Expr::Call(self.callee(segs))
                    };
                    i = close + 1;
                } else if self.is(i, Tok::P('{')) && (upper(&last) && self.struct_literal(i)) {
                    e = Expr::Ty(self.subst(Ty::named(&last)));
                    i = self.pair[i] + 1;
                } else if segs.len() == 1 {
                    e = match self.locals.iter().rev().find(|l| l.name == last && l.from <= i) {
                        Some(l) => l.expr.clone(),
                        None if upper(&last) => Expr::Global(last),
                        None => Expr::Unknown,
                    };
                }
            }
            Some(Tok::P('(')) => {
                let close = self.pair[i];
                let one = |(s, t)| match self.chain(s, t) {
                    (e, end) if end == t => e,
                    _ => Expr::Unknown,
                };
                let mut parts: Vec<Expr> = self.split_top(i + 1, close).into_iter().map(one).collect();
                e = if parts.len() == 1 && !self.is(close - 1, Tok::P(',')) {
                    parts.remove(0)
                } else {
                    Expr::Tuple(parts)
                };
                i = close + 1;
            }
            Some(Tok::Str(_)) => (e, i) = (Expr::Ty(Ty::named("str")), i + 1),
            Some(Tok::Num) => (e, i) = (Expr::Ty(Ty::named("num")), i + 1),
            _ => return (e, i),
        }
        while i < end {
            match (self.tok(i), self.tok(i + 1)) {
                (Some(Tok::P('?')), _) => (e, i) = (Expr::Inner(Box::new(e)), i + 1),
                (Some(Tok::P('[')), _) => (e, i) = (Expr::Inner(Box::new(e)), self.pair[i] + 1),
                (Some(Tok::P('.')), Some(Tok::Ident(m))) if m == "await" => i += 2,
                (Some(Tok::P('.')), Some(Tok::Ident(m))) => {
                    let mut k = i + 2;
                    if self.is(k, Tok::PathSep) && self.is(k + 1, Tok::P('<')) {
                        k = self.angle_close(k + 1) + 1;
                    }
                    if self.is(k, Tok::P('(')) {
                        (e, i) = (Expr::Method(Box::new(e), m.clone()), self.pair[k] + 1);
                    } else {
                        (e, i) = (Expr::Field(Box::new(e), m.clone()), i + 2);
                    }
                }
                _ => break,
            }
        }
        (e, i)
    }

    /// Whether the `{` at `i` opens a struct literal's fields.
    fn struct_literal(&self, i: usize) -> bool {
        matches!(
            (self.tok(i + 1), self.tok(i + 2)),
            (Some(Tok::P('}')), _)
                | (Some(Tok::Ident(_)), Some(Tok::P(':' | ',' | '}')))
                | (Some(Tok::P('.')), Some(Tok::P('.')))
        )
    }

    /// The receiver of the method call whose `.` is at `dot`: walks back
    /// to the start of its chain and reads it forward.
    fn recv_before(&self, dot: usize) -> Expr {
        let mut j = dot;
        while j > 0 {
            match &self.toks[j - 1].tok {
                Tok::P(')' | ']') if self.pair[j - 1] < j => {
                    j = self.pair[j - 1];
                    let callee = j.checked_sub(1).and_then(|k| self.tok(k));
                    if !matches!(callee, Some(Tok::Ident(_)) | Some(Tok::P(')' | ']' | '?'))) {
                        break;
                    }
                }
                Tok::P('?') => j -= 1,
                Tok::Ident(id) if id == "self" || !KEYWORDS.contains(&id.as_str()) => {
                    j -= 1;
                    // `a..b.len()`: the `.` of a range is no member access.
                    let range = j >= 2 && self.is(j - 2, Tok::P('.'));
                    if j == 0 || range || !matches!(self.toks[j - 1].tok, Tok::P('.') | Tok::PathSep) {
                        break;
                    }
                    j -= 1;
                }
                Tok::Num if j >= 2 && self.is(j - 2, Tok::P('.')) => j -= 2,
                Tok::Str(_) | Tok::Num => {
                    j -= 1;
                    break;
                }
                _ => break,
            }
        }
        match self.chain(j, dot) {
            (e, end) if end == dot => e,
            _ => Expr::Unknown,
        }
    }

    /// At an ident that does not follow a `.` and may start a call:
    /// gathers a `::`-separated path and, if it ends in `(…`, records
    /// the call. Returns true if it consumed tokens.
    fn parse_path_or_call(&mut self) -> bool {
        let first = match self.peek(0) {
            Some(Tok::Ident(id)) => id.clone(),
            _ => return false,
        };
        if KEYWORDS.contains(&first.as_str()) {
            match first.as_str() {
                "fn" => self.parse_fn(),
                "impl" => self.parse_impl(false),
                "trait" => self.parse_impl(true),
                "let" => self.parse_let(),
                "for" => self.parse_for(),
                "struct" | "enum" => self.parse_type_item(),
                "static" | "const" => self.parse_global(),
                "mod" => {
                    self.advance_raw();
                    if let Some(Tok::Ident(name)) = self.peek(0).cloned() {
                        self.advance_raw();
                        if self.peek(0) == Some(&Tok::P('{')) {
                            self.advance_raw();
                            let kind = ScopeKind::Module(name);
                            self.scopes.push(ScopeFrame { kind, inner_depth: self.brace_depth });
                        }
                    }
                }
                // `use …;` — skip so grouped imports aren't parsed as
                // blocks/calls.
                "use" => {
                    while self.peek(0).is_some_and(|t| !matches!(t, Tok::P(';'))) {
                        self.advance_raw();
                    }
                }
                _ => self.advance_raw(),
            }
            return true;
        }
        if first == "macro_rules" {
            self.skip_macro_rules();
            return true;
        }

        // Gather the path.
        let start = self.pos;
        let mut segs = vec![first.clone()];
        let mut k = 1usize;
        while self.peek(k) == Some(&Tok::PathSep) {
            // A turbofish `::<…>` ends the path; it is skipped below.
            let Some(Tok::Ident(id)) = self.peek(k + 1) else { break };
            segs.push(id.clone());
            k += 2;
        }
        let call_line = self.line(k.saturating_sub(1));
        self.advance_to(self.pos + k);
        if self.peek(0) == Some(&Tok::PathSep) && self.peek(1) == Some(&Tok::P('<')) {
            self.advance_raw();
            self.try_skip_generics();
        }

        // Macro invocation?
        if self.peek(0) == Some(&Tok::P('!')) {
            if matches!(self.peek(1), Some(Tok::P('(' | '[' | '{'))) {
                let name = segs.last().cloned().unwrap_or_default();
                self.push_call(Callee::Macro(name), None, call_line, false);
            }
            return true;
        }

        // A local closure's body is already the caller's.
        if self.peek(0) != Some(&Tok::P('(')) || (segs.len() == 1 && self.locals.iter().any(|l| l.name == first)) {
            return true;
        }
        let zero_args = self.peek(1) == Some(&Tok::P(')'));
        let name = segs.last().cloned().unwrap_or_default();

        // `drop(g)` of a named guard.
        if segs.len() == 1 && name == "drop" {
            if let (Some(Tok::Ident(g)), Some(Tok::P(')'))) = (self.peek(1), self.peek(2)) {
                let g = g.clone();
                self.push_event(BodyEvent::DropGuard { name: g, line: call_line });
            }
        }

        // Named lock classes: `Mutex::named(value, "class")`.
        if name == "named" && segs.len() >= 2 && segs[segs.len() - 2] == "Mutex" {
            self.record_named_class(start, call_line);
        }

        // Root registrations: arm closure capture inside the argument
        // list. Recognized only with their module qualifier, matching
        // real call spelling (`pool::submit(…)`, `wheel::schedule(…)`).
        let root = match (segs.len() >= 2).then(|| segs[segs.len() - 2].as_str()) {
            Some("pool") if name == "submit" || name == "submit_or_run" => Some(RootKind::PoolJob),
            // `wheel::rearm`'s closure makes the one it hands to `wheel::schedule`.
            Some("wheel") if name == "schedule" || name == "rearm" => Some(RootKind::WheelCallback),
            Some("vtime") if name == "kproc" => Some(RootKind::Kproc),
            _ => None,
        };
        let callee = self.callee(segs);
        self.push_call(callee, None, call_line, zero_args);
        self.advance_raw(); // (
        if let Some(kind) = root {
            self.pending_root = Some((kind, self.paren_depth));
        }
        true
    }

    fn push_call(&mut self, callee: Callee, recv: Option<Expr>, line: usize, zero_args: bool) {
        let LineAnn { blocking_ok, checked, .. } = self.src.ann_at(line);
        let call = CallSite { callee, recv, line, zero_args, blocking_ok, checked, targets: Vec::new(), by_name: false };
        self.push_event(BodyEvent::Call(call));
    }

    /// Records a `.lock()`-family acquisition of `recv`, with the guard
    /// binding when the statement names one.
    fn record_acquire(&mut self, recv: Expr, op: AcqOp, line: usize) {
        // `let g = recv.lock();` — find the binding name: the last
        // ident before the statement's first `=`.
        let mut guard = None;
        let mut saw_let = false;
        let mut last_ident: Option<String> = None;
        for t in &self.toks[self.stmt_start..self.pos] {
            match &t.tok {
                Tok::Ident(id) if id == "let" => saw_let = true,
                Tok::Ident(id) if id == "mut" || id == "ref" => {}
                Tok::Ident(id) if saw_let && guard.is_none() => {
                    last_ident = Some(id.clone());
                }
                Tok::P('=') if saw_let && guard.is_none() => {
                    guard = last_ident.take();
                }
                _ => {}
            }
        }
        // The binding names the guard only when the statement ends at
        // the acquire call itself (`let g = x.lock();`). Anywhere else
        // the guard is a temporary of the statement —
        // `let v = x.lock().get(k).cloned();` binds `v` to the clone,
        // `let n = f(&x.lock());` and `let v = match *x.lock() { .. };`
        // drop it at the `;`. Mistaking `v` for a guard holds the class
        // for the rest of the body and manufactures phantom lock-order
        // edges.
        if !self.is(self.pair[self.pos] + 1, Tok::P(';')) {
            guard = None;
        }
        // Bindings introduced inside `if let`/`while let`/`match` live
        // one block deeper than the current depth.
        let head = self.stmt_head();
        let depth = self.brace_depth + usize::from(["if", "while", "match"].iter().any(|k| self.is_ident(head, k)));
        self.push_event(BodyEvent::Acquire { recv, op, line, guard, depth, classes: Vec::new() });
    }

    /// Records a `Mutex::named(value, "class")` site starting at token
    /// `start`: the class string is the last literal in the argument
    /// list, and the lock is field `f` of the struct literal
    /// `T { f: Mutex::named(..) }` (`Self` read as the impl type), or
    /// the `static` it initializes.
    fn record_named_class(&mut self, start: usize, line: usize) {
        if self.peek(0) != Some(&Tok::P('(')) {
            return;
        }
        let close = self.pair[self.pos];
        // The last literal, or the last argument's `C::NAME`.
        let Some((class, generic)) = (self.pos + 1..close).rev().find_map(|k| match self.tok(k) {
            Some(Tok::Str(s)) if !s.is_empty() => Some((s.clone(), false)),
            Some(Tok::Ident(n)) if k + 1 == close && self.is(k - 1, Tok::PathSep) => Some((n.clone(), true)),
            _ => None,
        }) else {
            return;
        };
        let before = |n: usize| start.checked_sub(n).and_then(|k| self.tok(k));
        let (owner, field) = match (before(2), before(1)) {
            (Some(Tok::Ident(f)), Some(Tok::P(':'))) => {
                let Some(&(open, ..)) = self.braces.last() else { return };
                match open.checked_sub(1).and_then(|k| self.tok(k)) {
                    Some(Tok::Ident(t)) if t == "Self" => match self.self_ty() {
                        Some(s) => (Some(s.name), f.clone()),
                        None => return,
                    },
                    Some(Tok::Ident(t)) if upper(t) => (Some(t.clone()), f.clone()),
                    _ => return,
                }
            }
            (_, Some(Tok::P('='))) => {
                let mut item = (0..start).rev().take_while(|&k| !matches!(self.tok(k), Some(Tok::P(';' | '{' | '}'))));
                let item = item.find_map(|k| match (self.tok(k), self.tok(k + 1)) {
                    (Some(Tok::Ident(kw)), Some(Tok::Ident(n))) if kw == "static" || kw == "const" => Some(n.clone()),
                    _ => None,
                });
                let Some(name) = item else { return };
                (None, name)
            }
            _ => return,
        };
        let (crate_name, module, file) = (self.src.crate_name.clone(), self.module_path(), self.src.file.clone());
        let sites = if generic { &mut self.graph.const_classes } else { &mut self.graph.classes };
        sites.push(NamedClassSite { class, generic, owner, field, crate_name, module, file, line });
    }

    fn run(&mut self) {
        while self.pos < self.toks.len() {
            match self.peek(0) {
                Some(Tok::P('#')) => self.skip_attribute(),
                Some(Tok::P('|')) if self.closure_starts() => self.parse_closure(),
                Some(Tok::P('.')) => {
                    // `.ident(` → method call; the path parser needs to
                    // know it came after a dot.
                    self.advance_raw();
                    if matches!(self.peek(0), Some(Tok::Ident(_))) {
                        let is_await = matches!(self.peek(0), Some(Tok::Ident(id)) if id == "await");
                        if is_await || !self.parse_method_or_field() {
                            self.advance_raw();
                        }
                    }
                }
                Some(Tok::Ident(_)) => {
                    if !self.parse_path_or_call() {
                        self.advance_raw();
                    }
                }
                Some(_) => self.advance_raw(),
                None => break,
            }
        }
    }

    /// After a consumed `.`: parse `ident(`, `ident::<T>(` as a method
    /// call, otherwise treat as field access.
    fn parse_method_or_field(&mut self) -> bool {
        let name = match self.peek(0) {
            Some(Tok::Ident(id)) => id.clone(),
            _ => return false,
        };
        let mut k = 1usize;
        if self.peek(k) == Some(&Tok::PathSep) && self.peek(k + 1) == Some(&Tok::P('<')) {
            k = self.angle_close(self.pos + k + 1) + 1 - self.pos;
        }
        if self.peek(k) != Some(&Tok::P('(')) {
            // Field access: consume just the ident.
            self.advance_raw();
            return true;
        }
        // It's a method call: lock acquisitions and rx-handler roots
        // are recognized here and nowhere else.
        let call_line = self.line(0);
        let zero_args = self.peek(k + 1) == Some(&Tok::P(')'));
        let recv = self.recv_before(self.pos - 1);
        self.advance_to(self.pos + k);
        let op = match name.as_str() {
            "lock" => Some(AcqOp::Lock),
            "try_lock" => Some(AcqOp::TryLock),
            _ => None,
        };
        if let Some(op) = op {
            self.record_acquire(recv.clone(), op, call_line);
        }
        self.push_call(Callee::Method(name.clone()), Some(recv.clone()), call_line, zero_args);
        self.advance_raw(); // (
        self.args_of.push((self.paren_depth, recv, name.clone()));
        if name == "set_rx_handler" || name == "set_rx_tap" {
            self.pending_root = Some((RootKind::RxHandler, self.paren_depth));
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Workspace walking.

/// Parses one source file into graph nodes.
pub fn scan_file(graph: &mut CallGraph, src: &SourceFile) {
    let toks = &src.toks;
    let mut pair = vec![toks.len(); toks.len()];
    let mut open = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.tok {
            Tok::P('(' | '[' | '{') => open.push(i),
            Tok::P(')' | ']' | '}') => {
                if let Some(o) = open.pop() {
                    (pair[o], pair[i]) = (i, o);
                }
            }
            _ => {}
        }
    }
    let mut p = Parser {
        toks,
        pair,
        pos: 0,
        brace_depth: 0,
        paren_depth: 0,
        bracket_depth: 0,
        braces: Vec::new(),
        scopes: Vec::new(),
        expr_closures: Vec::new(),
        pending_root: None,
        stmt_start: 0,
        locals: Vec::new(),
        args_of: Vec::new(),
        graph,
        src,
    };
    p.run();
}

/// Reads the workspace-internal dependencies (`plan9-foo = …`, or
/// `plan9-foo.workspace = true`) out of one crate's Cargo.toml.
/// Line-oriented on purpose: the manifests here are flat, and the check
/// crate parses nothing it doesn't have to.
fn direct_deps(manifest: &str) -> BTreeSet<String> {
    let deps = manifest.lines().filter_map(|l| l.trim_start().strip_prefix("plan9-"));
    let name = |rest: &str| {
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_').collect::<String>()
    };
    deps.map(|rest| name(rest).replace('-', "_")).filter(|n| !n.is_empty()).collect()
}

/// Builds the call graph of a workspace already read.
pub fn graph_of(ws: &Workspace) -> CallGraph {
    let mut graph = CallGraph::default();
    for src in &ws.files {
        scan_file(&mut graph, src);
    }
    let crates = ws.manifests.iter().filter(|(name, ..)| !name.is_empty());
    graph.deps = transitive(crates.map(|(name, _, text)| (name.clone(), direct_deps(text))).collect());
    graph.index();
    graph
}

/// Builds the call graph for a workspace rooted at `root`: every
/// `crates/*/src/**/*.rs`.
pub fn build_graph(root: &Path) -> io::Result<CallGraph> {
    Ok(graph_of(&Workspace::read(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        scan_file(&mut g, &SourceFile::new("demo", "demo/src/lib.rs", &[], src));
        g.index();
        g
    }

    fn find<'a>(g: &'a CallGraph, name: &str) -> &'a FnNode {
        g.fns.iter().find(|f| f.name == name).expect(name)
    }

    fn targeted(g: &CallGraph, c: &CallSite) -> Vec<String> {
        c.targets.iter().map(|&t| g.fns[t].qualified()).collect()
    }

    #[test]
    fn fn_items_and_calls_parse() {
        let g = graph_of("fn a() { b(); helper::c(); }\nfn b() {}\nmod helper { pub fn c() { super::b(); } }\n");
        assert_eq!(g.fns.len(), 3);
        let a = find(&g, "a");
        let calls: Vec<&str> = a.calls().map(|c| c.callee.name()).collect();
        assert_eq!(calls, vec!["b", "c"]);
        let c = find(&g, "c");
        assert_eq!(c.module, vec!["helper"]);
    }

    #[test]
    fn method_calls_and_impl_types() {
        let g = graph_of(
            "struct Q;\nimpl Q {\n    fn get(&self) { self.inner_wait(); }\n    fn inner_wait(&self) {}\n}\nfn user(q: &Q) { q.get(); }\n",
        );
        let get = find(&g, "get");
        assert_eq!(get.impl_ty.as_ref().map(|t| t.name.as_str()), Some("Q"));
        assert!(get.has_self);
        let user = find(&g, "user");
        let calls: Vec<_> = user.calls().collect();
        assert_eq!(calls.len(), 1);
        assert!(matches!(&calls[0].callee, Callee::Method(m) if m == "get"));
        // Resolution: the method resolves to Q::get, by `q`'s type.
        assert_eq!(targeted(&g, calls[0]), ["demo::Q::get"]);
        assert!(!calls[0].by_name);
    }

    #[test]
    fn a_field_call_goes_to_the_fields_type() {
        // `IpStack` has a `send` of its own, with the same arity; the
        // call is on the station.
        let g = graph_of(
            "struct EtherStation;\nimpl EtherStation {\n    fn send(&self, mac: u8, ty: u16, p: &[u8]) {}\n}\n\
             struct IpStack { station: EtherStation }\nimpl IpStack {\n\
             fn send(&self, dst: u32, proto: u8, p: &[u8]) {}\n\
             fn handle_arp(&self, mac: u8, ty: u16, p: &[u8]) { self.station.send(mac, ty, p); }\n}\n",
        );
        let call = find(&g, "handle_arp").calls().next().unwrap();
        assert_eq!(targeted(&g, call), ["demo::EtherStation::send"]);
    }

    #[test]
    fn a_std_receiver_resolves_to_nothing() {
        let g = graph_of(
            "struct ArpCache { pending: Mutex<HashMap<u32, Vec<u8>>> }\nimpl ArpCache {\n\
             fn len(&self) -> usize { 0 }\n\
             fn hold(&self) -> bool { self.pending.lock().len() < 32 }\n}\n",
        );
        let len = find(&g, "hold").calls().find(|c| c.callee.name() == "len").unwrap();
        assert!(len.targets.is_empty() && !len.by_name, "{:?}", targeted(&g, len));
    }

    #[test]
    fn a_receivers_type_keeps_a_call_in_its_own_impl() {
        let g = graph_of(
            "struct IlConn;\nimpl IlConn {\n    fn timer_fire(&self) {}\n}\n\
             struct TcpConn;\nimpl TcpConn {\n    fn timer_fire(&self) {}\n}\n\
             fn arm(conn: Arc<TcpConn>, at: Instant) {\n    wheel::schedule(1, at, move || conn.timer_fire());\n}\n",
        );
        let (_, root) = g.roots().next().unwrap();
        assert_eq!(targeted(&g, root.calls().next().unwrap()), ["demo::TcpConn::timer_fire"]);
    }

    #[test]
    fn a_let_binding_is_seen_after_its_statement() {
        let g = graph_of(
            "struct A;\nimpl A {\n    fn b(&self) -> B { B }\n}\nstruct B;\nimpl B {\n    fn b(&self) {}\n}\n\
             fn f(x: A) {\n    let x = x.b();\n    x.b();\n}\n",
        );
        let calls: Vec<Vec<String>> = find(&g, "f").calls().map(|c| targeted(&g, c)).collect();
        assert_eq!(calls, [["demo::A::b"], ["demo::B::b"]]);
    }

    #[test]
    fn an_untyped_receiver_fans_out_by_name() {
        let g = graph_of(
            "struct A;\nimpl A {\n    fn go(&self) {}\n}\nstruct B;\nimpl B {\n    fn go(&self) {}\n}\n\
             trait T {\n    fn go(&self);\n}\nimpl T for B {\n    fn go(&self) {}\n}\n\
             fn f(x: &dyn T) { x.go(); }\nfn g(v: Vec<u8>) { v.into_iter().map(|(a, b)| a.go()); }\n",
        );
        let call = find(&g, "f").calls().next().unwrap();
        assert_eq!(targeted(&g, call).len(), 1, "a trait object goes to the impls");
        let call = find(&g, "g").calls().find(|c| c.callee.name() == "go").unwrap();
        assert!(call.by_name);
        assert_eq!(targeted(&g, call).len(), 3);
    }

    #[test]
    fn a_bounded_generic_goes_to_the_bounds_impls() {
        let g = graph_of(
            "struct A;\nimpl A {\n    fn go(&self) {}\n}\nstruct B;\nimpl B {\n    fn go(&self) {}\n}\n\
             trait T {\n    fn go(&self);\n}\nimpl T for B {\n    fn go(&self) {}\n}\n\
             fn f<C: T>(x: &Weak<C>) { x.go(); }\nfn g<C>(x: &C) { x.go(); }\n",
        );
        let call = find(&g, "f").calls().next().unwrap();
        assert_eq!(targeted(&g, call), ["demo::B::go"], "a bounded parameter goes to the bound's impls");
        let call = find(&g, "g").calls().next().unwrap();
        assert!(targeted(&g, call).is_empty(), "an unbounded parameter is no workspace type");
    }

    /// A trait declared in a lower crate is implemented in a higher one:
    /// through a generic bound the call reaches that impl; through a
    /// trait object it still stays within the crates below.
    #[test]
    fn a_bounded_generic_reaches_impls_in_the_crates_above() {
        let mut g = CallGraph::default();
        let low = "pub trait T {\n    fn go(&self);\n}\n\
            fn f<C: T>(x: &C) { x.go(); }\nfn d(x: &dyn T) { x.go(); }\n";
        let high = "struct H;\nimpl T for H {\n    fn go(&self) {}\n}\n";
        scan_file(&mut g, &SourceFile::new("low", "low/src/lib.rs", &[], low));
        scan_file(&mut g, &SourceFile::new("high", "high/src/lib.rs", &[], high));
        g.deps = [("low".to_string(), BTreeSet::new()), ("high".to_string(), ["low".to_string()].into())].into();
        g.index();
        let call = find(&g, "f").calls().next().unwrap();
        assert_eq!(targeted(&g, call), ["high::H::go"]);
        let call = find(&g, "d").calls().next().unwrap();
        assert!(targeted(&g, call).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_invisible() {
        let g = graph_of("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n}\n");
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "live");
    }

    #[test]
    fn pool_submit_closure_becomes_root() {
        let g = graph_of(
            "fn service(key: u64) {\n    pool::submit(key, move || {\n        drain();\n    });\n    after();\n}\nfn drain() {}\nfn after() {}\n",
        );
        let roots: Vec<_> = g.roots().collect();
        assert_eq!(roots.len(), 1);
        let (_, root) = roots[0];
        assert_eq!(root.root, Some(RootKind::PoolJob));
        let calls: Vec<&str> = root.calls().map(|c| c.callee.name()).collect();
        assert_eq!(calls, vec!["drain"]);
        // `after()` belongs to the enclosing fn, not the closure.
        let service = find(&g, "service");
        let calls: Vec<&str> = service.calls().map(|c| c.callee.name()).collect();
        assert_eq!(calls, vec!["submit", "after"]);
    }

    #[test]
    fn expression_closure_root_ends_at_paren() {
        let g = graph_of(
            "fn f(key: u64) {\n    let _ = pool::submit(key, move || drain(key));\n    tail();\n}\nfn drain(_k: u64) {}\nfn tail() {}\n",
        );
        let roots: Vec<_> = g.roots().collect();
        assert_eq!(roots.len(), 1);
        let calls: Vec<&str> = roots[0].1.calls().map(|c| c.callee.name()).collect();
        assert_eq!(calls, vec!["drain"]);
        let f = find(&g, "f");
        let calls: Vec<&str> = f.calls().map(|c| c.callee.name()).collect();
        assert_eq!(calls, vec!["submit", "tail"]);
    }

    #[test]
    fn wheel_schedule_and_rx_handler_roots() {
        let g = graph_of(
            "fn arm(at: Instant) {\n    wheel::schedule(1, at, move || fire())?;\n    station.set_rx_handler(key, move |frame| handle(frame));\n    wheel::rearm(&mut t, 1, Some(at), move || fire())?;\n    stack.set_rx_tap(move |frame| handle(frame));\n}\nfn fire() {}\nfn handle(_f: u8) {}\n",
        );
        let kinds: Vec<RootKind> = g.roots().map(|(_, f)| f.root.unwrap()).collect();
        use RootKind::{RxHandler, WheelCallback};
        assert_eq!(kinds, vec![WheelCallback, RxHandler, WheelCallback, RxHandler]);
    }

    #[test]
    fn non_root_closures_attribute_to_enclosing_fn() {
        let g = graph_of("fn f(v: Vec<u8>) {\n    v.iter().map(|x| g(*x)).count();\n}\nfn g(_x: u8) {}\n");
        let f = find(&g, "f");
        let names: Vec<&str> = f.calls().map(|c| c.callee.name()).collect();
        assert!(names.contains(&"g"), "{names:?}");
        assert_eq!(g.roots().count(), 0);
    }

    #[test]
    fn named_class_sites_capture_field_and_string() {
        let g = graph_of(
            "struct S { state: Mutex<u8> }\nimpl S {\n    fn new() -> Self {\n        Self { state: Mutex::named(0, \"demo.state\") }\n    }\n}\n\
             static FREE: Mutex<()> = Mutex::named((), \"demo.free\");\n",
        );
        let sites: Vec<_> =
            g.classes.iter().map(|c| (c.class.as_str(), c.owner.as_deref(), c.field.as_str())).collect();
        assert_eq!(sites, [("demo.state", Some("S"), "state"), ("demo.free", None, "FREE")]);
    }

    #[test]
    fn acquisitions_record_receiver_and_guard() {
        let g =
            graph_of("fn f(s: &S) {\n    let mut st = s.state.lock();\n    work();\n    drop(st);\n}\nfn work() {}\n");
        let f = find(&g, "f");
        let acquires: Vec<(&Expr, Option<&str>)> = f
            .body
            .iter()
            .filter_map(|e| match e {
                BodyEvent::Acquire { recv, guard, .. } => Some((recv, guard.as_deref())),
                _ => None,
            })
            .collect();
        let s = Expr::Field(Box::new(Expr::Ty(Ty::named("S"))), "state".to_string());
        assert_eq!(acquires, vec![(&s, Some("st"))]);
        assert!(f.body.iter().any(|e| matches!(e, BodyEvent::DropGuard { name, .. } if name == "st")));
    }

    #[test]
    fn blocking_ok_annotation_rides_call_site() {
        let g = graph_of(
            "fn f(cv: &Condvar) {\n    cv.wait(&mut g); // blocking-ok: drains before returning\n    // blocking-ok: next-line form\n    cv.wait(&mut g);\n    cv.wait(&mut g);\n}\n",
        );
        let f = find(&g, "f");
        let anns: Vec<bool> = f.calls().map(|c| c.blocking_ok.is_some()).collect();
        assert_eq!(anns, vec![true, true, false]);
    }

    #[test]
    fn zero_arg_calls_are_marked() {
        let g = graph_of("fn f(h: H) { h.join(); p.join(\"x\"); }\n");
        let f = find(&g, "f");
        let z: Vec<bool> = f.calls().map(|c| c.zero_args).collect();
        assert_eq!(z, vec![true, false]);
    }

    #[test]
    fn path_resolution_prefers_module_suffix() {
        let mut g = CallGraph::default();
        scan_file(
            &mut g,
            &SourceFile::new("support", "support/src/pool.rs", &["pool".to_string()], "pub fn submit() {}\n"),
        );
        scan_file(
            &mut g,
            &SourceFile::new(
                "inet",
                "inet/src/il.rs",
                &["il".to_string()],
                "fn service() { pool::submit(); plan9_support::pool::submit(); }\n",
            ),
        );
        g.index();
        for call in find(&g, "service").calls() {
            assert_eq!(targeted(&g, call), ["support::pool::submit"], "{:?}", call.callee);
        }
    }

    #[test]
    fn an_escaped_char_literal_keeps_the_braces_after_it() {
        let g = graph_of(
            "struct A;\nimpl A {\n    fn f(&self, c: u8, d: char) {\n        if c == b'\\n' {\n            self.g();\n        }\n        if d == '\\\\' {\n            self.g();\n        }\n    }\n    fn g(&self) {}\n}\n",
        );
        let calls: Vec<(usize, Vec<String>)> = find(&g, "f").calls().map(|c| (c.line, targeted(&g, c))).collect();
        assert_eq!(calls, [(5, vec!["demo::A::g".to_string()]), (8, vec!["demo::A::g".to_string()])]);
        assert_eq!(find(&g, "g").qualified(), "demo::A::g");
    }
}
