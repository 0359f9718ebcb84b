//! The checkflow front end: an approximate whole-workspace call graph.
//!
//! `netcheck`'s line lexer answers "does this line contain a forbidden
//! token"; the flow passes need a deeper question answered — "can this
//! closure, transitively, reach a blocking primitive" — which takes a
//! call graph. This module parses every `crates/*/src/**/*.rs` file
//! into function nodes and call edges with *no dependencies and no
//! type information*, accepting approximation where rustc would demand
//! a full type system:
//!
//! - **Items**: `fn` items are discovered with their crate, module path
//!   (file path + inline `mod`), enclosing `impl`/`trait` type, and
//!   whether they take `self`. `#[cfg(test)]`/`#[test]` regions are
//!   skipped entirely (test code may block and panic at will).
//! - **Calls**: `path::to::f(..)` resolves against module-path and
//!   impl-type suffixes; bare `f(..)` resolves same-module, then
//!   same-crate, then workspace-wide; `.m(..)` resolves by name to any
//!   workspace method called `m` — restricted to the caller's own crate
//!   when that crate defines one — the "conservative fan-out" that
//!   makes the analysis sound-ish without types. Macro calls are kept
//!   (for panic sinks) but never resolved.
//! - **Closures** are attributed to their enclosing item, *except* the
//!   closure argument of a non-blocking-context registration —
//!   `pool::submit`, `pool::submit_or_run`, `wheel::schedule` (or
//!   `conv::rearm`, which passes its closure to it), `.set_rx_handler(..)`
//!   and `.set_rx_tap(..)` — which becomes its own synthetic root node
//!   so the flow passes can start exactly at the code that runs on a
//!   shard, wheel, or rx path.
//! - **Locks**: `Mutex::named`/`RwLock::named` construction sites yield
//!   (binding-ident, impl-type) → class-name associations, and
//!   `.lock()`/`.read()`/`.write()`/`.try_lock()` sites record the
//!   receiver ident, so `lockgraph` can rebuild the acquired-while-held
//!   graph without a type checker.
//!
//! Escape hatches ride on comments, like netcheck's: a call site on a
//! line annotated `// blocking-ok: <reason>` is exempt from the
//! blocking-context pass, and `// checked: <reason>` (netcheck's
//! existing grammar) exempts a panic sink from panic-reachability. An
//! annotation in the comment block directly above a line blesses it
//! (`SourceFile::ann_at`, the one waiver parser for every rule).

use crate::{SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

// ---------------------------------------------------------------------------
// Tokens.

/// One token of comment-free, test-free source.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    /// A string literal's contents (single-line literals only; a
    /// multi-line literal tokenizes with empty contents).
    Str(String),
    /// Any numeric literal.
    Num,
    /// `::`
    PathSep,
    /// `->`
    Arrow,
    /// `=>`
    FatArrow,
    /// A lifetime such as `'a` (contents discarded).
    Lifetime,
    /// Any other single punctuation character.
    P(char),
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize, // 1-based
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes a file's lexed code lines. The raw text supplies true
/// string-literal contents (the lexer blanks them, column-preserving),
/// and test-region lines are dropped wholesale.
fn tokenize(src: &SourceFile) -> Vec<SpannedTok> {
    let raw_lines: Vec<&str> = src.text.lines().collect();
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if src.test[idx] {
            continue;
        }
        let lineno = idx + 1;
        let b: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_whitespace() {
                i += 1;
            } else if is_ident_start(c) {
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                let ident: String = b[start..i].iter().collect();
                // A raw/byte-string prefix immediately followed by its
                // quote was kept by the lexer (`r#"…"#`): the ident is
                // the prefix, the quote handling below sees the rest.
                out.push(SpannedTok { tok: Tok::Ident(ident), line: lineno });
            } else if c.is_ascii_digit() {
                while i < b.len() && (is_ident_char(b[i]) || b[i] == '.') {
                    // Consumes `1.5e3`, `0xff`, `1_000u64`; a trailing
                    // range `1..n` is left to punctuation by the
                    // second-dot check.
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
                out.push(SpannedTok { tok: Tok::Num, line: lineno });
            } else if c == '"' {
                // The lexer blanked the contents but kept columns, so
                // the raw line carries the true text at the same span.
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != '"' && b[j] != '#' {
                    j += 1;
                }
                let content = raw_lines
                    .get(idx)
                    .and_then(|raw| {
                        let chars: Vec<char> = raw.chars().collect();
                        if j <= chars.len() && b.get(j) == Some(&'"') {
                            Some(chars[start..j].iter().collect::<String>())
                        } else {
                            None // multi-line or raw-hash literal
                        }
                    })
                    .unwrap_or_default();
                out.push(SpannedTok { tok: Tok::Str(content), line: lineno });
                if j < b.len() && b[j] == '"' {
                    i = j + 1;
                } else {
                    // Multi-line string: the rest of the literal is
                    // blanks on later lines; skip this line's tail.
                    i = b.len();
                }
                // Trailing raw-string hashes.
                while i < b.len() && b[i] == '#' {
                    i += 1;
                }
            } else if c == '\'' {
                // Lifetime (`'a`) or a blanked char literal (`' '`).
                if b.get(i + 1).copied().is_some_and(is_ident_start)
                    && b.get(i + 2) != Some(&'\'')
                {
                    i += 1;
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                    out.push(SpannedTok { tok: Tok::Lifetime, line: lineno });
                } else {
                    let mut j = i + 1;
                    while j < b.len() && b[j] != '\'' {
                        j += 1;
                    }
                    i = (j + 1).min(b.len());
                    out.push(SpannedTok { tok: Tok::Num, line: lineno });
                }
            } else if c == ':' && b.get(i + 1) == Some(&':') {
                out.push(SpannedTok { tok: Tok::PathSep, line: lineno });
                i += 2;
            } else if c == '-' && b.get(i + 1) == Some(&'>') {
                out.push(SpannedTok { tok: Tok::Arrow, line: lineno });
                i += 2;
            } else if c == '=' && b.get(i + 1) == Some(&'>') {
                out.push(SpannedTok { tok: Tok::FatArrow, line: lineno });
                i += 2;
            } else {
                out.push(SpannedTok { tok: Tok::P(c), line: lineno });
                i += 1;
            }
        }
    }
    out
}

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

/// A lock-related operation at a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqOp {
    Lock,
    Read,
    Write,
    /// `try_lock` — held for scope purposes, but never an order edge
    /// (matching runtime lockdep).
    TryLock,
}

/// Events inside one function body, in source order. The flow passes
/// read only `Call`; the lock-order pass replays the full sequence.
#[derive(Debug, Clone)]
pub enum BodyEvent {
    Call(CallSite),
    /// `recv.lock()` etc: `receiver` is the last path ident before the
    /// method (`self.state.lock()` → `state`; plain `self.lock()` falls
    /// back to the enclosing impl type).
    Acquire {
        receiver: String,
        op: AcqOp,
        line: usize,
        /// `let g = …` binding name, when the guard is named.
        guard: Option<String>,
        /// Brace depth the binding lives at (guard dies when the walk
        /// closes back below it). Statement-temporary guards die at the
        /// next `EndStmt`.
        depth: usize,
    },
    /// `drop(g)` of a named guard.
    DropGuard { name: String, line: usize },
    /// A `}` closed; `depth` is the brace depth after closing.
    CloseBlock { depth: usize },
    /// A `;` at statement level: temporaries die here.
    EndStmt,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: Callee,
    pub line: usize,
    /// Empty-argument call (`h.join()`), used to tell thread joins from
    /// `Path::join("…")`.
    pub zero_args: bool,
    /// Argument count when it can be read confidently off the tokens;
    /// `None` when the list contains closures, comparisons, or anything
    /// else that defeats comma counting. Used to prune method fan-out:
    /// a three-argument `station.send(mac, ethertype, payload)` can
    /// never be the one-argument `IlConn::send(&self, msg)`.
    pub args: Option<usize>,
    /// `// blocking-ok: <reason>` on this or the preceding line.
    pub blocking_ok: Option<String>,
    /// `// checked: <reason>` on this or the preceding line.
    pub checked: bool,
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
    pub impl_type: Option<String>,
    /// Item name; synthetic roots are named `{closure}`.
    pub name: String,
    pub file: String,
    pub line: usize,
    pub has_self: bool,
    /// Declared parameter count excluding `self`, when the signature
    /// was countable.
    pub params: Option<usize>,
    /// `Some` iff this is a synthetic root-closure node.
    pub root: Option<RootKind>,
    pub body: Vec<BodyEvent>,
}

impl FnNode {
    /// A human-readable handle: `crate::module::Type::name`.
    pub fn qualified(&self) -> String {
        let mut parts = vec![self.crate_name.clone()];
        parts.extend(self.module.iter().cloned());
        if let Some(t) = &self.impl_type {
            parts.push(t.clone());
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

/// A `Mutex::named`/`RwLock::named` construction site.
#[derive(Debug, Clone)]
pub struct NamedClassSite {
    /// The lockdep class string.
    pub class: String,
    /// The `let`/field ident the lock is bound to, when recognizable.
    pub binding: Option<String>,
    /// The enclosing impl type, if any.
    pub impl_type: Option<String>,
    pub crate_name: String,
    pub file: String,
    pub line: usize,
}

/// The workspace call graph plus the lock-class table.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    pub classes: Vec<NamedClassSite>,
    /// fn-name → node indices, for resolution.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Count of call sites that resolved to at least one node.
    pub resolved_calls: usize,
    /// Call sites naming something outside the workspace (std, field
    /// inits that look like calls, …).
    pub unresolved_calls: usize,
    /// crate → transitive workspace dependencies (not including the
    /// crate itself), from Cargo.toml. Resolution uses the build DAG to
    /// reject candidates the caller cannot link against — a method call
    /// in `support` can never land in `streams`, whatever the name says.
    /// An absent entry (unit-test graphs built via [`scan_file`])
    /// disables the filter for that crate.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// file → every identifier appearing in it. A file that never
    /// names a type cannot call its inherent methods, so cross-crate
    /// method candidates are pruned unless the caller's file mentions
    /// the impl type somewhere (import, field type, constructor, …).
    pub file_idents: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Node indices a call from `caller` may reach. The "conservative
    /// fan-out": method calls resolve by bare name (same-crate
    /// candidates preferred); bare calls resolve same-module, then
    /// same-crate, then workspace; path calls match module-path or
    /// impl-type suffixes. Macros never resolve.
    pub fn resolve(&self, caller: usize, call: &Callee) -> Vec<usize> {
        self.resolve_with_args(caller, call, None)
    }

    /// For a cross-crate method candidate, requires the caller's file
    /// to mention the candidate's impl type by name: `q.remove(0)` in
    /// `inet` cannot be ninep's `NineClient::remove` when the word
    /// `NineClient` never occurs in the file. Same-crate candidates are
    /// exempt so intra-crate trait dispatch keeps resolving, and files
    /// without an ident table (unit-test graphs) skip the filter.
    fn type_mentioned(&self, caller: usize, target: usize) -> bool {
        let (me, f) = (&self.fns[caller], &self.fns[target]);
        if f.crate_name == me.crate_name {
            return true;
        }
        let Some(ty) = &f.impl_type else { return true };
        match self.file_idents.get(&me.file) {
            Some(ids) => ids.contains(ty),
            None => true,
        }
    }

    /// [`resolve`] with the call site's argument count, when known:
    /// method candidates whose declared parameter count provably
    /// mismatches are pruned before the fan-out preference.
    pub fn resolve_with_args(
        &self,
        caller: usize,
        call: &Callee,
        args: Option<usize>,
    ) -> Vec<usize> {
        let me = &self.fns[caller];
        match call {
            Callee::Macro(_) => Vec::new(),
            Callee::Method(name) => {
                let all: Vec<usize> = self
                    .by_name
                    .get(name)
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&i| {
                                let f = &self.fns[i];
                                f.has_self
                                    && self.may_call(caller, i)
                                    && self.type_mentioned(caller, i)
                                    && match (args, f.params) {
                                        (Some(a), Some(p)) => a == p,
                                        _ => true,
                                    }
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let same_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].crate_name == me.crate_name)
                    .collect();
                if same_crate.is_empty() {
                    all
                } else {
                    same_crate
                }
            }
            Callee::Bare(name) => {
                // `drop(x)` is always `std::mem::drop`: calling a
                // `Drop::drop` impl explicitly is a compile error, so
                // edges into workspace `fn drop`s cannot be real.
                if name == "drop" {
                    return Vec::new();
                }
                let all: Vec<usize> = match self.by_name.get(name) {
                    Some(v) => {
                        v.iter()
                            .copied()
                            .filter(|&i| {
                                self.may_call(caller, i)
                                    && match (args, self.fns[i].params) {
                                        (Some(a), Some(p)) => a == p,
                                        _ => true,
                                    }
                            })
                            .collect()
                    }
                    None => return Vec::new(),
                };
                let same_module: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].crate_name == me.crate_name && self.fns[i].module == me.module
                    })
                    .collect();
                if !same_module.is_empty() {
                    return same_module;
                }
                let same_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].crate_name == me.crate_name)
                    .collect();
                if same_crate.is_empty() {
                    all
                } else {
                    same_crate
                }
            }
            Callee::Path(segs) => {
                let (name, mut qual) = match segs.split_last() {
                    Some((n, q)) => (n.clone(), q.to_vec()),
                    None => return Vec::new(),
                };
                // `plan9_foo::…` names workspace crate `foo`; `crate`,
                // `self`, `super` qualifiers are softened to
                // same-crate matching.
                let mut want_crate: Option<String> = None;
                if let Some(first) = qual.first().cloned() {
                    if let Some(c) = first.strip_prefix("plan9_") {
                        want_crate = Some(c.to_string());
                        qual.remove(0);
                    } else if first == "crate" || first == "self" || first == "super" {
                        want_crate = Some(me.crate_name.clone());
                        qual.remove(0);
                    } else if first == "std" || first == "core" || first == "alloc" {
                        return Vec::new();
                    }
                }
                let all = match self.by_name.get(&name) {
                    Some(v) => v.clone(),
                    None => return Vec::new(),
                };
                all.into_iter()
                    .filter(|&i| {
                        if !self.may_call(caller, i) {
                            return false;
                        }
                        let f = &self.fns[i];
                        if let Some(c) = &want_crate {
                            if &f.crate_name != c {
                                return false;
                            }
                        }
                        if qual.is_empty() {
                            return true;
                        }
                        // Qualifier must suffix-match the node's module
                        // path, optionally ending on the impl type:
                        // `pool::submit`, `Queue::get`, `arp::Cache::wait_for`.
                        let mut full: Vec<&str> = Vec::new();
                        full.push(f.crate_name.as_str());
                        full.extend(f.module.iter().map(String::as_str));
                        if let Some(t) = &f.impl_type {
                            full.push(t.as_str());
                        }
                        if qual.len() > full.len() {
                            return false;
                        }
                        full[full.len() - qual.len()..]
                            .iter()
                            .zip(qual.iter())
                            .all(|(a, b)| *a == b)
                    })
                    .collect()
            }
        }
    }

    /// Whether the build DAG lets code in `caller`'s crate name the
    /// target node at all.
    fn may_call(&self, caller: usize, target: usize) -> bool {
        let from = &self.fns[caller].crate_name;
        let to = &self.fns[target].crate_name;
        if from == to {
            return true;
        }
        match self.deps.get(from) {
            Some(d) => d.contains(to),
            None => true,
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

    pub(crate) fn index(&mut self) {
        self.by_name.clear();
        for (i, f) in self.fns.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut resolved = 0usize;
        let mut unresolved = 0usize;
        for i in 0..self.fns.len() {
            let calls: Vec<(Callee, Option<usize>)> =
                self.fns[i].calls().map(|c| (c.callee.clone(), c.args)).collect();
            for (c, args) in &calls {
                if matches!(c, Callee::Macro(_)) {
                    continue;
                }
                if self.resolve_with_args(i, c, *args).is_empty() {
                    unresolved += 1;
                } else {
                    resolved += 1;
                }
            }
        }
        self.resolved_calls = resolved;
        self.unresolved_calls = unresolved;
    }
}

// ---------------------------------------------------------------------------
// The parser.

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "as", "in",
    "move", "let", "mut", "ref", "dyn", "where", "unsafe", "async", "await", "const", "static",
    "pub", "use", "mod", "struct", "enum", "union", "type", "trait", "impl", "fn", "extern",
    "crate", "super", "box", "yield", "true", "false",
];

struct ScopeFrame {
    kind: ScopeKind,
    /// Brace depth *inside* this scope; the scope pops when depth drops
    /// below this.
    inner_depth: usize,
}

enum ScopeKind {
    Module(String),
    Impl(Option<String>),
    Fn { node: usize },
    /// A root closure with a braced body.
    RootClosure { node: usize },
}

/// A root closure with an expression body, terminated by `,`/`)` at
/// `paren_depth`.
struct ExprClosure {
    node: usize,
    paren_depth: usize,
}

struct Parser<'a> {
    toks: &'a [SpannedTok],
    pos: usize,
    brace_depth: usize,
    paren_depth: usize,
    scopes: Vec<ScopeFrame>,
    expr_closures: Vec<ExprClosure>,
    /// Armed by a root-registration call until its closure argument (if
    /// any) is found: (kind, paren depth inside the call).
    pending_root: Option<(RootKind, usize)>,
    /// Tokens of the current statement, for `let` guard binding lookup.
    stmt_start: usize,
    graph: &'a mut CallGraph,
    src: &'a SourceFile,
}

impl<'a> Parser<'a> {
    fn peek(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.pos + k).map(|t| &t.tok)
    }

    fn line(&self, k: usize) -> usize {
        self.toks
            .get((self.pos + k).min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
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

    fn impl_type(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(t) => t.clone(),
            _ => None,
        })
    }

    /// The innermost node body to attribute events to (root closure
    /// wins over enclosing fn).
    fn current_node(&self) -> Option<usize> {
        if let Some(ec) = self.expr_closures.last() {
            return Some(ec.node);
        }
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Fn { node } | ScopeKind::RootClosure { node } => Some(*node),
            _ => None,
        })
    }

    fn push_event(&mut self, ev: BodyEvent) {
        if let Some(n) = self.current_node() {
            self.graph.fns[n].body.push(ev);
        }
    }

    /// Skips a balanced `<…>` generic-argument list starting at the
    /// current `<`. Gives up (consuming nothing) if no balanced close
    /// is found nearby — then it was a comparison, not generics.
    fn try_skip_generics(&mut self) -> bool {
        let mut depth = 0i32;
        let mut k = 0usize;
        while let Some(t) = self.peek(k) {
            match t {
                Tok::P('<') => depth += 1,
                Tok::P('>') => {
                    depth -= 1;
                    if depth == 0 {
                        for _ in 0..=k {
                            self.advance_raw();
                        }
                        return true;
                    }
                }
                Tok::P(';') | Tok::P('{') => return false,
                _ => {}
            }
            k += 1;
            if k > 120 {
                return false; // not a generics list
            }
        }
        false
    }

    /// Consumes one token, maintaining depths and scope pops. The only
    /// place `{`/`}`/`(`/`)`/`;` bookkeeping happens.
    fn advance_raw(&mut self) {
        let Some(st) = self.toks.get(self.pos) else {
            return;
        };
        match &st.tok {
            Tok::P('{') => self.brace_depth += 1,
            Tok::P('}') => {
                self.brace_depth = self.brace_depth.saturating_sub(1);
                let depth = self.brace_depth;
                while let Some(top) = self.scopes.last() {
                    if depth < top.inner_depth {
                        self.scopes.pop();
                    } else {
                        break;
                    }
                }
                self.push_event(BodyEvent::CloseBlock { depth });
            }
            Tok::P('(') => self.paren_depth += 1,
            Tok::P(')') => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                let depth = self.paren_depth;
                while let Some(ec) = self.expr_closures.last() {
                    if depth < ec.paren_depth {
                        self.expr_closures.pop();
                    } else {
                        break;
                    }
                }
                if let Some((_, pd)) = self.pending_root {
                    if depth < pd {
                        self.pending_root = None;
                    }
                }
            }
            Tok::P(',') => {
                let depth = self.paren_depth;
                while let Some(ec) = self.expr_closures.last() {
                    if depth <= ec.paren_depth {
                        self.expr_closures.pop();
                    } else {
                        break;
                    }
                }
            }
            Tok::P(';') if self.paren_depth == 0 => {
                self.push_event(BodyEvent::EndStmt);
                self.stmt_start = self.pos + 1;
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
        if self.peek(0) != Some(&Tok::P('[')) {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            match t {
                Tok::P('[') => depth += 1,
                Tok::P(']') => {
                    depth -= 1;
                    if depth == 0 {
                        self.advance_raw();
                        return;
                    }
                }
                _ => {}
            }
            self.advance_raw();
        }
    }

    /// Skips a whole `macro_rules! name { … }` definition.
    fn skip_macro_rules(&mut self) {
        // At `macro_rules`; skip `! name` then the balanced braces.
        while let Some(t) = self.peek(0) {
            if matches!(t, Tok::P('{')) {
                break;
            }
            self.advance_raw();
        }
        let open_depth = self.brace_depth;
        if self.peek(0) == Some(&Tok::P('{')) {
            self.advance_raw();
            while self.brace_depth > open_depth && self.peek(0).is_some() {
                // Raw advance only: macro bodies are not Rust code.
                let t = self.toks[self.pos].tok.clone();
                match t {
                    Tok::P('{') => self.brace_depth += 1,
                    Tok::P('}') => self.brace_depth -= 1,
                    _ => {}
                }
                self.pos += 1;
            }
        }
    }

    /// Parses a `fn` item header at the `fn` keyword; pushes a Fn scope
    /// if the item has a body.
    fn parse_fn(&mut self) {
        let line = self.line(0);
        self.advance_raw(); // fn
        let name = match self.peek(0) {
            Some(Tok::Ident(n)) => n.clone(),
            _ => return,
        };
        self.advance_raw();
        if self.peek(0) == Some(&Tok::P('<')) {
            self.try_skip_generics();
        }
        if self.peek(0) != Some(&Tok::P('(')) {
            return;
        }
        // Scan the parameter list for a leading self.
        let mut has_self = false;
        let mut k = 1usize;
        while k < 8 {
            match self.peek(k) {
                Some(Tok::P('&')) | Some(Tok::Lifetime) | Some(Tok::Ident(_)) => {
                    if let Some(Tok::Ident(id)) = self.peek(k) {
                        if id == "self" {
                            has_self = true;
                            break;
                        }
                        if id != "mut" {
                            break;
                        }
                    }
                    k += 1;
                }
                _ => break,
            }
        }
        // Consume the parameter list, counting top-level parameters.
        // Commas inside nested brackets or generics (`HashMap<K, V>`)
        // are not separators; in signature position `<`/`>` are always
        // generics, so plain depth tracking is enough.
        let open = self.paren_depth;
        self.advance_raw(); // (
        // Rustfmt leaves trailing commas on multi-line lists, so a
        // parameter is counted when content *follows* a separator, not
        // per comma.
        let mut count = 0usize;
        let mut angle = 0i32;
        let mut open_param = false;
        let mut countable = true;
        while self.paren_depth > open && self.peek(0).is_some() {
            match self.peek(0) {
                Some(Tok::P('<')) => angle += 1,
                Some(Tok::P('>')) => {
                    if angle == 0 {
                        countable = false;
                    } else {
                        angle -= 1;
                    }
                }
                Some(Tok::P(',')) if self.paren_depth == open + 1 && angle == 0 => {
                    open_param = false;
                }
                // The list's own `)` is not parameter content (it is
                // what an empty list closes with).
                Some(Tok::P(')')) if self.paren_depth == open + 1 => {}
                Some(_) if !open_param => {
                    count += 1;
                    open_param = true;
                }
                _ => {}
            }
            self.advance_raw();
        }
        let params = if countable {
            // `self` is not a caller-supplied argument.
            Some(count.saturating_sub(usize::from(has_self)))
        } else {
            None
        };
        // Find the body `{` (or `;` for a trait declaration) at
        // statement level, skipping `-> T` and `where` clauses.
        loop {
            match self.peek(0) {
                Some(Tok::P('{')) => break,
                Some(Tok::P(';')) | None => return, // no body
                Some(Tok::P('<')) => {
                    if !self.try_skip_generics() {
                        self.advance_raw();
                    }
                }
                _ => self.advance_raw(),
            }
        }
        let node = self.graph.fns.len();
        self.graph.fns.push(FnNode {
            crate_name: self.src.crate_name.clone(),
            module: self.module_path(),
            impl_type: self.impl_type(),
            name,
            file: self.src.file.clone(),
            line,
            has_self,
            params,
            root: None,
            body: Vec::new(),
        });
        self.advance_raw(); // {
        self.scopes.push(ScopeFrame {
            kind: ScopeKind::Fn { node },
            inner_depth: self.brace_depth,
        });
        self.stmt_start = self.pos;
    }

    /// Parses `impl …` / `trait …` headers, pushing an Impl scope.
    fn parse_impl(&mut self, is_trait: bool) {
        self.advance_raw(); // impl | trait
        if self.peek(0) == Some(&Tok::P('<')) {
            self.try_skip_generics();
        }
        // Collect idents until `{`; the type is the first path segment
        // after `for` (trait impls) or the first segment otherwise.
        let mut first: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        loop {
            match self.peek(0) {
                Some(Tok::P('{')) | Some(Tok::P(';')) | None => break,
                Some(Tok::Ident(id)) => {
                    if id == "for" {
                        saw_for = true;
                    } else if saw_for {
                        if after_for.is_none() {
                            after_for = Some(id.clone());
                        }
                    } else if first.is_none() && id != "dyn" {
                        first = Some(id.clone());
                    }
                    self.advance_raw();
                }
                Some(Tok::P('<')) => {
                    if !self.try_skip_generics() {
                        self.advance_raw();
                    }
                }
                _ => self.advance_raw(),
            }
        }
        let ty = if is_trait { first } else { after_for.or(first) };
        if self.peek(0) == Some(&Tok::P('{')) {
            self.advance_raw();
            self.scopes.push(ScopeFrame {
                kind: ScopeKind::Impl(ty),
                inner_depth: self.brace_depth,
            });
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
            if first == "fn" {
                self.parse_fn();
            } else if first == "impl" {
                self.parse_impl(false);
            } else if first == "trait" {
                self.parse_impl(true);
            } else if first == "mod" {
                self.advance_raw();
                if let Some(Tok::Ident(name)) = self.peek(0).cloned() {
                    self.advance_raw();
                    if self.peek(0) == Some(&Tok::P('{')) {
                        self.advance_raw();
                        self.scopes.push(ScopeFrame {
                            kind: ScopeKind::Module(name),
                            inner_depth: self.brace_depth,
                        });
                    }
                }
            } else if first == "use" {
                // `use …;` — skip so grouped imports aren't parsed as
                // blocks/calls.
                while let Some(t) = self.peek(0) {
                    if matches!(t, Tok::P(';')) {
                        break;
                    }
                    self.advance_raw();
                }
            } else {
                self.advance_raw();
            }
            return true;
        }
        if first == "macro_rules" {
            self.skip_macro_rules();
            return true;
        }

        // Gather the path.
        let mut segs = vec![first.clone()];
        let mut k = 1usize;
        loop {
            if self.peek(k) == Some(&Tok::PathSep) {
                match self.peek(k + 1) {
                    Some(Tok::Ident(id)) => {
                        segs.push(id.clone());
                        k += 2;
                    }
                    Some(Tok::P('<')) => {
                        // Turbofish `::<…>`: treat as end of path; the
                        // generic list is skipped below.
                        break;
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        let call_line = self.line(k.saturating_sub(1));
        // Advance over the path tokens.
        for _ in 0..k {
            self.advance_raw();
        }
        // Optional turbofish.
        if self.peek(0) == Some(&Tok::PathSep) && self.peek(1) == Some(&Tok::P('<')) {
            self.advance_raw();
            self.try_skip_generics();
        }

        // Macro invocation?
        if self.peek(0) == Some(&Tok::P('!')) {
            if matches!(self.peek(1), Some(Tok::P('(')) | Some(Tok::P('[')) | Some(Tok::P('{'))) {
                let ann = self.src.ann_at(call_line);
                self.push_event(BodyEvent::Call(CallSite {
                    callee: Callee::Macro(segs.last().cloned().unwrap_or_default()),
                    line: call_line,
                    zero_args: false,
                    args: None,
                    blocking_ok: ann.blocking_ok,
                    checked: ann.checked,
                }));
            }
            return true;
        }

        if self.peek(0) != Some(&Tok::P('(')) {
            return true;
        }
        let zero_args = self.peek(1) == Some(&Tok::P(')'));
        let args = self.call_arity(self.pos);
        let name = segs.last().cloned().unwrap_or_default();

        // `drop(g)` of a named guard.
        if segs.len() == 1 && name == "drop" {
            if let (Some(Tok::Ident(g)), Some(Tok::P(')'))) = (self.peek(1), self.peek(2)) {
                let g = g.clone();
                self.push_event(BodyEvent::DropGuard { name: g, line: call_line });
            }
        }

        // Named lock classes: `Mutex::named(value, "class")`.
        if name == "named"
            && segs.len() >= 2
            && matches!(segs[segs.len() - 2].as_str(), "Mutex" | "RwLock")
        {
            self.record_named_class(call_line);
        }

        let ann = self.src.ann_at(call_line);
        let callee = if segs.len() > 1 {
            Callee::Path(segs.clone())
        } else {
            Callee::Bare(name.clone())
        };
        self.push_event(BodyEvent::Call(CallSite {
            callee,
            line: call_line,
            zero_args,
            args,
            blocking_ok: ann.blocking_ok,
            checked: ann.checked,
        }));

        // Root registrations: arm closure capture inside the argument
        // list. Recognized only with their module qualifier, matching
        // real call spelling (`pool::submit(…)`, `wheel::schedule(…)`).
        let root = if segs.len() >= 2 {
            let q = segs[segs.len() - 2].as_str();
            match (q, name.as_str()) {
                ("pool", "submit") | ("pool", "submit_or_run") => Some(RootKind::PoolJob),
                // `conv::rearm` hands its closure on to `wheel::schedule`.
                ("wheel", "schedule") | ("conv", "rearm") => Some(RootKind::WheelCallback),
                ("vtime", "kproc") => Some(RootKind::Kproc),
                _ => None,
            }
        } else {
            None
        };
        self.advance_raw(); // (
        if let Some(kind) = root {
            self.pending_root = Some((kind, self.paren_depth));
        }
        true
    }

    /// At the opening `|` of a closure. If a root registration is
    /// armed at this paren depth, the closure becomes a synthetic root
    /// node; otherwise its body simply attributes to the enclosing fn.
    fn parse_closure_start(&mut self) {
        let line = self.line(0);
        let root = match self.pending_root {
            Some((kind, pd)) if pd == self.paren_depth => {
                self.pending_root = None;
                Some(kind)
            }
            _ => None,
        };
        // Skip the parameter list `|…|`.
        self.advance_raw(); // |
        let mut guard = 0;
        while let Some(t) = self.peek(0) {
            if matches!(t, Tok::P('|')) {
                self.advance_raw();
                break;
            }
            self.advance_raw();
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        let Some(kind) = root else {
            return;
        };
        let node = self.graph.fns.len();
        self.graph.fns.push(FnNode {
            crate_name: self.src.crate_name.clone(),
            module: self.module_path(),
            impl_type: self.impl_type(),
            name: "{closure}".to_string(),
            file: self.src.file.clone(),
            line,
            has_self: false,
            params: None,
            root: Some(kind),
            body: Vec::new(),
        });
        if self.peek(0) == Some(&Tok::P('{')) {
            self.advance_raw();
            self.scopes.push(ScopeFrame {
                kind: ScopeKind::RootClosure { node },
                inner_depth: self.brace_depth,
            });
        } else {
            self.expr_closures.push(ExprClosure {
                node,
                paren_depth: self.paren_depth,
            });
        }
    }

    /// Counts the arguments of a call whose `(` sits at absolute token
    /// index `open`. Returns `None` when the list contains tokens that
    /// defeat comma counting in expression position — closures (`|`)
    /// or comparison/generic angles, where `a < b` and `f::<A, B>` are
    /// indistinguishable without types.
    fn call_arity(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut count = 0usize;
        let mut open_arg = false;
        let mut j = open;
        while j < self.toks.len() {
            match &self.toks[j].tok {
                Tok::P('(') | Tok::P('[') | Tok::P('{') => {
                    if depth > 0 && !open_arg {
                        count += 1;
                        open_arg = true;
                    }
                    depth += 1;
                }
                Tok::P(')') | Tok::P(']') | Tok::P('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(count);
                    }
                }
                Tok::P(',') if depth == 1 => open_arg = false,
                Tok::P('<') | Tok::P('>') | Tok::P('|') if depth == 1 => return None,
                _ => {
                    if !open_arg {
                        count += 1;
                        open_arg = true;
                    }
                }
            }
            j += 1;
        }
        None
    }

    /// Records a `.lock()`-family acquisition. The receiver ident is
    /// the path component before the final method (`shard.state.lock()`
    /// → `state`); a bare `self.lock()` falls back to the impl type.
    fn record_acquire(&mut self, op: AcqOp, line: usize) {
        // Walk back from the current position (we sit at the method
        // name's trailing `(` …): tokens before the method ident are
        // `.`, then the receiver.
        let mut receiver = String::new();
        // position of the method ident is pos-1 relative? The caller
        // sits after consuming the path; reconstruct from the token
        // stream: find the `.` preceding the method name.
        let mut k = self.pos as isize - 2; // method ident at pos-1, '.' expected at pos-2
        if k >= 0 && matches!(self.toks[k as usize].tok, Tok::P('.')) {
            let mut j = k - 1;
            // Skip a call's `(...)` to name `f().lock()` by `f`.
            if j >= 0 && matches!(self.toks[j as usize].tok, Tok::P(')')) {
                let mut depth = 0i32;
                while j >= 0 {
                    match self.toks[j as usize].tok {
                        Tok::P(')') => depth += 1,
                        Tok::P('(') => {
                            depth -= 1;
                            if depth == 0 {
                                j -= 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j -= 1;
                }
            }
            if j >= 0 {
                if let Tok::Ident(id) = &self.toks[j as usize].tok {
                    receiver = id.clone();
                }
            }
        } else {
            k += 1; // no dot: bare `lock(` — not a method acquisition
            let _ = k;
            return;
        }
        if receiver == "self" || receiver.is_empty() {
            receiver = self.impl_type().unwrap_or_else(|| "self".to_string());
        }
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
        // the acquire call itself (`let g = x.lock();`). A chained
        // method consumes the guard as a statement temporary —
        // `let v = x.lock().get(k).cloned();` binds `v` to the clone,
        // and the lock is gone at the `;`. Mistaking `v` for a guard
        // holds the class for the rest of the body and manufactures
        // phantom lock-order edges.
        if guard.is_some() {
            let mut j = self.pos; // at the call's `(`
            let mut depth = 0i32;
            while j < self.toks.len() {
                match self.toks[j].tok {
                    Tok::P('(') => depth += 1,
                    Tok::P(')') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if self.toks.get(j).is_some_and(|t| matches!(t.tok, Tok::P('.'))) {
                guard = None;
            }
        }
        // Bindings introduced inside `if let`/`while let`/`match` live
        // one block deeper than the current depth.
        let stmt_head = self.toks[self.stmt_start..self.pos]
            .iter()
            .find_map(|t| match &t.tok {
                Tok::Ident(id) => Some(id.clone()),
                _ => None,
            })
            .unwrap_or_default();
        let depth = if matches!(stmt_head.as_str(), "if" | "while" | "match") {
            self.brace_depth + 1
        } else {
            self.brace_depth
        };
        self.push_event(BodyEvent::Acquire {
            receiver,
            op,
            line,
            guard,
            depth,
        });
    }

    /// Records a `Mutex::named(value, "class")` site: scans forward for
    /// the last string literal inside the argument list, and backward
    /// for the binding ident (`let x =`, `field:`).
    fn record_named_class(&mut self, line: usize) {
        // Forward: self.pos is at the `(`-to-be (the path was already
        // consumed by the caller? no — caller calls us *before*
        // consuming `(`). Scan from the `(` for a balanced close.
        let mut k = 0usize;
        if self.peek(0) != Some(&Tok::P('(')) {
            return;
        }
        let mut depth = 0i32;
        let mut class: Option<String> = None;
        while let Some(t) = self.peek(k) {
            match t {
                Tok::P('(') => depth += 1,
                Tok::P(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Str(s) if depth == 1 && !s.is_empty() => {
                    class = Some(s.clone());
                }
                _ => {}
            }
            k += 1;
            if k > 4096 {
                break;
            }
        }
        let Some(class) = class else {
            return;
        };
        // Backward from the path start: `ident :` (field init) or
        // `let ident =` (binding). The path is 3 tokens (`Mutex`, `::`,
        // `named`) plus any leading qualifier; search back a few
        // tokens for `:` or `=` preceded by an ident.
        let mut binding = None;
        let mut j = self.pos as isize - 1;
        let mut steps = 0;
        while j > 0 && steps < 10 {
            match &self.toks[j as usize].tok {
                Tok::P(':') | Tok::P('=') => {
                    if let Tok::Ident(id) = &self.toks[j as usize - 1].tok {
                        if !KEYWORDS.contains(&id.as_str()) {
                            binding = Some(id.clone());
                        }
                    }
                    break;
                }
                Tok::Ident(_) | Tok::PathSep => {
                    j -= 1;
                    steps += 1;
                }
                _ => break,
            }
        }
        self.graph.classes.push(NamedClassSite {
            class,
            binding,
            impl_type: self.impl_type(),
            crate_name: self.src.crate_name.clone(),
            file: self.src.file.clone(),
            line,
        });
    }

    fn run(&mut self) {
        while self.pos < self.toks.len() {
            match self.peek(0) {
                Some(Tok::P('#')) => self.skip_attribute(),
                // `|` only matters when a root registration is waiting
                // for its closure argument at this argument depth —
                // everywhere else it is bitwise-or / a match-arm pipe /
                // an ordinary closure whose calls attribute to the
                // enclosing fn anyway.
                Some(Tok::P('|'))
                    if matches!(self.pending_root, Some((_, pd)) if pd == self.paren_depth) =>
                {
                    self.parse_closure_start()
                }
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
        // Turbofish.
        if self.peek(k) == Some(&Tok::PathSep) && self.peek(k + 1) == Some(&Tok::P('<')) {
            // Conservatively scan to the closing `>` then expect `(`.
            let mut depth = 0i32;
            let mut j = k + 1;
            loop {
                match self.peek(j) {
                    Some(Tok::P('<')) => depth += 1,
                    Some(Tok::P('>')) => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    Some(Tok::P(';')) | None => return false,
                    _ => {}
                }
                j += 1;
            }
            k = j;
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
        let args = self.call_arity(self.pos + k);
        // Advance over name and any turbofish up to the `(`.
        for _ in 0..k {
            self.advance_raw();
        }
        let op = match name.as_str() {
            "lock" => Some(AcqOp::Lock),
            "read" => Some(AcqOp::Read),
            "write" => Some(AcqOp::Write),
            "try_lock" => Some(AcqOp::TryLock),
            _ => None,
        };
        if let Some(op) = op {
            self.record_acquire(op, call_line);
        }
        let ann = self.src.ann_at(call_line);
        self.push_event(BodyEvent::Call(CallSite {
            callee: Callee::Method(name.clone()),
            line: call_line,
            zero_args,
            args,
            blocking_ok: ann.blocking_ok,
            checked: ann.checked,
        }));
        self.advance_raw(); // (
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
    let toks = tokenize(src);
    let idents = graph.file_idents.entry(src.file.clone()).or_default();
    for t in &toks {
        if let Tok::Ident(id) = &t.tok {
            idents.insert(id.clone());
        }
    }
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        brace_depth: 0,
        paren_depth: 0,
        scopes: Vec::new(),
        expr_closures: Vec::new(),
        pending_root: None,
        stmt_start: 0,
        graph,
        src,
    };
    p.run();
}

/// Reads the workspace-internal dependencies (`plan9-foo = …`) out of
/// one crate's Cargo.toml. Line-oriented on purpose: the manifests here
/// are flat, and the check crate parses nothing it doesn't have to.
fn direct_deps(manifest: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in manifest.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("plan9-") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            // `plan9-foo.workspace = true` leaves `foo.workspace` —
            // keep only the crate segment.
            let name = name.split('.').next().unwrap_or("").replace('-', "_");
            if !name.is_empty() {
                out.insert(name);
            }
        }
    }
    out
}

/// Transitive closure of [`direct_deps`] across the workspace.
fn close_deps(direct: &BTreeMap<String, BTreeSet<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut closed = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for name in direct.keys() {
            let reach: Vec<String> = closed[name]
                .iter()
                .flat_map(|d| closed.get(d).into_iter().flatten().cloned())
                .collect();
            let set = closed.get_mut(name).unwrap();
            for r in reach {
                changed |= set.insert(r);
            }
        }
    }
    closed
}

/// Builds the call graph of a workspace already read.
pub fn graph_of(ws: &Workspace) -> CallGraph {
    let mut graph = CallGraph::default();
    for src in &ws.files {
        scan_file(&mut graph, src);
    }
    let crates = ws.manifests.iter().filter(|(name, ..)| !name.is_empty());
    graph.deps = close_deps(&crates.map(|(name, _, text)| (name.clone(), direct_deps(text))).collect());
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

    #[test]
    fn fn_items_and_calls_parse() {
        let g = graph_of(
            "fn a() { b(); helper::c(); }\nfn b() {}\nmod helper { pub fn c() { super::b(); } }\n",
        );
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
        assert_eq!(get.impl_type.as_deref(), Some("Q"));
        assert!(get.has_self);
        let user = find(&g, "user");
        let calls: Vec<_> = user.calls().collect();
        assert_eq!(calls.len(), 1);
        assert!(matches!(&calls[0].callee, Callee::Method(m) if m == "get"));
        // Resolution: the method resolves to Q::get.
        let user_idx = g.fns.iter().position(|f| f.name == "user").unwrap();
        let targets = g.resolve(user_idx, &calls[0].callee.clone());
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns[targets[0]].name, "get");
    }

    #[test]
    fn cfg_test_regions_are_invisible() {
        let g = graph_of(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n}\n",
        );
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
            "fn arm(at: Instant) {\n    wheel::schedule(1, at, move || fire())?;\n    station.set_rx_handler(key, move |frame| handle(frame));\n    conv::rearm(&mut t, 1, Some(at), move || fire())?;\n    stack.set_rx_tap(move |frame| handle(frame));\n}\nfn fire() {}\nfn handle(_f: u8) {}\n",
        );
        let kinds: Vec<RootKind> = g.roots().map(|(_, f)| f.root.unwrap()).collect();
        use RootKind::{RxHandler, WheelCallback};
        assert_eq!(kinds, vec![WheelCallback, RxHandler, WheelCallback, RxHandler]);
    }

    #[test]
    fn non_root_closures_attribute_to_enclosing_fn() {
        let g = graph_of(
            "fn f(v: Vec<u8>) {\n    v.iter().map(|x| g(*x)).count();\n}\nfn g(_x: u8) {}\n",
        );
        let f = find(&g, "f");
        let names: Vec<&str> = f.calls().map(|c| c.callee.name()).collect();
        assert!(names.contains(&"g"), "{names:?}");
        assert_eq!(g.roots().count(), 0);
    }

    #[test]
    fn named_class_sites_capture_binding_and_string() {
        let g = graph_of(
            "struct S { state: Mutex<u8> }\nimpl S {\n    fn new() -> S {\n        S { state: Mutex::named(0, \"demo.state\") }\n    }\n}\nfn free() {\n    let l = RwLock::named((), \"demo.free\");\n    let _ = l;\n}\n",
        );
        assert_eq!(g.classes.len(), 2);
        assert_eq!(g.classes[0].class, "demo.state");
        assert_eq!(g.classes[0].binding.as_deref(), Some("state"));
        assert_eq!(g.classes[0].impl_type.as_deref(), Some("S"));
        assert_eq!(g.classes[1].class, "demo.free");
        assert_eq!(g.classes[1].binding.as_deref(), Some("l"));
    }

    #[test]
    fn acquisitions_record_receiver_and_guard() {
        let g = graph_of(
            "fn f(s: &S) {\n    let mut st = s.state.lock();\n    work();\n    drop(st);\n}\nfn work() {}\n",
        );
        let f = find(&g, "f");
        let acquires: Vec<(&str, Option<&str>)> = f
            .body
            .iter()
            .filter_map(|e| match e {
                BodyEvent::Acquire { receiver, guard, .. } => {
                    Some((receiver.as_str(), guard.as_deref()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(acquires, vec![("state", Some("st"))]);
        assert!(f
            .body
            .iter()
            .any(|e| matches!(e, BodyEvent::DropGuard { name, .. } if name == "st")));
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
        scan_file(&mut g, &SourceFile::new("support", "support/src/pool.rs", &["pool".to_string()], "pub fn submit() {}\n"));
        scan_file(&mut g, &SourceFile::new("inet", "inet/src/il.rs", &["il".to_string()], "fn service() { pool::submit(); plan9_support::pool::submit(); }\n"));
        g.index();
        let caller = g.fns.iter().position(|f| f.name == "service").unwrap();
        for call in g.fns[caller].calls().map(|c| c.callee.clone()).collect::<Vec<_>>() {
            let t = g.resolve(caller, &call);
            assert_eq!(t.len(), 1, "{call:?}");
            assert_eq!(g.fns[t[0]].qualified(), "support::pool::submit");
        }
    }
}
