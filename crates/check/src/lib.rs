//! netcheck: the repository's own static lint pass.
//!
//! The streams kernel relies on a handful of invariants that no
//! general-purpose tool checks. Four are line rules, here:
//!
//! - **raw-sync** — only `plan9-support` may touch
//!   `std::sync::{Mutex, RwLock, Condvar}`; everyone else uses the
//!   no-poison, lockdep-aware wrappers in `plan9_support::sync`.
//! - **wall-clock** — only `plan9-support` may read
//!   `SystemTime`/`UNIX_EPOCH`; kernel code uses monotonic `Instant`s
//!   or `plan9_support::time`.
//! - **mono-clock** — only `plan9-support` may call `Instant::now()`
//!   or `thread::sleep()`; everyone else reads time through
//!   `plan9_support::time::{now, sleep}`, so that a discrete-event run
//!   under `plan9_support::vtime` never stalls on the host clock.
//! - **registry-dep** — every manifest dependency must resolve inside
//!   this repository (`path = …` or `workspace = true`): the build is
//!   hermetic, and a registry dependency anywhere breaks the offline
//!   gate.
//!
//! The rest ask the call graph ([`graph`]): **blocking-context** and
//! **panic-reach** ([`flow`]) and **lock-cycle** ([`lockgraph`]). A
//! panic in a kernel-path crate (`streams`, `inet`, `core`, `ninep`,
//! `netsim`) is a panic-reach finding whether or not a root reaches it:
//! a panic inside a `put` routine takes down the whole stream.
//!
//! There is one front end and one lexer: [`Workspace::read`] walks
//! `crates/*` once and [`SourceFile::new`] lexes each file once, in one
//! pass over its text. The pass yields the file's tokens ([`Tok`]: a
//! string literal with its contents, a char or byte literal whole, a
//! lifetime told from a char), each line's comment text (`//` and
//! nested `/* */`), for the waivers, and drops the test-only items:
//! from a line-leading `#[cfg(test)]` or `#[test]` to the item's closing
//! brace or its `;`. The line rules here match token sequences, and
//! [`graph`]'s call-graph parser reads the same tokens. It is a lexer,
//! not a parser, with zero dependencies so it builds before anything
//! else.
//!
//! There is no tolerated count: any violation fails the gate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub mod flow;
pub mod graph;
pub mod lockgraph;
pub mod report;

/// Crates whose `src` is a kernel path: a panic there is a stream-wide
/// outage, so every panic site in them is a panic-reach finding.
pub const KERNEL_CRATES: &[&str] = &["streams", "inet", "core", "ninep", "netsim"];

/// The one crate allowed to use raw `std::sync` locks and the wall
/// clock: it *implements* the sanctioned wrappers.
pub const BOUNDARY_CRATE: &str = "support";

/// The transitive closure of a relation: each key maps to everything it
/// reaches in one step or more.
pub(crate) fn transitive<K: Ord + Clone>(mut reach: BTreeMap<K, BTreeSet<K>>) -> BTreeMap<K, BTreeSet<K>> {
    loop {
        let step = |to: &BTreeSet<K>| to.iter().flat_map(|b| reach.get(b).into_iter().flatten()).cloned().collect();
        let grown: BTreeMap<K, BTreeSet<K>> = reach.iter().map(|(a, to)| (a.clone(), to | &step(to))).collect();
        if grown == reach {
            return reach;
        }
        reach = grown;
    }
}

/// The rule classes netcheck enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `std::sync::{Mutex,RwLock,Condvar}` outside plan9-support.
    RawSync,
    /// `SystemTime`/`UNIX_EPOCH` outside plan9-support.
    WallClock,
    /// `Instant::now(`/`thread::sleep(` outside plan9-support: the
    /// monotonic clock must be read through `plan9_support::time` so
    /// discrete-event runs stay on the virtual clock.
    MonoClock,
    /// A manifest dependency that is not a path/workspace dep.
    RegistryDep,
    /// A blocking primitive (condvar wait, chan recv, sleep, join,
    /// ARP resolve) reachable from a non-blocking root (pool job,
    /// wheel callback, rx handler) without `// blocking-ok:`.
    BlockingContext,
    /// A panic site (`panic!`/`unwrap`/`expect`/…) without
    /// `// checked:`, reachable from a non-blocking root or in a kernel
    /// crate.
    PanicReach,
    /// A cycle in the static acquired-while-held lock-order graph.
    LockCycle,
}

impl Rule {
    /// The stable diagnostic code, used in output and the baseline.
    pub fn code(self) -> &'static str {
        match self {
            Rule::RawSync => "raw-sync",
            Rule::WallClock => "wall-clock",
            Rule::MonoClock => "mono-clock",
            Rule::RegistryDep => "registry-dep",
            Rule::BlockingContext => "blocking-context",
            Rule::PanicReach => "panic-reach",
            Rule::LockCycle => "lock-cycle",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One diagnostic: a rule violated at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based.
    pub line: usize,
    /// The offending source line, trimmed, for the diagnostic.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

// ---------------------------------------------------------------------------
// The lexer: one pass over a file yields the tokens every rule and the
// call-graph parser read, and the comments the waivers ride on.

/// One token of source. Comments are no tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    /// A string literal's contents as written, escapes unexpanded: a
    /// plain, byte or raw string, on one line or several.
    Str(String),
    /// A numeric, char or byte literal.
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

/// A token and the 1-based line it starts on.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub(crate) tok: Tok,
    pub(crate) line: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Where the raw string starting at `i` (`r"`, `r#"`, `br#"`, …) has
/// its opening quote, and how many `#`s close it.
fn raw_open(b: &[char], i: usize) -> Option<(usize, usize)> {
    let r = i + usize::from(b[i] == 'b');
    let hashes = b.get(r + 1..)?.iter().take_while(|&&c| c == '#').count();
    (b.get(r) == Some(&'r') && b.get(r + 1 + hashes) == Some(&'"')).then_some((r + 1 + hashes, hashes))
}

/// The index of the `"` closing the string opened at `open`: the next
/// unescaped one or, for a raw string, the next followed by its `#`s.
fn string_end(b: &[char], open: usize, raw: Option<usize>) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match (b[j], raw) {
            ('\\', None) => j += 1,
            ('"', None) => return j,
            ('"', Some(n)) if b[j + 1..].iter().take(n).filter(|&&c| c == '#').count() == n => return j,
            _ => {}
        }
        j += 1;
    }
    b.len()
}

/// Lexes a whole file: its tokens and, per line, the text of its
/// comments and whether any token covers it.
fn lex(text: &str) -> (Vec<Token>, Vec<(String, bool)>) {
    let b: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    // One spare line, for a literal left open at the end.
    let mut lines = vec![(String::new(), false); text.lines().count() + 1];
    let (mut i, mut line) = (0, 1);
    while i < b.len() {
        let (c, next, start) = (b[i], b.get(i + 1).copied(), i);
        let tok = if c == '/' && next == Some('/') {
            while i < b.len() && b[i] != '\n' {
                lines[line - 1].0.push(b[i]);
                i += 1;
            }
            continue;
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < b.len() {
                match (b[i], b.get(i + 1)) {
                    ('/', Some('*')) => (depth, i) = (depth + 1, i + 2),
                    ('*', Some('/')) => (depth, i) = (depth - 1, i + 2),
                    ('\n', _) => (line, i) = (line + 1, i + 1),
                    (c, _) => {
                        lines[line - 1].0.push(c);
                        i += 1;
                    }
                }
                if depth == 0 {
                    break;
                }
            }
            continue;
        } else if c.is_whitespace() || (c == 'b' && matches!(next, Some('"' | '\''))) {
            // A byte string or byte char lexes as the literal after its `b`.
            (line, i) = (line + usize::from(c == '\n'), i + 1);
            continue;
        } else if let Some((open, hashes)) = raw_open(&b, i) {
            let end = string_end(&b, open, Some(hashes));
            i = end + 1 + hashes;
            Tok::Str(b[open + 1..end].iter().collect())
        } else if c == '"' {
            let end = string_end(&b, i, None);
            i = end + 1;
            Tok::Str(b[start + 1..end].iter().collect())
        } else if c == '\'' && next == Some('\\') {
            // An escaped char literal: `'\n'`, `'\''`, `'\\'`, `'\u{7f}'`.
            i = (i + 3..b.len()).find(|&j| b[j] == '\'').map_or(b.len(), |j| j + 1);
            Tok::Num
        } else if c == '\'' && b.get(i + 2) == Some(&'\'') {
            i += 3;
            Tok::Num
        } else if c == '\'' {
            i += 1;
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            Tok::Lifetime
        } else if is_ident_start(c) {
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            Tok::Ident(b[start..i].iter().collect())
        } else if c.is_ascii_digit() {
            // `1.5e3`, `0xff`, `1_000u64`; the dots of a range `1..n`
            // are punctuation.
            while i < b.len() && (is_ident_char(b[i]) || (b[i] == '.' && b.get(i + 1) != Some(&'.'))) {
                i += 1;
            }
            Tok::Num
        } else {
            let (tok, len) = match (c, next) {
                (':', Some(':')) => (Tok::PathSep, 2),
                ('-', Some('>')) => (Tok::Arrow, 2),
                ('=', Some('>')) => (Tok::FatArrow, 2),
                _ => (Tok::P(c), 1),
            };
            i += len;
            tok
        };
        let first = line;
        line += b[start..i.min(b.len())].iter().filter(|&&c| c == '\n').count();
        lines[first - 1..line].iter_mut().for_each(|l| l.1 = true);
        toks.push(Token { tok, line: first });
    }
    (toks, lines)
}

/// `toks` without its test-only items: each from a line-leading
/// `#[cfg(test)]` or `#[test]` to the item's closing brace, or to its
/// `;` if it has no body.
fn without_tests(toks: Vec<Token>) -> Vec<Token> {
    let id = |s: &str| Tok::Ident(s.to_string());
    let cfg_test = [Tok::P('#'), Tok::P('['), id("cfg"), Tok::P('('), id("test"), Tok::P(')'), Tok::P(']')];
    let test = [Tok::P('#'), Tok::P('['), id("test"), Tok::P(']')];
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let starts = |attr: &[Tok]| toks[i..].iter().map(|t| &t.tok).take(attr.len()).eq(attr);
        let leads = i == 0 || toks[i - 1].line < toks[i].line;
        if !(leads && (starts(&cfg_test) || starts(&test))) {
            out.push(toks[i].clone());
            i += 1;
            continue;
        }
        let (mut nest, mut braces) = (0i32, 0i32);
        while let Some(t) = toks.get(i) {
            i += 1;
            match t.tok {
                Tok::P('(' | '[') => nest += 1,
                Tok::P(')' | ']') => nest -= 1,
                Tok::P('{') => braces += 1,
                Tok::P('}') if braces == 1 => break,
                Tok::P('}') => braces -= 1,
                Tok::P(';') if braces == 0 && nest == 0 => break,
                _ => {}
            }
        }
    }
    out
}

/// The waivers found on one line.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineAnn {
    pub(crate) blocking_ok: Option<String>,
    pub(crate) checked: bool,
    /// The line holds only a comment — an annotation block above a
    /// call may span several such lines.
    bare_comment: bool,
}

/// One source file through the front end every pass shares: lexed
/// once, its test-only items dropped, its waivers parsed.
pub struct SourceFile {
    /// The directory name under `crates/`.
    pub(crate) crate_name: String,
    /// Root-relative path with `/` separators, as diagnostics print it.
    pub(crate) file: String,
    /// Module path, from the file's place under `src/`.
    pub(crate) module: Vec<String>,
    pub(crate) text: String,
    /// The tokens outside `#[cfg(test)]`/`#[test]` items.
    pub(crate) toks: Vec<Token>,
    ann: Vec<LineAnn>,
}

impl SourceFile {
    pub fn new(crate_name: &str, file: &str, module: &[String], text: &str) -> SourceFile {
        let (toks, lines) = lex(text);
        let reason = |c: &str, key: &str| {
            let (_, r) = c.split_once(key)?;
            Some(r.trim().to_string()).filter(|r| !r.is_empty())
        };
        let ann = lines.iter().map(|(comment, code)| LineAnn {
            blocking_ok: reason(comment, "blocking-ok:"),
            checked: reason(comment, "checked:").is_some(),
            bare_comment: !code && !comment.trim().is_empty(),
        });
        SourceFile {
            crate_name: crate_name.to_string(),
            file: file.to_string(),
            module: module.to_vec(),
            text: text.to_string(),
            toks: without_tests(toks),
            ann: ann.collect(),
        }
    }

    /// The waivers in force on `line` (1-based): its own, else any in
    /// the contiguous comment block directly above (annotations often
    /// wrap onto a second line).
    pub(crate) fn ann_at(&self, line: usize) -> LineAnn {
        let mut here = self.ann.get(line.saturating_sub(1)).cloned().unwrap_or_default();
        let mut k = line.saturating_sub(1); // 0-based index of the line above
        while !(here.blocking_ok.is_some() && here.checked) && k > 0 {
            k -= 1;
            match self.ann.get(k) {
                Some(a) if a.bare_comment => {
                    if here.blocking_ok.is_none() {
                        here.blocking_ok = a.blocking_ok.clone();
                    }
                    here.checked |= a.checked;
                }
                _ => break,
            }
        }
        here
    }
}

/// The `std::sync` primitives that must stay behind `plan9_support`.
const RAW_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Runs the line rules over one source file, at most one finding per
/// rule and line. They guard the boundary crate's privileges, so they
/// never apply inside it.
pub fn scan_source(src: &SourceFile) -> Vec<Violation> {
    if src.crate_name == BOUNDARY_CRATE {
        return Vec::new();
    }
    let at = |k: usize| src.toks.get(k).map(|t| &t.tok);
    // Whether `q::` ends just before token `k`, `q` an identifier `f` accepts.
    let qual = |k: usize, f: &dyn Fn(&str) -> bool| {
        k >= 2 && at(k - 1) == Some(&Tok::PathSep) && matches!(at(k - 2), Some(Tok::Ident(q)) if f(q))
    };
    let std_sync = |k: usize| qual(k, &|q| q == "sync") && qual(k - 2, &|q| q == "std");
    let mut hits = BTreeSet::new();
    // Inside a `std::sync::{…}` group, up to its `;`.
    let mut group = false;
    for (k, t) in src.toks.iter().enumerate() {
        group = (group || (t.tok == Tok::P('{') && std_sync(k))) && t.tok != Tok::P(';');
        let Tok::Ident(x) = &t.tok else { continue };
        let call = |name: &str, of: &str| x == name && at(k + 1) == Some(&Tok::P('(')) && qual(k, &|q| q.ends_with(of));
        let rule = if RAW_SYNC.iter().any(|p| x.starts_with(p)) && (group || std_sync(k)) {
            Rule::RawSync
        } else if x.contains("SystemTime") || x.contains("UNIX_EPOCH") {
            Rule::WallClock
        } else if call("now", "Instant") || call("sleep", "thread") {
            // The monotonic clock is a boundary too: a raw read or a
            // raw sleep stalls a virtual-time run on the host clock.
            Rule::MonoClock
        } else {
            continue;
        };
        hits.insert((t.line, rule));
    }
    let unwaived = hits.into_iter().filter(|&(line, _)| !src.ann_at(line).checked);
    unwaived.map(|(line, rule)| Violation {
        rule,
        file: src.file.clone(),
        line,
        excerpt: src.text.lines().nth(line - 1).unwrap_or("").trim().to_string(),
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Manifest scanning.

/// Scans a `Cargo.toml` for dependencies that leave the repository.
/// Hermeticity rule: every entry in a dependency section must carry
/// `path = …` (a relative path) or `workspace = true`.
pub fn scan_manifest(file: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    // `[dependencies.foo]` dotted-table entries accumulate their keys
    // until the next section header.
    let mut dotted: Option<(usize, String, bool)> = None;

    let is_dep_section = |name: &str| {
        name == "dependencies"
            || name == "dev-dependencies"
            || name == "build-dependencies"
            || name == "workspace.dependencies"
            || (name.starts_with("target.") && name.ends_with("dependencies"))
    };

    let flush_dotted = |d: &mut Option<(usize, String, bool)>, out: &mut Vec<Violation>| {
        if let Some((line, name, ok)) = d.take() {
            if !ok {
                out.push(Violation {
                    rule: Rule::RegistryDep,
                    file: file.to_string(),
                    line,
                    excerpt: format!("[dependencies.{name}] has no path/workspace source"),
                });
            }
        }
    };

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            flush_dotted(&mut dotted, &mut out);
            let name = line.trim_matches(['[', ']']).trim().to_string();
            if let Some(dep) = name
                .strip_prefix("dependencies.")
                .or_else(|| name.strip_prefix("dev-dependencies."))
                .or_else(|| name.strip_prefix("workspace.dependencies."))
            {
                dotted = Some((lineno, dep.to_string(), false));
                in_dep_section = false;
            } else {
                in_dep_section = is_dep_section(&name);
            }
            continue;
        }
        if let Some((_, _, ok)) = dotted.as_mut() {
            if line.starts_with("path") || line.contains("workspace = true") {
                *ok = true;
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        // An inline dependency entry: `name = spec`.
        let Some((dep, spec)) = line.split_once('=') else {
            continue;
        };
        let dep = dep.trim();
        let spec = spec.trim();
        // Hermetic forms: `{ path = "…" }`, `{ workspace = true }`, and
        // the dotted shorthand `name.workspace = true`.
        let hermetic = spec.contains("path =")
            || spec.contains("path=")
            || spec.contains("workspace = true")
            || spec.contains("workspace=true")
            || (dep.ends_with(".workspace") && spec == "true");
        let absolute = spec.contains("path = \"/") || spec.contains("path=\"/");
        if !hermetic || absolute {
            out.push(Violation {
                rule: Rule::RegistryDep,
                file: file.to_string(),
                line: lineno,
                excerpt: format!("{dep} = {spec}"),
            });
        }
    }
    flush_dotted(&mut dotted, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Workspace walking.

/// Every `.rs` file under `dir`, in path order, as `visit` wants it.
fn walk_rs(dir: &Path, visit: &mut dyn FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, visit)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            visit(&p)?;
        }
    }
    Ok(())
}

/// Module path derived from a file's location under `src/`.
fn file_module(rel_in_src: &Path) -> Vec<String> {
    let mut parts: Vec<String> = rel_in_src
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if let Some(last) = parts.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
    }
    if matches!(parts.last().map(String::as_str), Some("lib" | "main" | "mod")) {
        parts.pop();
    }
    parts
}

/// A workspace as every pass reads it, read once: the root
/// `Cargo.toml` and every `crates/*/Cargo.toml`, and every
/// `crates/*/src/**/*.rs` through the front end.
pub struct Workspace {
    /// `(crate, path, text)`; the root manifest's crate is `""`.
    pub(crate) manifests: Vec<(String, String, String)>,
    pub(crate) files: Vec<SourceFile>,
}

impl Workspace {
    pub fn read(root: &Path) -> io::Result<Workspace> {
        let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
        let mut ws = Workspace { manifests: Vec::new(), files: Vec::new() };
        let manifest = |ws: &mut Workspace, name: &str, dir: &Path| -> io::Result<()> {
            let path = dir.join("Cargo.toml");
            if path.is_file() {
                ws.manifests.push((name.to_string(), rel(&path), fs::read_to_string(&path)?));
            }
            Ok(())
        };
        manifest(&mut ws, "", root)?;
        let mut crate_dirs: Vec<_> = fs::read_dir(root.join("crates"))?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        crate_dirs.sort();
        for dir in crate_dirs.iter().filter(|p| p.is_dir()) {
            let name = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            manifest(&mut ws, &name, dir)?;
            let src = dir.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut |f| {
                    let module = file_module(f.strip_prefix(&src).unwrap_or(f));
                    ws.files.push(SourceFile::new(&name, &rel(f), &module, &fs::read_to_string(f)?));
                    Ok(())
                })?;
            }
        }
        Ok(ws)
    }

    /// The line and manifest rules over the whole workspace.
    pub fn lint(&self) -> Vec<Violation> {
        let manifests = self.manifests.iter().flat_map(|(_, file, text)| scan_manifest(file, text));
        manifests.chain(self.files.iter().flat_map(scan_source)).collect()
    }
}

/// Scans a workspace rooted at `root`: every `crates/*/src/**/*.rs`,
/// every `crates/*/Cargo.toml`, and the root `Cargo.toml`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(Workspace::read(root)?.lint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(violations: &[Violation]) -> Vec<(Rule, usize)> {
        violations.iter().map(|v| (v.rule, v.line)).collect()
    }

    fn scan_source(crate_name: &str, file: &str, source: &str) -> Vec<Violation> {
        super::scan_source(&SourceFile::new(crate_name, file, &[], source))
    }

    #[test]
    fn checked_annotation_suppresses() {
        let src = "fn f() {\n    let t = SystemTime::now(); // checked: a log stamp\n}\n";
        assert!(scan_source("inet", "f.rs", src).is_empty());
        // …but an empty reason does not.
        let src = "fn f() {\n    let t = SystemTime::now(); // checked:\n}\n";
        assert_eq!(scan_source("inet", "f.rs", src).len(), 1);
        // A standalone annotation line blesses the next line only.
        let src = "fn f() {\n    // checked: a log stamp\n    SystemTime::now();\n}\nfn g() { SystemTime::now(); }\n";
        assert_eq!(lines(&scan_source("inet", "f.rs", src)), vec![(Rule::WallClock, 5)]);
    }

    #[test]
    fn a_literal_is_one_token() {
        let text = "let a = [b'\\n', '\\\\', '\\''];\n'l: loop { f(r#\"x\"}\"#, \"q\\\"{\n\") }\n\
                    #[cfg(test)]\nuse std::time::SystemTime;\nfn g() {} // done\n";
        let src = SourceFile::new("inet", "f.rs", &[], text);
        let toks: Vec<(usize, &Tok)> = src.toks.iter().map(|t| (t.line, &t.tok)).collect();
        let id = |s: &str| Tok::Ident(s.to_string());
        assert_eq!(toks.iter().filter(|(_, t)| *t == &Tok::Num).count(), 3);
        assert!(toks.contains(&(2, &Tok::Lifetime)));
        assert!(toks.contains(&(2, &Tok::Str("x\"}".to_string()))));
        assert!(toks.contains(&(2, &Tok::Str("q\\\"{\n".to_string()))));
        assert!(toks.contains(&(3, &Tok::P(')'))), "a string's newline is counted");
        assert!(!toks.iter().any(|(_, t)| *t == &id("SystemTime")), "a test item is dropped");
        assert_eq!(toks[toks.len() - 6..].first(), Some(&(6, &id("fn"))));
    }

    #[test]
    fn cfg_test_region_and_literals_skipped() {
        let src = "fn live() { SystemTime::now(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() { SystemTime::now(); }\n}\n\
                   fn live2() {\n    let s = \"SystemTime\"; // SystemTime\n    SystemTime::now();\n}\n";
        assert_eq!(
            lines(&scan_source("inet", "f.rs", src)),
            vec![(Rule::WallClock, 1), (Rule::WallClock, 8)]
        );
    }

    #[test]
    fn raw_sync_flagged_outside_support() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(lines(&scan_source("netlog", "f.rs", src)), vec![(Rule::RawSync, 1)]);
        assert!(scan_source("support", "f.rs", src).is_empty());
        // Grouped import, Arc alone is fine.
        let src = "use std::sync::{Arc, Weak};\n";
        assert!(scan_source("streams", "f.rs", src).is_empty());
        let src = "use std::sync::{Arc, Condvar};\n";
        assert_eq!(scan_source("streams", "f.rs", src).len(), 1);
        // Multi-line grouped import.
        let src = "use std::sync::{\n    Arc,\n    RwLock,\n};\n";
        assert_eq!(lines(&scan_source("streams", "f.rs", src)), vec![(Rule::RawSync, 3)]);
        // A guard type is raw too; one finding per rule and line.
        let src = "fn f(g: std::sync::MutexGuard<'_, u8>, m: std::sync::Mutex<u8>) {}\nuse std::sync::Arc;\nstruct Mutex;\n";
        assert_eq!(lines(&scan_source("streams", "f.rs", src)), vec![(Rule::RawSync, 1)]);
    }

    #[test]
    fn wall_clock_flagged_outside_support() {
        let src = "fn now() -> u64 {\n    std::time::SystemTime::now();\n    0\n}\n";
        assert_eq!(lines(&scan_source("inet", "f.rs", src)), vec![(Rule::WallClock, 2)]);
        assert!(scan_source("support", "f.rs", src).is_empty());
    }

    #[test]
    fn mono_clock_flagged_outside_support() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    std::thread::sleep(d);\n    let _ = t;\n}\n";
        assert_eq!(
            lines(&scan_source("inet", "f.rs", src)),
            vec![(Rule::MonoClock, 2), (Rule::MonoClock, 3)]
        );
        assert!(scan_source("support", "f.rs", src).is_empty());
        // The sanctioned reads don't trip it.
        let src = "fn f() {\n    let t = plan9_support::time::now();\n    plan9_support::time::sleep(d);\n    let _ = t;\n}\n";
        assert!(scan_source("inet", "f.rs", src).is_empty());
        // Tests may use the host clock freely.
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(scan_source("inet", "f.rs", src).is_empty());
        // A checked annotation works here like everywhere else.
        let src = "fn f() {\n    std::thread::sleep(d); // checked: real sleep, compares host mtimes\n}\n";
        assert!(scan_source("bench", "f.rs", src).is_empty());
    }

    #[test]
    fn registry_dep_flagged() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\n  rand = \"0.8\"\nplan9-support = { workspace = true }\nlocal = { path = \"../local\" }\nrenamed = { package = \"bytes\", version = \"1\" }\n";
        let v = scan_manifest("Cargo.toml", toml);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            vec![5, 8],
            "{v:?}"
        );
        assert!(v.iter().all(|v| v.rule == Rule::RegistryDep));
    }

    #[test]
    fn dotted_dep_table_without_path_flagged() {
        let toml = "[dependencies.rand]\nversion = \"0.8\"\n\n[dependencies.support]\npath = \"../support\"\n";
        let v = scan_manifest("Cargo.toml", toml);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].excerpt.contains("rand"));
    }
}
