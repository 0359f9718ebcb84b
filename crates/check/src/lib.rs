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
//! The scanner is a line-level lexer, not a parser: it understands
//! strings (including raw strings), `//` and nested `/* */` comments,
//! char literals vs lifetimes, and `#[cfg(test)]`/`#[test]` regions —
//! enough to make the line rules precise without a syntax tree, and
//! with zero dependencies so it builds before anything else.
//!
//! There is one front end: [`Workspace::read`] walks `crates/*` once
//! and [`SourceFile::new`] lexes each file once, marks its test-only
//! lines and parses its waivers; the line rules here and [`graph`]'s
//! call-graph parser both read that.
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
// Lexing: split each source line into code and comment, blanking string
// contents, so the rules can match tokens without false hits inside
// literals or prose.

/// One source line after lexing.
pub(crate) struct LexedLine {
    /// Code with string/char contents replaced by spaces (delimiting
    /// quotes kept) and comments removed.
    pub(crate) code: String,
    /// The text of any comments on the line (both `//` and `/* */`).
    pub(crate) comment: String,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Code,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Lexes full source text into per-line code/comment views. The state
/// machine carries block comments and multi-line strings across lines.
/// String contents are blanked column-preserving, so [`graph`]'s
/// tokenizer finds them again at the same span of the raw line.
fn lex(source: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw in source.lines() {
        let b: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match state {
                LexState::Block(depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::Block(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(b[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if b[i] == '\\' {
                        code.push(' ');
                        if i + 1 < b.len() {
                            code.push(' ');
                        }
                        i += 2;
                    } else if b[i] == '"' {
                        code.push('"');
                        state = LexState::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    // Ends at `"` followed by exactly `hashes` #s.
                    if b[i] == '"'
                        && b[i + 1..].iter().take(hashes as usize).filter(|&&c| c == '#').count()
                            == hashes as usize
                        && b[i + 1..].len() >= hashes as usize
                    {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        i += 1 + hashes as usize;
                        state = LexState::Code;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                LexState::Code => {
                    let c = b[i];
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        comment.push_str(&raw[raw.char_indices().nth(i).map(|(p, _)| p).unwrap_or(0)..]);
                        break;
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        state = LexState::Block(1);
                        i += 2;
                    } else if c == 'r' || c == 'b' {
                        // Possible raw/byte string start: r", r#", br#"…
                        let mut j = i + 1;
                        if c == 'b' && b.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while b.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = (c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r')))
                            && b.get(j) == Some(&'"')
                            && (c != 'b' || b.get(i + 1) == Some(&'r') || hashes == 0);
                        if is_raw && (j > i + 1 || b.get(j) == Some(&'"')) && b.get(j) == Some(&'"')
                        {
                            code.extend(&b[i..=j]);
                            i = j + 1;
                            state = LexState::RawStr(hashes);
                        } else if c == 'b' && b.get(i + 1) == Some(&'"') {
                            code.push('b');
                            code.push('"');
                            i += 2;
                            state = LexState::Str;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '"' {
                        code.push('"');
                        i += 1;
                        state = LexState::Str;
                    } else if c == '\'' {
                        // Char literal vs lifetime: 'x' or '\n' is a
                        // literal; 'static is a lifetime.
                        if b.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to closing quote.
                            code.push('\'');
                            let mut j = i + 2;
                            while j < b.len() && b[j] != '\'' {
                                j += 1;
                            }
                            for _ in i + 1..=j.min(b.len() - 1) {
                                code.push(' ');
                            }
                            i = j + 1;
                        } else if b.get(i + 2) == Some(&'\'') {
                            code.push('\'');
                            code.push(' ');
                            code.push('\'');
                            i += 3;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(LexedLine { code, comment });
    }
    out
}

// ---------------------------------------------------------------------------
// Source scanning.

/// Tracks `#[cfg(test)]` / `#[test]` regions: from the attribute to the
/// close of the following brace-delimited item (or its terminating `;`
/// for brace-less items).
pub(crate) struct TestRegion {
    /// Attribute seen, waiting for the item's opening brace.
    pending: bool,
    /// Brace depth inside the skipped item; `None` when not skipping.
    depth: Option<i32>,
}

impl TestRegion {
    pub(crate) fn new() -> TestRegion {
        TestRegion {
            pending: false,
            depth: None,
        }
    }

    /// Feeds one code line; returns true if the line is test-only.
    pub(crate) fn feed(&mut self, code: &str) -> bool {
        let trimmed = code.trim();
        if self.depth.is_none()
            && !self.pending
            && (trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[test]"))
        {
            // Fall through: the item (and its braces) may share the line
            // with the attribute.
            self.pending = true;
        }
        if self.pending {
            let mut depth = 0i32;
            let mut opened = false;
            let mut nesting = 0i32; // () and [] around a `;` that isn't a statement end
            for c in code.chars() {
                match c {
                    '{' => {
                        opened = true;
                        depth += 1;
                    }
                    '}' => depth -= 1,
                    '(' | '[' => nesting += 1,
                    ')' | ']' => nesting -= 1,
                    ';' if !opened && nesting == 0 => {
                        // Brace-less item (`#[cfg(test)] use …;`): the
                        // region is just this statement.
                        self.pending = false;
                        return true;
                    }
                    _ => {}
                }
            }
            if opened {
                self.pending = false;
                if depth > 0 {
                    self.depth = Some(depth);
                }
                // depth <= 0: the item opened and closed on this line.
            }
            return true;
        }
        if let Some(depth) = self.depth.as_mut() {
            for c in code.chars() {
                match c {
                    '{' => *depth += 1,
                    '}' => *depth -= 1,
                    _ => {}
                }
            }
            if *depth <= 0 {
                self.depth = None;
            }
            return true;
        }
        false
    }
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

fn annotations(lines: &[LexedLine]) -> Vec<LineAnn> {
    let reason = |c: &str, key: &str| {
        let (_, r) = c.split_once(key)?;
        Some(r.trim().to_string()).filter(|r| !r.is_empty())
    };
    lines
        .iter()
        .map(|l| LineAnn {
            blocking_ok: reason(&l.comment, "blocking-ok:"),
            checked: reason(&l.comment, "checked:").is_some(),
            bare_comment: l.code.trim().is_empty() && !l.comment.trim().is_empty(),
        })
        .collect()
}

/// One source file through the front end every pass shares: lexed
/// once, its test-only lines marked, its waivers parsed.
pub struct SourceFile {
    /// The directory name under `crates/`.
    pub(crate) crate_name: String,
    /// Root-relative path with `/` separators, as diagnostics print it.
    pub(crate) file: String,
    /// Module path, from the file's place under `src/`.
    pub(crate) module: Vec<String>,
    pub(crate) text: String,
    pub(crate) lines: Vec<LexedLine>,
    /// Per line: inside a `#[cfg(test)]`/`#[test]` item.
    pub(crate) test: Vec<bool>,
    ann: Vec<LineAnn>,
}

impl SourceFile {
    pub fn new(crate_name: &str, file: &str, module: &[String], text: &str) -> SourceFile {
        let lines = lex(text);
        let mut region = TestRegion::new();
        SourceFile {
            crate_name: crate_name.to_string(),
            file: file.to_string(),
            module: module.to_vec(),
            text: text.to_string(),
            test: lines.iter().map(|l| region.feed(&l.code)).collect(),
            ann: annotations(&lines),
            lines,
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

/// Runs the line rules over one source file. They guard the boundary
/// crate's privileges, so they never apply inside it.
pub fn scan_source(src: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if src.crate_name == BOUNDARY_CRATE {
        return out;
    }
    let mut in_sync_use = false;
    for (idx, line) in src.lines.iter().enumerate() {
        if src.test[idx] {
            in_sync_use = false;
            continue;
        }
        let code = &line.code;
        // Direct paths: std::sync::Mutex etc.
        let direct = RAW_SYNC.iter().any(|p| code.contains(&format!("std::sync::{p}")));
        // Grouped imports: `use std::sync::{Arc, Mutex};`, possibly
        // spanning lines until the closing `;`.
        in_sync_use |= code.contains("std::sync::{");
        let grouped = in_sync_use
            && RAW_SYNC.iter().any(|p| code.split(|c: char| !c.is_alphanumeric() && c != '_').any(|tok| tok == *p));
        if code.contains(';') {
            in_sync_use = false;
        }
        let rules = [
            (Rule::RawSync, direct || grouped),
            (Rule::WallClock, code.contains("SystemTime") || code.contains("UNIX_EPOCH")),
            // The monotonic clock is a boundary too: a raw read or a
            // raw sleep stalls a virtual-time run on the host clock.
            (Rule::MonoClock, code.contains("Instant::now(") || code.contains("thread::sleep(")),
        ];
        for (rule, _) in rules.into_iter().filter(|&(_, hit)| hit) {
            if !src.ann_at(idx + 1).checked {
                out.push(Violation {
                    rule,
                    file: src.file.clone(),
                    line: idx + 1,
                    excerpt: src.text.lines().nth(idx).unwrap_or("").trim().to_string(),
                });
            }
        }
    }
    out
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
