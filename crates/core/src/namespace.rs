//! Per-process name spaces.
//!
//! "Each process assembles a view of the system by building a name space
//! connecting its resources" (§2.1). A name space is a mount table: an
//! ordered set of mount points, each holding a *union* of sources. The
//! union semantics follow §6.1: with the `-a` (after) flag the new
//! source lands behind the existing contents, the directory shows the
//! union of all members, and earlier entries supersede later ones of the
//! same name.

use plan9_support::sync::RwLock;
use plan9_ninep::procfs::{ProcFs, ServeNode};
use plan9_ninep::{errstr, NineError, Result};
use std::sync::Arc;

/// Mount flag: replace whatever was at the mount point.
pub const MREPL: u32 = 0;

/// Mount flag: place the new source before the existing union.
pub const MBEFORE: u32 = 1;

/// Mount flag: place the new source after the existing union (`import
/// -a`).
pub const MAFTER: u32 = 2;

/// A live reference into a file tree: a server plus a channel to one of
/// its files. Sources are held by mount points and returned by path
/// resolution.
#[derive(Clone)]
pub struct Source {
    /// The file server.
    pub fs: Arc<dyn ProcFs>,
    /// A channel on the server (the mounted tree's root, or the resolved
    /// file).
    pub node: ServeNode,
}

impl Source {
    /// Builds a source by attaching to a server's root.
    pub fn attach(fs: &Arc<dyn ProcFs>, uname: &str, aname: &str) -> Result<Source> {
        let node = fs.attach(uname, aname)?;
        Ok(Source {
            fs: Arc::clone(fs),
            node,
        })
    }

    /// Releases the channel.
    pub fn clunk(&self) {
        self.fs.clunk(&self.node);
    }
}

struct MountPoint {
    path: String,
    union: Vec<Source>,
}

/// A mount table: the process's view of the world.
pub struct Namespace {
    table: RwLock<Vec<MountPoint>>,
}

/// Normalizes a path lexically: leading `/`, `.` and `..` resolved.
pub fn clean_path(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            c => parts.push(c),
        }
    }
    let mut out = String::from("/");
    out.push_str(&parts.join("/"));
    out
}

/// Splits a cleaned path into components.
fn components(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty()).collect()
}

impl Namespace {
    /// Creates a name space rooted at the given source.
    pub fn new(root: Source) -> Arc<Namespace> {
        Arc::new(Namespace {
            table: RwLock::named(vec![MountPoint {
                path: "/".to_string(),
                union: vec![root],
            }], "core.namespace"),
        })
    }

    /// Forks the name space: the child gets a copy of the mount table
    /// (sharing the mounted servers), so later changes are private —
    /// Plan 9's per-process name space semantics.
    pub fn fork(&self) -> Arc<Namespace> {
        let table = self.table.read();
        Arc::new(Namespace {
            table: RwLock::named(
                table
                    .iter()
                    .map(|mp| MountPoint {
                        path: mp.path.clone(),
                        union: mp.union.clone(),
                    })
                    .collect(),
                "core.namespace",
            ),
        })
    }

    /// Mounts `src` at `path` with the given flag.
    ///
    /// With [`MBEFORE`]/[`MAFTER`] the directory previously visible at
    /// `path` stays in the union, exactly like `import -a` in §6.1.
    pub fn mount(&self, src: Source, path: &str, flags: u32) -> Result<()> {
        let path = clean_path(path);
        // What is at the path now (for union flags)?
        let existing_here = self.table.read().iter().any(|mp| mp.path == path);
        let prior = if !existing_here && flags != MREPL {
            self.resolve(&path).ok()
        } else {
            None
        };
        let mut table = self.table.write();
        if let Some(mp) = table.iter_mut().find(|mp| mp.path == path) {
            let replaced = match flags {
                MBEFORE | MAFTER => Vec::new(),
                _ => std::mem::take(&mut mp.union),
            };
            if flags == MBEFORE {
                mp.union.insert(0, src);
            } else {
                mp.union.push(src);
            }
            // A clunk may be a hangup or a remote Tclunk: never under
            // the table's lock.
            drop(table);
            replaced.iter().for_each(Source::clunk);
            return Ok(());
        }
        let union = match (flags, prior) {
            (MBEFORE, Some(p)) => vec![src, p],
            (MAFTER, Some(p)) => vec![p, src],
            _ => vec![src],
        };
        table.push(MountPoint { path, union });
        // Longest paths first so prefix search finds the deepest mount.
        table.sort_by_key(|mp| std::cmp::Reverse(mp.path.len()));
        Ok(())
    }

    /// Binds the tree at `from` onto `to` (both are paths in this name
    /// space).
    pub fn bind(&self, from: &str, to: &str, flags: u32) -> Result<()> {
        let src = self.resolve(from)?;
        self.mount(src, to, flags)
    }

    /// Removes the mount point at `path` (all union members).
    pub fn unmount(&self, path: &str) -> Result<()> {
        let path = clean_path(path);
        let mut table = self.table.write();
        let before = table.len();
        table.retain(|mp| mp.path != path);
        if table.len() == before {
            return Err(NineError::new("not mounted"));
        }
        Ok(())
    }

    /// The mount table rendered like `/proc/n/ns`.
    pub fn render(&self) -> String {
        let table = self.table.read();
        let mut out = String::new();
        for mp in table.iter().rev() {
            for s in &mp.union {
                out.push_str(&format!("mount '{}' {}\n", s.fs.fsname(), mp.path));
            }
        }
        out
    }

    /// Finds the deepest mount point that prefixes `path`, returning the
    /// union and the remaining components.
    fn lookup(&self, path: &str) -> Option<(Vec<Source>, Vec<String>)> {
        let table = self.table.read();
        for mp in table.iter() {
            let rest = if mp.path == "/" {
                Some(path.trim_start_matches('/'))
            } else if path == mp.path {
                Some("")
            } else {
                path.strip_prefix(&format!("{}/", mp.path))
            };
            if let Some(rest) = rest {
                let comps = components(rest).iter().map(|s| s.to_string()).collect();
                return Some((mp.union.clone(), comps));
            }
        }
        None
    }

    /// Resolves a path to a fresh channel; the caller owns it and must
    /// [`Source::clunk`] it.
    pub fn resolve(&self, path: &str) -> Result<Source> {
        let path = clean_path(path);
        let (union, comps) = self
            .lookup(&path)
            .ok_or_else(|| NineError::new(errstr::ENOTEXIST))?;
        let mut last_err = NineError::new(errstr::ENOTEXIST);
        for member in &union {
            match walk_all(member, &comps) {
                Ok(src) => return Ok(src),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Resolves a path in *every* union member it exists in — the basis
    /// of union directory reads.
    pub fn resolve_all(&self, path: &str) -> Vec<Source> {
        let path = clean_path(path);
        let Some((union, comps)) = self.lookup(&path) else {
            return Vec::new();
        };
        union
            .iter()
            .filter_map(|m| walk_all(m, &comps).ok())
            .collect()
    }
}

/// Clones a union member's channel and walks it down the components.
fn walk_all(member: &Source, comps: &[String]) -> Result<Source> {
    let mut cur = Source {
        fs: Arc::clone(&member.fs),
        node: member.fs.clone_node(&member.node)?,
    };
    for c in comps {
        match cur.fs.walk(&cur.node, c) {
            Ok(next) => cur.node = next,
            Err(e) => {
                cur.clunk();
                return Err(e);
            }
        }
    }
    Ok(cur)
}

/// A file server that keeps, at each clunk, how many locks its caller
/// holds: a clunk may be a hangup or a remote Tclunk, and a table's lock
/// must not be held across one.
#[cfg(test)]
pub(crate) mod probe {
    use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
    use plan9_ninep::{Dir, Result};
    use std::sync::{Arc, Mutex};

    pub(crate) struct ClunkProbe {
        fs: Arc<MemFs>,
        /// `support::sync::held()` at each clunk, in order.
        pub(crate) held: Mutex<Vec<usize>>,
    }

    impl ClunkProbe {
        /// A probe serving one empty file, `/f`.
        pub(crate) fn new() -> Arc<ClunkProbe> {
            let fs = MemFs::new("probe", "u");
            fs.put_file("/f", b"").unwrap();
            Arc::new(ClunkProbe { fs, held: Mutex::default() })
        }
    }

    impl ProcFs for ClunkProbe {
        fn fsname(&self) -> String {
            self.fs.fsname()
        }
        fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
            self.fs.attach(uname, aname)
        }
        fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
            self.fs.clone_node(n)
        }
        fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
            self.fs.walk(n, name)
        }
        fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
            self.fs.open(n, mode)
        }
        fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
            self.fs.read(n, offset, count)
        }
        fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
            self.fs.write(n, offset, data)
        }
        fn clunk(&self, n: &ServeNode) {
            self.held.lock().unwrap().push(plan9_support::sync::held());
            self.fs.clunk(n)
        }
        fn stat(&self, n: &ServeNode) -> Result<Dir> {
            self.fs.stat(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_ninep::procfs::{MemFs, OpenMode};

    fn ns_with_root() -> (Arc<Namespace>, Arc<MemFs>) {
        let root = MemFs::new("root", "bootes");
        root.put_file("/net/KEEP", b"").unwrap();
        root.put_file("/dev/cons", b"").unwrap();
        root.put_file("/tmp/.keep", b"").unwrap();
        let fs: Arc<dyn ProcFs> = root.clone();
        let src = Source::attach(&fs, "bootes", "").unwrap();
        (Namespace::new(src), root)
    }

    fn read_file(ns: &Namespace, path: &str) -> Result<Vec<u8>> {
        let src = ns.resolve(path)?;
        let node = src.fs.open(&src.node, OpenMode::READ)?;
        let data = src.fs.read(&node, 0, 4096)?;
        src.fs.clunk(&node);
        Ok(data)
    }

    #[test]
    fn clean_path_cases() {
        assert_eq!(clean_path("/a/b/../c//./d"), "/a/c/d");
        assert_eq!(clean_path("a/b"), "/a/b");
        assert_eq!(clean_path("/"), "/");
        assert_eq!(clean_path("/../.."), "/");
    }

    #[test]
    fn resolve_through_root() {
        let (ns, _root) = ns_with_root();
        assert!(ns.resolve("/dev/cons").is_ok());
        assert!(ns.resolve("/dev/nope").is_err());
    }

    #[test]
    fn mount_replaces_path() {
        let (ns, _root) = ns_with_root();
        let other = MemFs::new("other", "u");
        other.put_file("/hello", b"from other").unwrap();
        let fs: Arc<dyn ProcFs> = other;
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/mnt", MREPL)
            .unwrap();
        assert_eq!(read_file(&ns, "/mnt/hello").unwrap(), b"from other");
    }

    #[test]
    fn a_replaced_mount_is_clunked_outside_the_table_lock() {
        let (ns, _root) = ns_with_root();
        let probe = probe::ClunkProbe::new();
        let fs: Arc<dyn ProcFs> = probe.clone();
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/mnt", MREPL).unwrap();
        let other: Arc<dyn ProcFs> = MemFs::new("other", "u");
        ns.mount(Source::attach(&other, "u", "").unwrap(), "/mnt", MREPL).unwrap();
        assert_eq!(*probe.held.lock().unwrap(), [0], "the replaced root's clunk ran under a lock");
    }

    #[test]
    fn deepest_mount_wins() {
        let (ns, _root) = ns_with_root();
        let netfs = MemFs::new("netfs", "u");
        netfs.put_file("/clone", b"netfs clone").unwrap();
        let fs: Arc<dyn ProcFs> = netfs;
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/net/tcp", MREPL)
            .unwrap();
        assert_eq!(read_file(&ns, "/net/tcp/clone").unwrap(), b"netfs clone");
        // Sibling names still come from the root.
        assert!(ns.resolve("/net/KEEP").is_ok());
    }

    #[test]
    fn union_after_keeps_local_first() {
        let (ns, _root) = ns_with_root();
        let remote = MemFs::new("remote", "u");
        remote.put_file("/KEEP", b"remote KEEP").unwrap();
        remote.put_file("/dns", b"remote dns").unwrap();
        let fs: Arc<dyn ProcFs> = remote;
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/net", MAFTER)
            .unwrap();
        // Local entries supersede remote ones of the same name.
        assert_eq!(read_file(&ns, "/net/KEEP").unwrap(), b"");
        // Unique remote entries become visible.
        assert_eq!(read_file(&ns, "/net/dns").unwrap(), b"remote dns");
    }

    #[test]
    fn union_before_prefers_new() {
        let (ns, _root) = ns_with_root();
        let over = MemFs::new("over", "u");
        over.put_file("/KEEP", b"override").unwrap();
        let fs: Arc<dyn ProcFs> = over;
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/net", MBEFORE)
            .unwrap();
        assert_eq!(read_file(&ns, "/net/KEEP").unwrap(), b"override");
    }

    #[test]
    fn resolve_all_returns_every_member() {
        let (ns, _root) = ns_with_root();
        let extra = MemFs::new("extra", "u");
        extra.put_file("/x", b"").unwrap();
        let fs: Arc<dyn ProcFs> = extra;
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/net", MAFTER)
            .unwrap();
        assert_eq!(ns.resolve_all("/net").len(), 2);
        assert_eq!(ns.resolve_all("/net/x").len(), 1);
    }

    #[test]
    fn fork_isolates_changes() {
        let (ns, _root) = ns_with_root();
        let child = ns.fork();
        let extra = MemFs::new("extra", "u");
        extra.put_file("/only-in-child", b"").unwrap();
        let fs: Arc<dyn ProcFs> = extra;
        child
            .mount(Source::attach(&fs, "u", "").unwrap(), "/mnt", MREPL)
            .unwrap();
        assert!(child.resolve("/mnt/only-in-child").is_ok());
        assert!(ns.resolve("/mnt/only-in-child").is_err());
    }

    #[test]
    fn bind_aliases_a_tree() {
        let (ns, _root) = ns_with_root();
        ns.bind("/dev", "/tmp/devalias", MREPL).unwrap();
        assert!(ns.resolve("/tmp/devalias/cons").is_ok());
    }

    #[test]
    fn unmount_restores() {
        let (ns, _root) = ns_with_root();
        let over = MemFs::new("over", "u");
        over.put_file("/f", b"").unwrap();
        let fs: Arc<dyn ProcFs> = over;
        ns.mount(Source::attach(&fs, "u", "").unwrap(), "/mnt", MREPL)
            .unwrap();
        assert!(ns.resolve("/mnt/f").is_ok());
        ns.unmount("/mnt").unwrap();
        assert!(ns.resolve("/mnt/f").is_err());
        assert!(ns.unmount("/mnt").is_err());
    }
}
