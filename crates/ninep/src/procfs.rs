//! The *procedural* form of 9P.
//!
//! The paper (§2.1): "Kernel resident device and protocol drivers use a
//! procedural version of the protocol while external file servers use an
//! RPC form." [`ProcFs`] is that procedural version: every kernel-resident
//! device driver in this reproduction implements it, the mount driver
//! converts it to RPCs, and [`crate::server`] converts RPCs back into
//! calls on a `ProcFs`.

use crate::dir::{Dir, DIR_LEN};
use crate::qid::Qid;
use crate::server::NineService;
use crate::{errstr, NineError, Result};
use plan9_support::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

mod dev;
pub use dev::{
    conv_of, conv_parent, conv_path, fresh_handle, readstr, ConvFile, ConvTable, Dev, ROOT,
};

/// Open for reading.
pub const OREAD: u8 = 0;
/// Open for writing.
pub const OWRITE: u8 = 1;
/// Open for reading and writing.
pub const ORDWR: u8 = 2;
/// Open for execution (treated as read here).
pub const OEXEC: u8 = 3;
/// Truncate on open.
pub const OTRUNC: u8 = 0x10;
/// Remove the file when the channel is clunked.
pub const ORCLOSE: u8 = 0x40;

/// An open mode, as written in `Topen`/`Tcreate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenMode(pub u8);

impl OpenMode {
    /// Plain read-only mode.
    pub const READ: OpenMode = OpenMode(OREAD);
    /// Plain write-only mode.
    pub const WRITE: OpenMode = OpenMode(OWRITE);
    /// Read-write mode.
    pub const RDWR: OpenMode = OpenMode(ORDWR);

    /// The access class with flag bits removed.
    pub fn access(&self) -> u8 {
        self.0 & 3
    }

    /// Whether reads are permitted.
    pub fn readable(&self) -> bool {
        matches!(self.access(), OREAD | ORDWR | OEXEC)
    }

    /// Whether writes are permitted.
    pub fn writable(&self) -> bool {
        matches!(self.access(), OWRITE | ORDWR)
    }

    /// Whether the file is truncated on open.
    pub fn truncates(&self) -> bool {
        self.0 & OTRUNC != 0
    }

    /// Whether the file is removed on clunk.
    pub fn rclose(&self) -> bool {
        self.0 & ORCLOSE != 0
    }
}

/// File permissions, as in `Tcreate`; the top bit is CHDIR.
pub type Perm = u32;

/// A server-side handle on a file, the procedural analogue of a fid.
///
/// The `handle` is opaque to callers; devices use it to find per-channel
/// state. The qid rides along so the layer above can answer cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeNode {
    /// The qid of the file the node references.
    pub qid: Qid,
    /// Device-private identifier.
    pub handle: u64,
}

impl ServeNode {
    /// Builds a node.
    pub fn new(qid: Qid, handle: u64) -> ServeNode {
        ServeNode { qid, handle }
    }
}

/// The procedural version of the 9P protocol (§2.1).
///
/// Implementations must be thread-safe: the mount driver demultiplexes
/// many processes onto one file server, so concurrent calls are the norm.
///
/// Blocking is allowed and expected: `read` on a network `data` file
/// blocks until a message arrives, `open` on a `listen` file blocks until
/// an incoming call, exactly as in Plan 9. A server whose files are
/// data at hand says so through [`ProcFs::may_block`], and
/// [`crate::server::NineService::input`] then answers for them without
/// a process of their own.
pub trait ProcFs: Send + Sync {
    /// A short device name (`ether`, `tcp`, `cs`, ...), used in paths and
    /// diagnostics.
    fn fsname(&self) -> String;

    /// Authenticates `uname` and returns a node for the tree root.
    fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode>;

    /// Duplicates a node (the `clone` message): both nodes then evolve
    /// independently.
    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode>;

    /// Moves a node one level down the hierarchy. Devices must accept
    /// `..` (at the root it stays at the root).
    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode>;

    /// Prepares a node for I/O; may block (e.g. `listen` files).
    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode>;

    /// Creates `name` in the directory referenced by the node, then opens
    /// it. Most devices refuse creation.
    fn create(&self, _n: &ServeNode, _name: &str, _perm: Perm, _mode: OpenMode) -> Result<ServeNode> {
        Err(NineError::new(errstr::EPERM))
    }

    /// Reads up to `count` bytes at `offset`. Directory reads return whole
    /// encoded [`Dir`] entries.
    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>>;

    /// Writes bytes at `offset`, returning the number accepted.
    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize>;

    /// Discards a node without affecting the file. Never fails.
    fn clunk(&self, n: &ServeNode);

    /// Removes the file referenced by the node and discards the node.
    fn remove(&self, _n: &ServeNode) -> Result<()> {
        Err(NineError::new(errstr::EPERM))
    }

    /// Reads the attributes of the file.
    fn stat(&self, n: &ServeNode) -> Result<Dir>;

    /// Writes the attributes of the file.
    fn wstat(&self, _n: &ServeNode, _d: &Dir) -> Result<()> {
        Err(NineError::new(errstr::EPERM))
    }

    /// Whether an operation on the node — any of them, a walk or an
    /// open as much as a read — can wait on anything but a lock: a
    /// call, a message, another server. `None` asks about `attach`. It
    /// can, unless the server says otherwise. The answer is the node's:
    /// the server layer asks when a fid comes to a node and goes by
    /// that for every operation until the fid moves.
    fn may_block(&self, _n: Option<&ServeNode>) -> bool {
        true
    }

    /// Asks the server under the node — an open conversation's `data`
    /// file, or a pipe end — to serve `fs` to the conversation's peer as 9P itself,
    /// with no process reading the file: `mount`'s dual. `None`
    /// declines, and the caller reads and serves the file as any other;
    /// only a server whose input path can run a file operation to
    /// completion where the request arrives takes it up.
    fn serve_nine(&self, _n: &ServeNode, _fs: &Arc<dyn ProcFs>) -> Option<Arc<NineService>> {
        None
    }
}

/// Serializes a directory listing for a `read` at `offset`/`count`,
/// returning whole entries only, as 9P requires.
pub fn read_dir_slice(entries: &[Dir], offset: u64, count: usize) -> Result<Vec<u8>> {
    if !offset.is_multiple_of(DIR_LEN as u64) {
        return Err(NineError::new("directory read not aligned"));
    }
    let start = (offset / DIR_LEN as u64) as usize;
    let nwhole = count / DIR_LEN;
    let mut out = Vec::with_capacity(nwhole * DIR_LEN);
    for e in entries.iter().skip(start).take(nwhole) {
        out.extend_from_slice(&e.encode());
    }
    Ok(out)
}

/// Walks `node` along a `/`-separated path, consuming empty elements.
pub fn walk_path(fs: &dyn ProcFs, node: &ServeNode, path: &str) -> Result<ServeNode> {
    let mut cur = *node;
    for elem in path.split('/').filter(|e| !e.is_empty() && *e != ".") {
        let next = fs.walk(&cur, elem)?;
        if next.handle != cur.handle {
            fs.clunk(&cur);
        }
        cur = next;
    }
    Ok(cur)
}

// ---------------------------------------------------------------------------
// MemFs: an in-memory file tree implementing ProcFs.
// ---------------------------------------------------------------------------

/// A node in the in-memory tree.
struct MemNode {
    dir: Dir,
    parent: u32,
    children: Vec<u32>,
    data: Vec<u8>,
    removed: bool,
}

struct MemInner {
    nodes: HashMap<u32, MemNode>,
    next_path: u32,
}

/// A simple RAM file server.
///
/// Plan 9 file servers mostly have no permanent storage (§2.1); `MemFs`
/// is the smallest such server: a tree of files in memory. It backs
/// `/tmp`, test fixtures, and exportfs round-trip tests.
pub struct MemFs {
    name: String,
    owner: String,
    inner: Mutex<MemInner>,
}

impl MemFs {
    /// Creates an empty tree owned by `owner`.
    pub fn new(name: &str, owner: &str) -> Arc<MemFs> {
        let mut nodes = HashMap::new();
        nodes.insert(
            0,
            MemNode {
                dir: Dir::directory("/", Qid::dir(0, 0), 0o777, owner),
                parent: 0,
                children: Vec::new(),
                data: Vec::new(),
                removed: false,
            },
        );
        Arc::new(MemFs {
            name: name.to_string(),
            owner: owner.to_string(),
            inner: Mutex::named(MemInner {
                nodes,
                next_path: 1,
            }, "ninep.procfs"),
        })
    }

    /// Convenience: create an (empty) directory at an absolute path,
    /// making parents.
    pub fn put_dir(&self, path: &str) -> Result<()> {
        let marker = format!("{}/.#dir", path.trim_end_matches('/'));
        self.put_file(&marker, b"")?;
        // Remove the marker file, leaving the directory behind.
        let root = self.attach("", "")?;
        let node = walk_path(self, &root, &marker)?;
        self.remove(&node)
    }

    /// Convenience: create a file at an absolute path, making parents.
    pub fn put_file(&self, path: &str, contents: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut cur = 0u32;
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        if parts.is_empty() {
            return Err(NineError::new("empty path"));
        }
        for (i, part) in parts.iter().enumerate() {
            let last = i + 1 == parts.len();
            let existing = inner.nodes[&cur]
                .children
                .iter()
                .copied()
                .find(|c| inner.nodes[c].dir.name == *part);
            match existing {
                Some(c) if last => {
                    // checked: `c` came from this node map under the same lock
                    let node = inner.nodes.get_mut(&c).unwrap();
                    node.data = contents.to_vec();
                    node.dir.length = contents.len() as u64;
                    node.dir.qid.version += 1;
                    return Ok(());
                }
                Some(c) => cur = c,
                None => {
                    let path_no = inner.next_path;
                    inner.next_path += 1;
                    let dir = if last {
                        let mut d = Dir::file(part, Qid::file(path_no, 0), 0o666, &self.owner, 0);
                        d.length = contents.len() as u64;
                        d
                    } else {
                        Dir::directory(part, Qid::dir(path_no, 0), 0o777, &self.owner)
                    };
                    inner.nodes.insert(
                        path_no,
                        MemNode {
                            dir,
                            parent: cur,
                            children: Vec::new(),
                            data: if last { contents.to_vec() } else { Vec::new() },
                            removed: false,
                        },
                    );
                    // checked: `cur` walked the live tree under this same lock
                    inner.nodes.get_mut(&cur).unwrap().children.push(path_no);
                    cur = path_no;
                }
            }
        }
        Ok(())
    }

    fn qid_to_id(&self, q: Qid) -> u32 {
        q.path_bits()
    }

    fn node_for(&self, n: &ServeNode) -> Result<u32> {
        let id = self.qid_to_id(n.qid);
        let inner = self.inner.lock();
        match inner.nodes.get(&id) {
            Some(node) if !node.removed => Ok(id),
            _ => Err(NineError::new(errstr::ENOTEXIST)),
        }
    }
}

impl ProcFs for MemFs {
    fn fsname(&self) -> String {
        self.name.clone()
    }

    fn attach(&self, _uname: &str, _aname: &str) -> Result<ServeNode> {
        let inner = self.inner.lock();
        Ok(ServeNode::new(inner.nodes[&0].dir.qid, fresh_handle()))
    }

    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        self.node_for(n)?;
        Ok(ServeNode::new(n.qid, fresh_handle()))
    }

    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        let id = self.node_for(n)?;
        let inner = self.inner.lock();
        let node = &inner.nodes[&id];
        if !node.dir.is_dir() {
            return Err(NineError::new(errstr::ENOTDIR));
        }
        if name == ".." {
            let parent = &inner.nodes[&node.parent];
            return Ok(ServeNode::new(parent.dir.qid, n.handle));
        }
        for c in &node.children {
            let child = &inner.nodes[c];
            if child.dir.name == name && !child.removed {
                return Ok(ServeNode::new(child.dir.qid, n.handle));
            }
        }
        Err(NineError::new(errstr::ENOTEXIST))
    }

    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        let id = self.node_for(n)?;
        let mut inner = self.inner.lock();
        // checked: node_for validated `id` against the live tree
        let node = inner.nodes.get_mut(&id).unwrap();
        if node.dir.is_dir() && mode.access() != OREAD {
            return Err(NineError::new(errstr::EISDIR));
        }
        if mode.truncates() && !node.dir.is_dir() {
            node.data.clear();
            node.dir.length = 0;
            node.dir.qid.version += 1;
        }
        Ok(ServeNode::new(node.dir.qid, n.handle))
    }

    fn create(&self, n: &ServeNode, name: &str, perm: Perm, _mode: OpenMode) -> Result<ServeNode> {
        let id = self.node_for(n)?;
        let mut inner = self.inner.lock();
        if !inner.nodes[&id].dir.is_dir() {
            return Err(NineError::new(errstr::ENOTDIR));
        }
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(NineError::new("bad file name"));
        }
        let dup = inner.nodes[&id]
            .children
            .iter()
            .any(|c| inner.nodes[c].dir.name == name && !inner.nodes[c].removed);
        if dup {
            return Err(NineError::new(errstr::EEXIST));
        }
        let path_no = inner.next_path;
        inner.next_path += 1;
        let is_dir = perm & crate::qid::CHDIR != 0;
        let dir = if is_dir {
            Dir::directory(name, Qid::dir(path_no, 0), perm & 0o777, &self.owner)
        } else {
            Dir::file(name, Qid::file(path_no, 0), perm & 0o777, &self.owner, 0)
        };
        let qid = dir.qid;
        inner.nodes.insert(
            path_no,
            MemNode {
                dir,
                parent: id,
                children: Vec::new(),
                data: Vec::new(),
                removed: false,
            },
        );
        // checked: node_for validated `id` against the live tree
        inner.nodes.get_mut(&id).unwrap().children.push(path_no);
        Ok(ServeNode::new(qid, n.handle))
    }

    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let id = self.node_for(n)?;
        let inner = self.inner.lock();
        let node = &inner.nodes[&id];
        if node.dir.is_dir() {
            let entries: Vec<Dir> = node
                .children
                .iter()
                .filter(|c| !inner.nodes[*c].removed)
                .map(|c| inner.nodes[c].dir.clone())
                .collect();
            return read_dir_slice(&entries, offset, count);
        }
        let off = offset as usize;
        if off >= node.data.len() {
            return Ok(Vec::new());
        }
        let end = (off + count).min(node.data.len());
        Ok(node.data[off..end].to_vec())
    }

    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        let id = self.node_for(n)?;
        let mut inner = self.inner.lock();
        // checked: node_for validated `id` against the live tree
        let node = inner.nodes.get_mut(&id).unwrap();
        if node.dir.is_dir() {
            return Err(NineError::new(errstr::EISDIR));
        }
        let off = offset as usize;
        if node.data.len() < off + data.len() {
            node.data.resize(off + data.len(), 0);
        }
        node.data[off..off + data.len()].copy_from_slice(data);
        node.dir.length = node.data.len() as u64;
        node.dir.qid.version += 1;
        Ok(data.len())
    }

    fn clunk(&self, _n: &ServeNode) {}

    fn remove(&self, n: &ServeNode) -> Result<()> {
        let id = self.node_for(n)?;
        if id == 0 {
            return Err(NineError::new(errstr::EPERM));
        }
        let mut inner = self.inner.lock();
        if !inner.nodes[&id].children.is_empty() {
            return Err(NineError::new("directory not empty"));
        }
        let parent = inner.nodes[&id].parent;
        // checked: node_for validated `id`; `parent` is a live node's parent link
        inner.nodes.get_mut(&id).unwrap().removed = true;
        // checked: node_for validated `id`; `parent` is a live node's parent link
        let p = inner.nodes.get_mut(&parent).unwrap();
        p.children.retain(|c| *c != id);
        inner.nodes.remove(&id);
        Ok(())
    }

    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        let id = self.node_for(n)?;
        let inner = self.inner.lock();
        Ok(inner.nodes[&id].dir.clone())
    }

    fn wstat(&self, n: &ServeNode, d: &Dir) -> Result<()> {
        let id = self.node_for(n)?;
        let mut inner = self.inner.lock();
        // Renames must not collide with a sibling.
        let parent = inner.nodes[&id].parent;
        if d.name != inner.nodes[&id].dir.name {
            let dup = inner.nodes[&parent]
                .children
                .iter()
                .any(|c| *c != id && inner.nodes[c].dir.name == d.name);
            if dup {
                return Err(NineError::new(errstr::EEXIST));
            }
        }
        // checked: node_for validated `id` against the live tree
        let node = inner.nodes.get_mut(&id).unwrap();
        node.dir.name = d.name.clone();
        node.dir.mode = (node.dir.mode & crate::qid::CHDIR) | (d.mode & 0o777);
        node.dir.mtime = d.mtime;
        Ok(())
    }

    fn may_block(&self, _n: Option<&ServeNode>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_modes() {
        assert!(OpenMode::READ.readable());
        assert!(!OpenMode::READ.writable());
        assert!(OpenMode::RDWR.readable() && OpenMode::RDWR.writable());
        assert!(OpenMode(OWRITE | OTRUNC).truncates());
        assert!(OpenMode(OREAD | ORCLOSE).rclose());
    }

    #[test]
    fn memfs_walk_read_write() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/a/b/hello.txt", b"hi there").unwrap();
        let root = fs.attach("philw", "").unwrap();
        let f = walk_path(&*fs, &root, "a/b/hello.txt").unwrap();
        let f = fs.open(&f, OpenMode::READ).unwrap();
        assert_eq!(fs.read(&f, 0, 100).unwrap(), b"hi there");
        assert_eq!(fs.read(&f, 3, 100).unwrap(), b"there");
        assert_eq!(fs.read(&f, 100, 10).unwrap(), b"");
    }

    #[test]
    fn memfs_dir_listing_is_dir_entries() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/x/one", b"1").unwrap();
        fs.put_file("/x/two", b"22").unwrap();
        let root = fs.attach("u", "").unwrap();
        let d = walk_path(&*fs, &root, "x").unwrap();
        let bytes = fs.read(&d, 0, 4 * DIR_LEN).unwrap();
        assert_eq!(bytes.len(), 2 * DIR_LEN);
        let one = Dir::decode(&bytes[..DIR_LEN]).unwrap();
        let two = Dir::decode(&bytes[DIR_LEN..]).unwrap();
        assert_eq!(one.name, "one");
        assert_eq!(two.name, "two");
        assert_eq!(two.length, 2);
    }

    #[test]
    fn memfs_create_remove() {
        let fs = MemFs::new("ram", "bootes");
        let root = fs.attach("u", "").unwrap();
        let f = fs
            .create(&root, "made", 0o644, OpenMode::WRITE)
            .unwrap();
        assert_eq!(fs.write(&f, 0, b"abc").unwrap(), 3);
        assert!(fs.create(&root, "made", 0o644, OpenMode::WRITE).is_err());
        fs.remove(&f).unwrap();
        assert!(walk_path(&*fs, &root, "made").is_err());
    }

    #[test]
    fn memfs_dotdot_walk() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/d/f", b"x").unwrap();
        let root = fs.attach("u", "").unwrap();
        let d = walk_path(&*fs, &root, "d").unwrap();
        let up = fs.walk(&d, "..").unwrap();
        assert_eq!(up.qid, root.qid);
        // `..` at the root stays at the root.
        let up2 = fs.walk(&up, "..").unwrap();
        assert_eq!(up2.qid, root.qid);
    }

    #[test]
    fn memfs_truncate_on_open() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/f", b"0123456789").unwrap();
        let root = fs.attach("u", "").unwrap();
        let f = walk_path(&*fs, &root, "f").unwrap();
        let f = fs.open(&f, OpenMode(OWRITE | OTRUNC)).unwrap();
        assert_eq!(fs.stat(&f).unwrap().length, 0);
    }

    #[test]
    fn memfs_wstat_rename() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/old", b"x").unwrap();
        fs.put_file("/other", b"y").unwrap();
        let root = fs.attach("u", "").unwrap();
        let f = walk_path(&*fs, &root, "old").unwrap();
        let mut d = fs.stat(&f).unwrap();
        d.name = "other".into();
        assert!(fs.wstat(&f, &d).is_err(), "rename onto existing name");
        d.name = "new".into();
        fs.wstat(&f, &d).unwrap();
        assert!(walk_path(&*fs, &root, "new").is_ok());
    }

    #[test]
    fn dir_slice_alignment_enforced() {
        let entries = vec![Dir::file("a", Qid::file(1, 0), 0o644, "u", 0)];
        assert!(read_dir_slice(&entries, 1, DIR_LEN).is_err());
        assert_eq!(read_dir_slice(&entries, 0, DIR_LEN - 1).unwrap().len(), 0);
        assert_eq!(
            read_dir_slice(&entries, DIR_LEN as u64, DIR_LEN).unwrap().len(),
            0
        );
    }
}
