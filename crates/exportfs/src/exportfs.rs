//! The exportfs file server.
//!
//! "After an initial protocol establishes the root of the file tree
//! being exported, the remote process mounts the connection, allowing
//! exportfs to act as a relay file server. Operations in the imported
//! file tree are executed on the remote server and the results
//! returned."
//!
//! [`NsFs`] serves a *name space* subtree — crossing mount points as it
//! walks, so exporting `/net` really exports the union of devices and
//! servers mounted there. It is multithreaded where the paper needs it
//! to be: `open`, `read` and `write` may block (§6.1), so the 9P server
//! layer runs a request in a worker of its own unless the file it names
//! is data at hand ([`ProcFs::may_block`], which `NsFs` answers from
//! the server the channel resolved to).

use plan9_core::dial::{serve_calls, Service};
use plan9_core::namespace::{clean_path, Namespace, Source};
use plan9_core::proc::Proc;
use plan9_support::sync::Mutex;
use plan9_ninep::procfs::{fresh_handle, read_dir_slice, OpenMode, Perm, ProcFs, ServeNode};
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// A channel into the exported name space: the path (for mount-point
/// crossing) and the resolved source.
struct NsChan {
    path: String,
    src: Source,
}

/// A file server over a name-space subtree.
pub struct NsFs {
    ns: Arc<Namespace>,
    base: String,
    chans: Mutex<HashMap<u64, NsChan>>,
}

impl NsFs {
    /// Exports the subtree at `base` of `ns`.
    pub fn new(ns: Arc<Namespace>, base: &str) -> Arc<NsFs> {
        Arc::new(NsFs {
            ns,
            base: clean_path(base),
            chans: Mutex::new(HashMap::new()),
        })
    }

    fn install(&self, path: String, src: Source) -> ServeNode {
        let handle = fresh_handle();
        let qid = src.node.qid;
        self.chans.lock().insert(handle, NsChan { path, src });
        ServeNode::new(qid, handle)
    }

    fn with_chan<T>(&self, n: &ServeNode, f: impl FnOnce(&NsChan) -> T) -> Result<T> {
        let chans = self.chans.lock();
        chans
            .get(&n.handle)
            .map(f)
            .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))
    }

    /// Union-aware directory listing at a path.
    fn union_entries(&self, path: &str) -> Vec<Dir> {
        let sources = self.ns.resolve_all(path);
        let mut out: Vec<Dir> = Vec::new();
        for src in sources {
            if !src.node.qid.is_dir() {
                src.clunk();
                continue;
            }
            if let Ok(node) = src.fs.open(&src.node, OpenMode::READ) {
                let mut offset = 0u64;
                while let Ok(data) = src.fs.read(&node, offset, 16 * plan9_ninep::dir::DIR_LEN) {
                    if data.is_empty() {
                        break;
                    }
                    offset += data.len() as u64;
                    for chunk in data.chunks(plan9_ninep::dir::DIR_LEN) {
                        if let Ok(d) = Dir::decode(chunk) {
                            if !out.iter().any(|e| e.name == d.name) {
                                out.push(d);
                            }
                        }
                    }
                }
                src.fs.clunk(&node);
            } else {
                src.clunk();
            }
        }
        out
    }
}

impl ProcFs for NsFs {
    fn fsname(&self) -> String {
        format!("exportfs:{}", self.base)
    }

    fn attach(&self, _uname: &str, _aname: &str) -> Result<ServeNode> {
        let src = self.ns.resolve(&self.base)?;
        Ok(self.install(self.base.clone(), src))
    }

    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        let (path, src) = self.with_chan(n, |c| (c.path.clone(), c.src.clone()))?;
        let src = Source {
            fs: src.fs.clone(),
            node: src.fs.clone_node(&src.node)?,
        };
        Ok(self.install(path, src))
    }

    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        let path = self.with_chan(n, |c| c.path.clone())?;
        let new_path = if name == ".." {
            let p = clean_path(&format!("{path}/.."));
            // Do not escape the exported subtree.
            let inside = p == self.base
                || self.base == "/"
                || p.starts_with(&format!("{}/", self.base));
            if inside {
                p
            } else {
                self.base.clone()
            }
        } else {
            clean_path(&format!("{path}/{name}"))
        };
        // Resolve through the name space so mounts below the export
        // root are crossed.
        let src = self.ns.resolve(&new_path)?;
        let qid = src.node.qid;
        // Replace the channel in place (walk moves the channel).
        let mut chans = self.chans.lock();
        let chan = chans
            .get_mut(&n.handle)
            .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))?;
        chan.src.clunk();
        chan.src = src;
        chan.path = new_path;
        Ok(ServeNode::new(qid, n.handle))
    }

    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        let src = self.with_chan(n, |c| c.src.clone())?;
        let node = src.fs.open(&src.node, mode)?;
        let mut chans = self.chans.lock();
        let chan = chans
            .get_mut(&n.handle)
            .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))?;
        chan.src.node = node;
        Ok(ServeNode::new(node.qid, n.handle))
    }

    fn create(&self, n: &ServeNode, name: &str, perm: Perm, mode: OpenMode) -> Result<ServeNode> {
        let (src, path) = self.with_chan(n, |c| (c.src.clone(), c.path.clone()))?;
        let node = src.fs.create(&src.node, name, perm, mode)?;
        let mut chans = self.chans.lock();
        let chan = chans
            .get_mut(&n.handle)
            .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))?;
        chan.src.node = node;
        chan.path = clean_path(&format!("{path}/{name}"));
        Ok(ServeNode::new(node.qid, n.handle))
    }

    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        // Only a directory read needs the path, for its union semantics.
        let (src, dir) = self.with_chan(n, |c| {
            (c.src.clone(), c.src.node.qid.is_dir().then(|| c.path.clone()))
        })?;
        match dir {
            Some(path) => read_dir_slice(&self.union_entries(&path), offset, count),
            None => src.fs.read(&src.node, offset, count),
        }
    }

    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        let src = self.with_chan(n, |c| c.src.clone())?;
        src.fs.write(&src.node, offset, data)
    }

    fn clunk(&self, n: &ServeNode) {
        // Out of the table first: through an imported mount the clunk is
        // an RPC, never made under `chans`.
        let chan = self.chans.lock().remove(&n.handle);
        if let Some(chan) = chan {
            chan.src.clunk();
        }
    }

    fn remove(&self, n: &ServeNode) -> Result<()> {
        let src = self.with_chan(n, |c| c.src.clone())?;
        let r = src.fs.remove(&src.node);
        self.chans.lock().remove(&n.handle);
        r
    }

    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        let src = self.with_chan(n, |c| c.src.clone())?;
        src.fs.stat(&src.node)
    }

    fn wstat(&self, n: &ServeNode, d: &Dir) -> Result<()> {
        let src = self.with_chan(n, |c| c.src.clone())?;
        src.fs.wstat(&src.node, d)
    }

    /// An attach resolves the export root, and a directory's walk or
    /// union read crosses mounts; a file is whatever the server it
    /// resolved to says.
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        let src = n.and_then(|n| self.with_chan(n, |c| c.src.clone()).ok());
        src.is_none_or(|src| src.node.qid.is_dir() || src.fs.may_block(Some(&src.node)))
    }
}

/// Serves one export conversation on an already-open data descriptor:
/// reads the initial protocol (the requested root), then relays 9P.
///
/// Blocks until the peer hangs up.
pub fn serve_export(p: &Proc, data_fd: i32, framed: bool) -> Result<()> {
    // Initial protocol: the peer names the root of the tree it wants.
    let want = p.read(data_fd, 1024)?;
    let want = String::from_utf8(want).map_err(|_| NineError::new("bad export request"))?;
    let base = want.trim();
    // Check it exists before acknowledging.
    match p.ns.resolve(base) {
        Ok(src) => {
            src.clunk();
            p.write(data_fd, b"OK")?;
        }
        Err(e) => {
            let _ = p.write(data_fd, format!("NO {e}").as_bytes());
            return Err(e);
        }
    }
    serve_ns(p, data_fd, base, framed)
}

/// Relays 9P for the subtree at `base` of `p`'s name space over an open
/// data descriptor until the peer hangs up. A byte-stream transport
/// (`framed`, i.e. TCP) gets the marshaling layer; IL, URP and pipes
/// keep delimiters themselves. Which process reads the descriptor is
/// the transport's to say ([`ProcFs::serve_nine`]), not the caller's:
/// every transport of the machine's own serves its requests where they
/// arrive, and this process only waits.
pub(crate) fn serve_ns(p: &Proc, data_fd: i32, base: &str, framed: bool) -> Result<()> {
    let fs: Arc<dyn ProcFs> = NsFs::new(p.ns.fork(), base);
    let io = p.io(data_fd)?;
    // A conversation of this machine's own — IL, TCP, URP or a pipe — is
    // served by the kernel under its `data` file, by whoever delivers
    // each request; this process waits for the hangup, makes the
    // clunks that may block, and — the slaves being its own (§6.1) —
    // waits for their ends. Only the `data` file of an imported `/net`
    // is read here.
    if let Some(svc) = io.serve_nine(&fs) {
        svc.wait();
        return Ok(());
    }
    if framed {
        let source = plan9_ninep::marshal::FramedSource::new(io.clone());
        let sink = plan9_ninep::marshal::FramedSink::new(io);
        plan9_ninep::server::serve(fs, Box::new(source), Box::new(sink))
    } else {
        plan9_ninep::server::serve(fs, Box::new(io.clone()), Box::new(io))
    }
}

/// The listener side (the Plan 9 equivalent of `inetd` running
/// `exportfs` for each incoming call): [`serve_calls`] with
/// [`serve_export`] as the service.
///
/// Returns after `max_calls` conversations have been *accepted* (so
/// tests can bound it), or once it is hung up; pass `usize::MAX` to
/// serve until then.
pub fn exportfs_listener(p: Proc, addr: &str, max_calls: usize) -> Result<Service> {
    serve_calls(p, addr, max_calls, "exportfs", |p, fd, framed| {
        let _ = serve_export(&p, fd, framed);
    })
}
