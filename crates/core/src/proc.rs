//! A simulated Plan 9 process: a name space plus a file-descriptor
//! table.
//!
//! The system calls here are the ones the paper's user-level code uses:
//! `open`, `create`, `read`, `write`, `seek`, `close`, `stat`, `remove`,
//! `mount`, `bind` — and `mount_fd`, which turns an open connection into
//! a file tree through the mount driver (§2.1).

use crate::mountdrv::{ChanIo, MountDriver};
use crate::namespace::{Namespace, Source};
use plan9_support::sync::Mutex;
use plan9_ninep::dir::DIR_LEN;
use plan9_ninep::procfs::{read_dir_slice, OpenMode, ProcFs};
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

enum FdKind {
    /// An open file on some server.
    File(Source),
    /// An open union directory: the merged entries, snapshot at open.
    Dir(Vec<Dir>),
}

struct Fd {
    kind: FdKind,
    offset: u64,
}

/// A process: name space + fd table + identity.
pub struct Proc {
    /// The process's name space.
    pub ns: Arc<Namespace>,
    /// The owning user (passed to attaches).
    pub user: String,
    fds: Mutex<BTreeMap<i32, Fd>>,
    next_fd: Mutex<i32>,
}

impl Proc {
    /// Creates a process over a name space.
    pub fn new(ns: Arc<Namespace>, user: &str) -> Proc {
        Proc {
            ns,
            user: user.to_string(),
            fds: Mutex::named(BTreeMap::new(), "core.proc.fds"),
            next_fd: Mutex::named(0, "core.proc.nextfd"),
        }
    }

    /// Forks: the child shares nothing but a copy of the name space
    /// (like `rfork(RFNAMEG)` plus a fresh fd table).
    pub fn fork(&self) -> Proc {
        Proc::new(self.ns.fork(), &self.user)
    }

    /// Forks and runs `f` over the child in a named kernel process —
    /// `rfork` plus `kproc`. The thread is registered with the virtual
    /// clock's census when one is installed, so discrete-event runs
    /// account for it before deciding the system is quiescent.
    pub fn kproc<F>(&self, name: &str, f: F) -> std::io::Result<plan9_support::vtime::KprocHandle<()>>
    where
        F: FnOnce(Proc) + Send + 'static,
    {
        let child = self.fork();
        plan9_support::vtime::kproc(name, move || f(child))
    }

    fn install(&self, fd: Fd) -> i32 {
        let mut next = self.next_fd.lock();
        let n = *next;
        *next += 1;
        self.fds.lock().insert(n, fd);
        n
    }

    /// Opens a file (or directory) and returns a descriptor.
    pub fn open(&self, path: &str, mode: OpenMode) -> Result<i32> {
        let src = self.ns.resolve(path)?;
        if src.node.qid.is_dir() && mode.access() == 0 {
            src.clunk();
            let entries = self.union_entries(path)?;
            return Ok(self.install(Fd {
                kind: FdKind::Dir(entries),
                offset: 0,
            }));
        }
        match src.fs.open(&src.node, mode) {
            Ok(node) => Ok(self.install(Fd {
                kind: FdKind::File(Source {
                    fs: src.fs,
                    node,
                }),
                offset: 0,
            })),
            Err(e) => {
                src.clunk();
                Err(e)
            }
        }
    }

    /// Creates a file in the directory part of `path` and opens it.
    pub fn create(&self, path: &str, perm: u32, mode: OpenMode) -> Result<i32> {
        let clean = crate::namespace::clean_path(path);
        let (dir, name) = clean
            .rsplit_once('/')
            .ok_or_else(|| NineError::new("bad path"))?;
        let dir = if dir.is_empty() { "/" } else { dir };
        let src = self.ns.resolve(dir)?;
        match src.fs.create(&src.node, name, perm, mode) {
            Ok(node) => Ok(self.install(Fd {
                kind: FdKind::File(Source {
                    fs: src.fs,
                    node,
                }),
                offset: 0,
            })),
            Err(e) => {
                src.clunk();
                Err(e)
            }
        }
    }

    /// Reads up to `count` bytes at the descriptor's offset.
    pub fn read(&self, fd: i32, count: usize) -> Result<Vec<u8>> {
        // Take what we need under the lock, do I/O outside it so reads
        // that block (listen, data files) don't freeze the process's
        // other descriptors.
        let (src, offset) = {
            let fds = self.fds.lock();
            let f = fds.get(&fd).ok_or_else(|| NineError::new("bad fd"))?;
            match &f.kind {
                FdKind::Dir(entries) => {
                    let data = read_dir_slice(entries, f.offset, count)?;
                    drop(fds);
                    let mut fds = self.fds.lock();
                    if let Some(f) = fds.get_mut(&fd) {
                        f.offset += data.len() as u64;
                    }
                    return Ok(data);
                }
                FdKind::File(src) => (src.clone(), f.offset),
            }
        };
        let data = src.fs.read(&src.node, offset, count)?;
        let mut fds = self.fds.lock();
        if let Some(f) = fds.get_mut(&fd) {
            f.offset += data.len() as u64;
        }
        Ok(data)
    }

    /// Reads at an explicit offset without moving the descriptor.
    pub fn pread(&self, fd: i32, offset: u64, count: usize) -> Result<Vec<u8>> {
        let src = self.fd_source(fd)?;
        src.fs.read(&src.node, offset, count)
    }

    /// Writes at the descriptor's offset.
    pub fn write(&self, fd: i32, data: &[u8]) -> Result<usize> {
        let (src, offset) = {
            let fds = self.fds.lock();
            let f = fds.get(&fd).ok_or_else(|| NineError::new("bad fd"))?;
            match &f.kind {
                FdKind::Dir(_) => return Err(NineError::new(errstr::EISDIR)),
                FdKind::File(src) => (src.clone(), f.offset),
            }
        };
        let n = src.fs.write(&src.node, offset, data)?;
        let mut fds = self.fds.lock();
        if let Some(f) = fds.get_mut(&fd) {
            f.offset += n as u64;
        }
        Ok(n)
    }

    /// Writes a string (ctl-file convenience).
    pub fn write_str(&self, fd: i32, s: &str) -> Result<usize> {
        self.write(fd, s.as_bytes())
    }

    /// Reads the whole remaining contents as a string.
    pub fn read_string(&self, fd: i32) -> Result<String> {
        let mut out = Vec::new();
        loop {
            let chunk = self.read(fd, 8192)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
            if out.len() > 1 << 20 {
                break;
            }
        }
        String::from_utf8(out).map_err(|_| NineError::new("not text"))
    }

    /// Sets the descriptor's offset.
    pub fn seek(&self, fd: i32, offset: u64) -> Result<()> {
        let mut fds = self.fds.lock();
        let f = fds.get_mut(&fd).ok_or_else(|| NineError::new("bad fd"))?;
        f.offset = offset;
        Ok(())
    }

    /// Closes a descriptor.
    pub fn close(&self, fd: i32) {
        // Out of the table first: a clunk may be a hangup or a remote
        // Tclunk, and is never made under `fds`.
        let f = self.fds.lock().remove(&fd);
        if let Some(Fd { kind: FdKind::File(src), .. }) = f {
            src.clunk();
        }
    }

    fn fd_source(&self, fd: i32) -> Result<Source> {
        let fds = self.fds.lock();
        match fds.get(&fd) {
            Some(Fd {
                kind: FdKind::File(src),
                ..
            }) => Ok(src.clone()),
            Some(_) => Err(NineError::new(errstr::EISDIR)),
            None => Err(NineError::new("bad fd")),
        }
    }

    /// Stats a path.
    pub fn stat(&self, path: &str) -> Result<Dir> {
        let src = self.ns.resolve(path)?;
        let d = src.fs.stat(&src.node);
        src.clunk();
        d
    }

    /// Removes the file at `path`.
    pub fn remove(&self, path: &str) -> Result<()> {
        let src = self.ns.resolve(path)?;
        src.fs.remove(&src.node)
    }

    /// Lists a directory, applying union semantics.
    pub fn ls(&self, path: &str) -> Result<Vec<Dir>> {
        self.union_entries(path)
    }

    fn union_entries(&self, path: &str) -> Result<Vec<Dir>> {
        let sources = self.ns.resolve_all(path);
        if sources.is_empty() {
            return Err(NineError::new(errstr::ENOTEXIST));
        }
        let mut out: Vec<Dir> = Vec::new();
        for src in sources {
            if !src.node.qid.is_dir() {
                // A union member that is a plain file: stat it.
                if let Ok(d) = src.fs.stat(&src.node) {
                    if !out.iter().any(|e| e.name == d.name) {
                        out.push(d);
                    }
                }
                src.clunk();
                continue;
            }
            match src.fs.open(&src.node, OpenMode::READ) {
                Ok(node) => {
                    let mut offset = 0u64;
                    while let Ok(data) = src.fs.read(&node, offset, 16 * DIR_LEN) {
                        if data.is_empty() {
                            break;
                        }
                        offset += data.len() as u64;
                        for chunk in data.chunks(DIR_LEN) {
                            if let Ok(d) = Dir::decode(chunk) {
                                // Earlier members supersede later ones.
                                if !out.iter().any(|e| e.name == d.name) {
                                    out.push(d);
                                }
                            }
                        }
                    }
                    src.fs.clunk(&node);
                }
                Err(_) => src.clunk(),
            }
        }
        Ok(out)
    }

    /// Mounts a file server at `path`.
    pub fn mount_fs(&self, fs: &Arc<dyn ProcFs>, aname: &str, path: &str, flags: u32) -> Result<()> {
        let src = Source::attach(fs, &self.user, aname)?;
        self.ns.mount(src, path, flags)
    }

    /// Mounts the 9P server reachable through an open descriptor — the
    /// paper's `mount` system call: "provides a file descriptor, which
    /// can be a pipe to a user process or a network connection to a
    /// remote machine".
    ///
    /// `framed` must be true when the descriptor is a byte stream that
    /// does not preserve delimiters (TCP), engaging the marshaling layer.
    pub fn mount_fd(&self, fd: i32, aname: &str, path: &str, flags: u32, framed: bool) -> Result<()> {
        let src = self.fd_source(fd)?;
        let io = ChanIo::new(src);
        let driver = if framed {
            MountDriver::over_bytes(io)
        } else {
            MountDriver::over_messages(io)
        };
        let fs: Arc<dyn ProcFs> = driver?;
        self.mount_fs(&fs, aname, path, flags)
    }

    /// Binds `from` over `to`.
    pub fn bind(&self, from: &str, to: &str, flags: u32) -> Result<()> {
        self.ns.bind(from, to, flags)
    }

    /// Creates a stream pipe (§2.4) and returns descriptors for its two
    /// ends, like the pipe(2) system call.
    pub fn pipe(&self) -> Result<(i32, i32)> {
        let fs: Arc<dyn ProcFs> = crate::dev::PipeFs::new();
        let root = fs.attach(&self.user, "")?;
        let a = fs.walk(&fs.clone_node(&root)?, "data")?;
        let a = fs.open(&a, OpenMode::RDWR)?;
        let b = fs.walk(&fs.clone_node(&root)?, "data1")?;
        let b = fs.open(&b, OpenMode::RDWR)?;
        fs.clunk(&root);
        let fd_a = self.install(Fd {
            kind: FdKind::File(Source {
                fs: Arc::clone(&fs),
                node: a,
            }),
            offset: 0,
        });
        let fd_b = self.install(Fd {
            kind: FdKind::File(Source { fs, node: b }),
            offset: 0,
        });
        Ok((fd_a, fd_b))
    }

    /// Message/byte I/O over an open descriptor, for code that serves a
    /// protocol across it (exportfs).
    pub fn io(&self, fd: i32) -> Result<ChanIo> {
        Ok(ChanIo::new(self.fd_source(fd)?))
    }

    /// Forks and *transfers* one open descriptor to the child, the way
    /// the listener hands an accepted call to a fresh process. The
    /// descriptor disappears from this process.
    pub fn fork_with_fd(&self, fd: i32) -> (Proc, i32) {
        let child = self.fork();
        let moved = {
            let mut fds = self.fds.lock();
            fds.remove(&fd)
        };
        let child_fd = match moved {
            Some(f) => child.install(f),
            None => -1,
        };
        (child, child_fd)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // A process's channels are clunked when it exits.
        let fds: Vec<Fd> = {
            let mut table = self.fds.lock();
            std::mem::take(&mut *table).into_values().collect()
        };
        for fd in fds {
            if let FdKind::File(src) = fd.kind {
                src.clunk();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_ninep::procfs::MemFs;

    fn proc_with_root() -> Proc {
        let root = MemFs::new("root", "bootes");
        root.put_file("/net/README", b"the net directory").unwrap();
        root.put_file("/dev/null", b"").unwrap();
        root.put_file("/lib/ndb/local", b"sys=gnot\n").unwrap();
        let fs: Arc<dyn ProcFs> = root;
        let ns = Namespace::new(Source::attach(&fs, "philw", "").unwrap());
        Proc::new(ns, "philw")
    }

    #[test]
    fn close_clunks_outside_the_descriptor_table() {
        let p = proc_with_root();
        let probe = crate::namespace::probe::ClunkProbe::new();
        let fs: Arc<dyn ProcFs> = probe.clone();
        p.mount_fs(&fs, "", "/n/probe", crate::namespace::MREPL).unwrap();
        let fd = p.open("/n/probe/f", OpenMode::READ).unwrap();
        probe.held.lock().unwrap().clear();
        p.close(fd);
        assert_eq!(*probe.held.lock().unwrap(), [0], "the descriptor's clunk ran under a lock");
    }

    #[test]
    fn open_read_close() {
        let p = proc_with_root();
        let fd = p.open("/net/README", OpenMode::READ).unwrap();
        assert_eq!(p.read(fd, 3).unwrap(), b"the");
        assert_eq!(p.read(fd, 100).unwrap(), b" net directory");
        assert_eq!(p.read(fd, 100).unwrap(), b"");
        p.close(fd);
        assert!(p.read(fd, 1).is_err());
    }

    #[test]
    fn create_write_stat() {
        let p = proc_with_root();
        let fd = p.create("/tmpfile", 0o644, OpenMode::WRITE).unwrap();
        p.write(fd, b"hello").unwrap();
        p.close(fd);
        let d = p.stat("/tmpfile").unwrap();
        assert_eq!(d.length, 5);
        p.remove("/tmpfile").unwrap();
        assert!(p.stat("/tmpfile").is_err());
    }

    #[test]
    fn ls_merges_unions() {
        let p = proc_with_root();
        let extra = MemFs::new("extra", "u");
        extra.put_file("/cs", b"").unwrap();
        extra.put_file("/README", b"shadowed").unwrap();
        let fs: Arc<dyn ProcFs> = extra;
        p.mount_fs(&fs, "", "/net", crate::namespace::MAFTER).unwrap();
        let names: Vec<String> = p.ls("/net").unwrap().iter().map(|d| d.name.clone()).collect();
        assert!(names.contains(&"README".to_string()));
        assert!(names.contains(&"cs".to_string()));
        // Shadowed: README appears once (the local one).
        assert_eq!(names.iter().filter(|n| *n == "README").count(), 1);
        let fd = p.open("/net/README", OpenMode::READ).unwrap();
        assert_eq!(p.read(fd, 100).unwrap(), b"the net directory");
    }

    #[test]
    fn dir_fd_reads_entries() {
        let p = proc_with_root();
        let fd = p.open("/net", OpenMode::READ).unwrap();
        let data = p.read(fd, 4096).unwrap();
        assert_eq!(data.len() % DIR_LEN, 0);
        let d = Dir::decode(&data[..DIR_LEN]).unwrap();
        assert_eq!(d.name, "README");
    }

    #[test]
    fn fork_gets_private_namespace_and_fds() {
        let p = proc_with_root();
        let fd = p.open("/dev/null", OpenMode::READ).unwrap();
        let child = p.fork();
        assert!(child.read(fd, 1).is_err(), "fds are not inherited");
        child.bind("/dev", "/net", crate::namespace::MBEFORE).unwrap();
        assert!(child.open("/net/null", OpenMode::READ).is_ok());
        assert!(p.open("/net/null", OpenMode::READ).is_err());
    }

    #[test]
    fn pipe_syscall_and_mount_over_it() {
        let p = proc_with_root();
        let (a, b) = p.pipe().unwrap();
        p.write(a, b"through the kernel pipe").unwrap();
        assert_eq!(p.read(b, 100).unwrap(), b"through the kernel pipe");
        // "The mount system call provides a file descriptor, which can
        // be a pipe to a user process": serve a MemFs over one end and
        // mount the other.
        let (srv_fd, cli_fd) = p.pipe().unwrap();
        let served = MemFs::new("userfs", "u");
        served.put_file("/answer", b"42").unwrap();
        let io = p.io(srv_fd).unwrap();
        let fs: Arc<dyn ProcFs> = served;
        std::thread::spawn(move || {
            let _ = plan9_ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
        });
        p.mount_fd(cli_fd, "", "/net", crate::namespace::MBEFORE, false)
            .unwrap();
        let fd = p.open("/net/answer", OpenMode::READ).unwrap();
        assert_eq!(p.read(fd, 10).unwrap(), b"42");
    }

    #[test]
    fn seek_and_pread() {
        let p = proc_with_root();
        let fd = p.open("/net/README", OpenMode::READ).unwrap();
        p.seek(fd, 4).unwrap();
        assert_eq!(p.read(fd, 3).unwrap(), b"net");
        assert_eq!(p.pread(fd, 0, 3).unwrap(), b"the");
        // pread did not move the offset.
        assert_eq!(p.read(fd, 100).unwrap(), b" directory");
    }
}
