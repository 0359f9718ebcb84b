//! The file servers the tests serve, written once: a `MemFs` with a
//! hook before each read and its own say in which files may block, and
//! the probe, which notes the thread each read ran on.

use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9::ninep::{Dir, Result};
use std::collections::HashSet;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// What a test's file server adds to the tree it serves.
pub trait Hooks: Send + Sync + 'static {
    fn mem(&self) -> &MemFs;
    /// Runs before each read of `n`, on the thread that serves it.
    fn before_read(&self, _n: &ServeNode) {}
    /// Whether an operation on `n` (`None`: the attach) may block.
    fn may_block(&self, n: Option<&ServeNode>) -> bool;
}

/// A file server of `T`'s tree, with `T`'s hooks.
pub struct Hooked<T>(pub T);

impl<T> Deref for Hooked<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Hooks> ProcFs for Hooked<T> {
    fn fsname(&self) -> String {
        self.0.mem().fsname()
    }
    fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
        self.0.mem().attach(uname, aname)
    }
    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        self.0.mem().clone_node(n)
    }
    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        self.0.mem().walk(n, name)
    }
    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        self.0.mem().open(n, mode)
    }
    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        self.0.before_read(n);
        self.0.mem().read(n, offset, count)
    }
    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        self.0.mem().write(n, offset, data)
    }
    fn clunk(&self, n: &ServeNode) {
        self.0.mem().clunk(n)
    }
    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        self.0.mem().stat(n)
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        self.0.may_block(n)
    }
}

/// The name of the thread running this.
pub fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

/// A file server of data at hand (it says so) that notes the thread
/// each read ran on, and whether the read was of a directory: which
/// process serves an importer's read is what the tests that use it ask.
pub struct Probe {
    mem: Arc<MemFs>,
    pub reads: Mutex<Vec<(bool, String)>>,
}

impl Probe {
    /// A probe serving one file, `/f`, which holds "data at hand".
    pub fn new() -> Arc<Hooked<Probe>> {
        let mem = MemFs::new("probe", "bootes");
        mem.put_file("/f", b"data at hand").unwrap();
        Arc::new(Hooked(Probe { mem, reads: Mutex::new(Vec::new()) }))
    }

    /// The names of the threads that read a directory, or a file.
    pub fn readers(&self, dir: bool) -> HashSet<String> {
        let reads = self.reads.lock().unwrap();
        reads.iter().filter(|r| r.0 == dir).map(|r| r.1.clone()).collect()
    }
}

impl Hooks for Probe {
    fn mem(&self) -> &MemFs {
        &self.mem
    }
    fn before_read(&self, n: &ServeNode) {
        self.reads.lock().unwrap().push((n.qid.is_dir(), thread_name()));
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        self.mem.may_block(n)
    }
}
