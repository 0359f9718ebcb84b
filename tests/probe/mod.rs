//! A file server of data at hand (it says so) that notes the thread
//! each read ran on, and whether the read was of a directory: which
//! process serves an importer's read is what the tests that use it ask.

use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9::ninep::{Dir, Result};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

pub struct Probe {
    mem: Arc<MemFs>,
    pub reads: Mutex<Vec<(bool, String)>>,
}

impl Probe {
    /// A probe serving one file, `/f`, which holds "data at hand".
    pub fn new() -> Arc<Probe> {
        let mem = MemFs::new("probe", "bootes");
        mem.put_file("/f", b"data at hand").unwrap();
        Arc::new(Probe { mem, reads: Mutex::new(Vec::new()) })
    }

    /// The names of the threads that read a directory, or a file.
    pub fn readers(&self, dir: bool) -> HashSet<String> {
        let reads = self.reads.lock().unwrap();
        reads.iter().filter(|r| r.0 == dir).map(|r| r.1.clone()).collect()
    }
}

impl ProcFs for Probe {
    fn fsname(&self) -> String {
        self.mem.fsname()
    }
    fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
        self.mem.attach(uname, aname)
    }
    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        self.mem.clone_node(n)
    }
    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        self.mem.walk(n, name)
    }
    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        self.mem.open(n, mode)
    }
    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let thread = std::thread::current().name().unwrap_or("").to_string();
        self.reads.lock().unwrap().push((n.qid.is_dir(), thread));
        self.mem.read(n, offset, count)
    }
    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        self.mem.write(n, offset, data)
    }
    fn clunk(&self, n: &ServeNode) {
        self.mem.clunk(n)
    }
    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        self.mem.stat(n)
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        self.mem.may_block(n)
    }
}
