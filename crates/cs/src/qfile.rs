//! A single-file query server: write a question, read answers line by
//! line.
//!
//! "A client writes a symbolic name to /net/cs then reads one line for
//! each matching destination reachable from this system." DNS works the
//! same way on `/net/dns`. [`QueryFs`] captures that conversation once;
//! CS and DNS plug in their translation functions.

use plan9_support::sync::Mutex;
use plan9_ninep::procfs::{Dev, OpenMode, ServeNode, ROOT};
use plan9_ninep::qid::Qid;
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::collections::HashMap;

/// Translates one written query into reply lines.
pub type QueryHandler = Box<dyn Fn(&str) -> Result<Vec<String>> + Send + Sync>;

struct Conversation {
    lines: Vec<String>,
    next: usize,
}

/// A file server with one file; each open channel holds an independent
/// query conversation.
pub struct QueryFs {
    name: String,
    fname: String,
    handler: QueryHandler,
    convs: Mutex<HashMap<u64, Conversation>>,
}

impl QueryFs {
    /// Creates a query server whose single file is named `fname`.
    pub fn new(name: &str, fname: &str, handler: QueryHandler) -> std::sync::Arc<QueryFs> {
        std::sync::Arc::new(QueryFs {
            name: name.to_string(),
            fname: fname.to_string(),
            handler,
            convs: Mutex::new(HashMap::new()),
        })
    }
}

impl Dev for QueryFs {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn root(&self) -> Dir {
        Dir::directory("/", ROOT, 0o555, "network")
    }

    fn rows(&self, _dir: Qid) -> Vec<Dir> {
        let mut d = Dir::file(&self.fname, Qid::file(1, 0), 0o666, "network", 0);
        d.dev_type = b'x' as u16;
        vec![d]
    }

    fn open_node(&self, n: &ServeNode, _mode: OpenMode) -> Result<ServeNode> {
        if !n.qid.is_dir() {
            let fresh = Conversation { lines: Vec::new(), next: 0 };
            self.convs.lock().insert(n.handle, fresh);
        }
        Ok(*n)
    }

    fn read_file(&self, n: &ServeNode, _offset: u64, count: usize) -> Result<Vec<u8>> {
        let mut convs = self.convs.lock();
        let conv = convs
            .get_mut(&n.handle)
            .ok_or_else(|| NineError::new(errstr::ENOTOPEN))?;
        // One line per read, newline-free, like ndb/cs.
        if conv.next >= conv.lines.len() {
            return Ok(Vec::new());
        }
        let line = &conv.lines[conv.next];
        conv.next += 1;
        Ok(line.as_bytes().iter().copied().take(count).collect())
    }

    fn write_file(&self, n: &ServeNode, _offset: u64, data: &[u8]) -> Result<usize> {
        let query = std::str::from_utf8(data)
            .map_err(|_| NineError::new("query is not text"))?
            .trim()
            .to_string();
        let lines = (self.handler)(&query)?;
        let mut convs = self.convs.lock();
        let conv = convs
            .get_mut(&n.handle)
            .ok_or_else(|| NineError::new(errstr::ENOTOPEN))?;
        conv.lines = lines;
        conv.next = 0;
        Ok(data.len())
    }

    fn clunk_node(&self, n: &ServeNode) {
        self.convs.lock().remove(&n.handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_ninep::procfs::ProcFs;

    fn echo_fs() -> std::sync::Arc<QueryFs> {
        QueryFs::new(
            "cs",
            "cs",
            Box::new(|q| {
                if q == "boom" {
                    return Err(NineError::new("translation failed"));
                }
                Ok(vec![format!("first {q}"), format!("second {q}")])
            }),
        )
    }

    #[test]
    fn write_then_read_lines() {
        let fs = echo_fs();
        let root = fs.attach("u", "").unwrap();
        let f = fs.walk(&root, "cs").unwrap();
        let f = fs.open(&f, OpenMode::RDWR).unwrap();
        fs.write(&f, 0, b"net!helix!9fs").unwrap();
        assert_eq!(fs.read(&f, 0, 256).unwrap(), b"first net!helix!9fs");
        assert_eq!(fs.read(&f, 0, 256).unwrap(), b"second net!helix!9fs");
        assert_eq!(fs.read(&f, 0, 256).unwrap(), b"");
    }

    #[test]
    fn conversations_are_per_channel() {
        let fs = echo_fs();
        let root = fs.attach("u", "").unwrap();
        let a = fs.clone_node(&root).unwrap();
        let a = fs.walk(&a, "cs").unwrap();
        let a = fs.open(&a, OpenMode::RDWR).unwrap();
        let b = fs.clone_node(&root).unwrap();
        let b = fs.walk(&b, "cs").unwrap();
        let b = fs.open(&b, OpenMode::RDWR).unwrap();
        fs.write(&a, 0, b"one").unwrap();
        fs.write(&b, 0, b"two").unwrap();
        assert_eq!(fs.read(&a, 0, 256).unwrap(), b"first one");
        assert_eq!(fs.read(&b, 0, 256).unwrap(), b"first two");
    }

    #[test]
    fn handler_errors_become_nine_errors() {
        let fs = echo_fs();
        let root = fs.attach("u", "").unwrap();
        let f = fs.walk(&root, "cs").unwrap();
        let f = fs.open(&f, OpenMode::RDWR).unwrap();
        let err = fs.write(&f, 0, b"boom").unwrap_err();
        assert_eq!(err.0, "translation failed");
    }

    #[test]
    fn directory_lists_the_single_file() {
        let fs = echo_fs();
        let root = fs.attach("u", "").unwrap();
        let root = fs.open(&root, OpenMode::READ).unwrap();
        let bytes = fs.read(&root, 0, 4096).unwrap();
        let d = Dir::decode(&bytes).unwrap();
        assert_eq!(d.name, "cs");
    }

    #[test]
    fn unopened_io_refused() {
        let fs = echo_fs();
        let root = fs.attach("u", "").unwrap();
        let f = fs.walk(&root, "cs").unwrap();
        assert!(fs.write(&f, 0, b"q").is_err());
        assert!(fs.read(&f, 0, 10).is_err());
    }
}
