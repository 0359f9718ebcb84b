//! The pipe device: stream pipes behind the file interface.
//!
//! Plan 9's `#|` serves each pipe as a little tree of two data files;
//! here one [`PipeFs`] instance is one pipe, with `data` and `data1` as
//! its two ends. "The first process to open either file creates the
//! stream automatically. The last close destroys it" (§2.4.1) — the
//! stream pair lives exactly as long as open references to it.

use plan9_support::sync::Mutex;
use plan9_ninep::procfs::{Dev, OpenMode, ServeNode, ROOT};
use plan9_ninep::qid::Qid;
use plan9_ninep::{errstr, Dir, NineError, Result};
use plan9_streams::{stream_pipe, Stream};
use std::collections::HashMap;
use std::sync::Arc;

/// One pipe as a file server.
pub struct PipeFs {
    ends: [Arc<Stream>; 2],
    /// Open references per end, for last-close destruction.
    refs: Mutex<HashMap<u64, usize>>,
    open_count: Mutex<[usize; 2]>,
}

impl PipeFs {
    /// Creates a fresh pipe.
    pub fn new() -> Arc<PipeFs> {
        let (a, b) = stream_pipe();
        Arc::new(PipeFs {
            ends: [a, b],
            refs: Mutex::named(HashMap::new(), "core.pipedev.refs"),
            open_count: Mutex::named([0, 0], "core.pipedev.open"),
        })
    }

    /// The end behind `data` (qid path 1) or `data1` (2).
    fn end_of(&self, q: Qid) -> Result<usize> {
        match q.path_bits() {
            p @ 1..=2 => Ok(p as usize - 1),
            _ => Err(NineError::new(errstr::EBADUSE)),
        }
    }
}

impl Dev for PipeFs {
    fn name(&self) -> String {
        "pipe".to_string()
    }

    fn root(&self) -> Dir {
        Dir::directory("pipe", ROOT, 0o555, "pipe")
    }

    fn rows(&self, _dir: Qid) -> Vec<Dir> {
        let row = |(name, path)| Dir::file(name, Qid::file(path, 0), 0o660, "pipe", 0);
        [("data", 1), ("data1", 2)].map(row).to_vec()
    }

    fn open_node(&self, n: &ServeNode, _mode: OpenMode) -> Result<ServeNode> {
        if !n.qid.is_dir() {
            let end = self.end_of(n.qid)?;
            self.refs.lock().insert(n.handle, end);
            self.open_count.lock()[end] += 1;
        }
        Ok(*n)
    }

    fn read_file(&self, n: &ServeNode, _offset: u64, count: usize) -> Result<Vec<u8>> {
        self.ends[self.end_of(n.qid)?].read(count)
    }

    fn write_file(&self, n: &ServeNode, _offset: u64, data: &[u8]) -> Result<usize> {
        self.ends[self.end_of(n.qid)?].write(data)
    }

    fn clunk_node(&self, n: &ServeNode) {
        if let Some(end) = self.refs.lock().remove(&n.handle) {
            let mut counts = self.open_count.lock();
            counts[end] = counts[end].saturating_sub(1);
            if counts[end] == 0 {
                // The last close of this end hangs up the peer.
                self.ends[end].destroy();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_ninep::procfs::ProcFs;

    #[test]
    fn two_ends_converse() {
        let fs = PipeFs::new();
        let root = fs.attach("u", "").unwrap();
        let a = fs.walk(&fs.clone_node(&root).unwrap(), "data").unwrap();
        let a = fs.open(&a, OpenMode::RDWR).unwrap();
        let b = fs.walk(&fs.clone_node(&root).unwrap(), "data1").unwrap();
        let b = fs.open(&b, OpenMode::RDWR).unwrap();
        fs.write(&a, 0, b"ping").unwrap();
        assert_eq!(fs.read(&b, 0, 100).unwrap(), b"ping");
        fs.write(&b, 0, b"pong").unwrap();
        assert_eq!(fs.read(&a, 0, 100).unwrap(), b"pong");
    }

    #[test]
    fn last_close_hangs_up() {
        let fs = PipeFs::new();
        let root = fs.attach("u", "").unwrap();
        let a = fs.walk(&fs.clone_node(&root).unwrap(), "data").unwrap();
        let a = fs.open(&a, OpenMode::RDWR).unwrap();
        let b = fs.walk(&fs.clone_node(&root).unwrap(), "data1").unwrap();
        let b = fs.open(&b, OpenMode::RDWR).unwrap();
        fs.write(&a, 0, b"tail").unwrap();
        fs.clunk(&a);
        assert_eq!(fs.read(&b, 0, 100).unwrap(), b"tail");
        assert_eq!(fs.read(&b, 0, 100).unwrap(), b"", "EOF after hangup");
    }
}
