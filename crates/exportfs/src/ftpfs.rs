//! ftpfs: FTP as a file system (§6.2).
//!
//! "We decided to make our interface to FTP a file system rather than
//! the traditional command. Our command, ftpfs, dials the FTP port of a
//! remote system, prompts for login and password, sets image mode, and
//! mounts the remote file system onto /n/ftp. Files and directories are
//! cached to reduce traffic. The cache is updated whenever a file is
//! created."

use crate::ftpd::LineChan;
use plan9_support::sync::Mutex;
use plan9_core::dial::dial;
use plan9_core::namespace::clean_path;
use plan9_core::proc::Proc;
use plan9_ninep::procfs::{read_dir_slice, OpenMode, Perm, ProcFs, ServeNode};
use plan9_ninep::qid::Qid;
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::collections::HashMap;
use plan9_netlog::Counter;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One FTP control conversation, shared by all file operations.
struct FtpClient {
    p: Proc,
    fd: i32,
    buf: Vec<u8>,
}

#[derive(Clone)]
enum CacheEntry {
    Dir(Vec<(String, bool, u64)>),
    File(Vec<u8>),
}

/// FTP presented as a file tree with caching.
pub struct FtpFs {
    client: Mutex<FtpClient>,
    cache: Mutex<HashMap<String, CacheEntry>>,
    /// Local modifications awaiting flush, path → contents.
    dirty: Mutex<HashMap<String, Vec<u8>>>,
    qids: Mutex<HashMap<String, u32>>,
    next_qid: AtomicU32,
    handles: AtomicU64,
    nodes: Mutex<HashMap<u64, String>>,
    /// Control round trips performed (cache effectiveness metric).
    pub round_trips: Counter,
}

impl FtpFs {
    /// Dials the FTP port of `dest` (e.g. `tcp!fileserver!ftp`), logs in
    /// and sets image mode, returning the mountable file system.
    pub fn dial_and_login(p: Proc, dest: &str, user: &str, pass: &str) -> Result<Arc<FtpFs>> {
        let conn = dial(&p, dest)?;
        let fd = conn.data_fd;
        let fs = Arc::new(FtpFs {
            client: Mutex::new(FtpClient {
                p,
                fd,
                buf: Vec::new(),
            }),
            cache: Mutex::new(HashMap::new()),
            dirty: Mutex::new(HashMap::new()),
            qids: Mutex::new(HashMap::new()),
            next_qid: AtomicU32::new(1),
            handles: AtomicU64::new(1),
            nodes: Mutex::new(HashMap::new()),
            round_trips: Counter::new("ftp.roundtrips"),
        });
        {
            let mut client = fs.client.lock();
            let mut chan = client.chan_raw();
            expect_code(&mut chan, "220")?;
            chan.write_line(&format!("USER {user}"))?;
            expect_code(&mut chan, "331")?;
            chan.write_line(&format!("PASS {pass}"))?;
            expect_code(&mut chan, "230")?;
            chan.write_line("TYPE I")?;
            expect_code(&mut chan, "200")?;
            let leftover = chan.take_buffer();
            client.buf = leftover;
        }
        Ok(fs)
    }

    fn qid_for(&self, path: &str, dir: bool) -> Qid {
        let mut qids = self.qids.lock();
        let id = *qids.entry(path.to_string()).or_insert_with(|| {
            self.next_qid.fetch_add(1, Ordering::Relaxed)
        });
        if dir {
            Qid::dir(id, 0)
        } else {
            Qid::file(id, 0)
        }
    }

    fn node_path(&self, n: &ServeNode) -> Result<String> {
        self.nodes
            .lock()
            .get(&n.handle)
            .cloned()
            .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))
    }

    fn install(&self, path: String, dir: bool) -> ServeNode {
        let handle = self.handles.fetch_add(1, Ordering::Relaxed);
        let qid = self.qid_for(&path, dir);
        self.nodes.lock().insert(handle, path);
        ServeNode::new(qid, handle)
    }

    /// Fetches (or serves from cache) the listing of a directory.
    fn list_dir(&self, path: &str) -> Result<Vec<(String, bool, u64)>> {
        let cached = self.cache.lock().get(path).cloned();
        if let Some(CacheEntry::Dir(entries)) = cached {
            return Ok(entries);
        }
        self.round_trips.inc();
        let mut client = self.client.lock();
        let mut chan = client.chan_raw();
        chan.write_line(&format!("LIST {path}"))?;
        let line = chan.read_line()?;
        if !line.starts_with("150") {
            return Err(NineError::new(line));
        }
        let len: usize = line[4..]
            .trim()
            .parse()
            .map_err(|_| NineError::new("ftp: bad 150"))?;
        let text = chan.read_exact(len)?;
        expect_code(&mut chan, "226")?;
        client.buf = chan.take_buffer();
        drop(client);
        let mut entries = Vec::new();
        for l in String::from_utf8_lossy(&text).lines() {
            let mut parts = l.split_whitespace();
            let (Some(kind), Some(size), Some(name)) =
                (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            entries.push((
                name.to_string(),
                kind == "d",
                size.parse().unwrap_or(0),
            ));
        }
        self.cache
            .lock()
            .insert(path.to_string(), CacheEntry::Dir(entries.clone()));
        Ok(entries)
    }

    /// Fetches (or serves from cache) a file's contents.
    fn fetch_file(&self, path: &str) -> Result<Vec<u8>> {
        if let Some(data) = self.dirty.lock().get(path) {
            return Ok(data.clone());
        }
        let cached = self.cache.lock().get(path).cloned();
        if let Some(CacheEntry::File(data)) = cached {
            return Ok(data);
        }
        self.round_trips.inc();
        let mut client = self.client.lock();
        let mut chan = client.chan_raw();
        chan.write_line(&format!("RETR {path}"))?;
        let line = chan.read_line()?;
        if !line.starts_with("150") {
            return Err(NineError::new(line));
        }
        let len: usize = line[4..]
            .trim()
            .parse()
            .map_err(|_| NineError::new("ftp: bad 150"))?;
        let data = chan.read_exact(len)?;
        expect_code(&mut chan, "226")?;
        client.buf = chan.take_buffer();
        drop(client);
        self.cache
            .lock()
            .insert(path.to_string(), CacheEntry::File(data.clone()));
        Ok(data)
    }

    /// Pushes a locally written file to the server and refreshes caches
    /// ("the cache is updated whenever a file is created").
    fn store(&self, path: &str, data: &[u8]) -> Result<()> {
        self.round_trips.inc();
        let mut client = self.client.lock();
        let mut chan = client.chan_raw();
        chan.write_line(&format!("STOR {} {}", data.len(), path))?;
        chan.write_raw(data)?;
        expect_code(&mut chan, "226")?;
        client.buf = chan.take_buffer();
        drop(client);
        self.cache
            .lock()
            .insert(path.to_string(), CacheEntry::File(data.to_vec()));
        // Parent listing is stale now.
        if let Some((parent, _)) = path.rsplit_once('/') {
            let parent = if parent.is_empty() { "/" } else { parent };
            self.cache.lock().remove(parent);
        }
        Ok(())
    }
}

impl std::fmt::Debug for FtpFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FtpFs(cached {}, round trips {})",
            self.cache.lock().len(),
            self.round_trips.get()
        )
    }
}

impl FtpClient {
    fn chan_raw(&mut self) -> LineChan<'_> {
        let buffered = std::mem::take(&mut self.buf);
        let mut chan = LineChan::new(&self.p, self.fd);
        chan.preload(buffered);
        chan
    }
}

fn expect_code(chan: &mut LineChan<'_>, code: &str) -> Result<String> {
    let line = chan.read_line()?;
    if line.starts_with(code) {
        Ok(line)
    } else {
        Err(NineError::new(format!("ftp: unexpected reply: {line}")))
    }
}

impl ProcFs for FtpFs {
    fn fsname(&self) -> String {
        "ftp".to_string()
    }

    fn attach(&self, _uname: &str, _aname: &str) -> Result<ServeNode> {
        Ok(self.install("/".to_string(), true))
    }

    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        let path = self.node_path(n)?;
        let dir = n.qid.is_dir();
        Ok(self.install(path, dir))
    }

    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        let path = self.node_path(n)?;
        if !n.qid.is_dir() {
            return Err(NineError::new(errstr::ENOTDIR));
        }
        let new_path = clean_path(&format!("{path}/{name}"));
        if name == ".." {
            let qid = self.qid_for(&new_path, true);
            self.nodes.lock().insert(n.handle, new_path);
            return Ok(ServeNode::new(qid, n.handle));
        }
        let entries = self.list_dir(&path)?;
        let entry = entries
            .iter()
            .find(|(en, _, _)| en == name)
            .ok_or_else(|| NineError::new(errstr::ENOTEXIST))?;
        let qid = self.qid_for(&new_path, entry.1);
        self.nodes.lock().insert(n.handle, new_path);
        Ok(ServeNode::new(qid, n.handle))
    }

    fn open(&self, n: &ServeNode, _mode: OpenMode) -> Result<ServeNode> {
        Ok(*n)
    }

    fn create(&self, n: &ServeNode, name: &str, _perm: Perm, _mode: OpenMode) -> Result<ServeNode> {
        let path = self.node_path(n)?;
        if !n.qid.is_dir() {
            return Err(NineError::new(errstr::ENOTDIR));
        }
        let new_path = clean_path(&format!("{path}/{name}"));
        // Created files exist immediately on the remote (empty).
        self.store(&new_path, b"")?;
        self.dirty.lock().insert(new_path.clone(), Vec::new());
        let qid = self.qid_for(&new_path, false);
        self.nodes.lock().insert(n.handle, new_path);
        Ok(ServeNode::new(qid, n.handle))
    }

    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let path = self.node_path(n)?;
        if n.qid.is_dir() {
            let entries = self.list_dir(&path)?;
            let dirs: Vec<Dir> = entries
                .iter()
                .map(|(name, is_dir, size)| {
                    let child = clean_path(&format!("{path}/{name}"));
                    let qid = self.qid_for(&child, *is_dir);
                    if *is_dir {
                        Dir::directory(name, qid, 0o555, "ftp")
                    } else {
                        Dir::file(name, qid, 0o666, "ftp", *size)
                    }
                })
                .collect();
            return read_dir_slice(&dirs, offset, count);
        }
        let data = self.fetch_file(&path)?;
        let off = (offset as usize).min(data.len());
        let end = (off + count).min(data.len());
        Ok(data[off..end].to_vec())
    }

    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        let path = self.node_path(n)?;
        if n.qid.is_dir() {
            return Err(NineError::new(errstr::EISDIR));
        }
        let mut dirty = self.dirty.lock();
        let buf = dirty.entry(path.clone()).or_insert_with(|| {
            match self.cache.lock().get(&path) {
                Some(CacheEntry::File(d)) => d.clone(),
                _ => Vec::new(),
            }
        });
        let off = offset as usize;
        if buf.len() < off + data.len() {
            buf.resize(off + data.len(), 0);
        }
        buf[off..off + data.len()].copy_from_slice(data);
        Ok(data.len())
    }

    fn clunk(&self, n: &ServeNode) {
        // Flush dirty contents on clunk (close writes back).
        if let Ok(path) = self.node_path(n) {
            let data = self.dirty.lock().remove(&path);
            if let Some(data) = data {
                let _ = self.store(&path, &data);
            }
        }
        self.nodes.lock().remove(&n.handle);
    }

    fn remove(&self, n: &ServeNode) -> Result<()> {
        let path = self.node_path(n)?;
        self.round_trips.inc();
        {
            let mut client = self.client.lock();
            let mut chan = client.chan_raw();
            chan.write_line(&format!("DELE {path}"))?;
            expect_code(&mut chan, "250")?;
            client.buf = chan.take_buffer();
        }
        self.cache.lock().remove(&path);
        if let Some((parent, _)) = path.rsplit_once('/') {
            let parent = if parent.is_empty() { "/" } else { parent };
            self.cache.lock().remove(parent);
        }
        self.nodes.lock().remove(&n.handle);
        Ok(())
    }

    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        let path = self.node_path(n)?;
        if n.qid.is_dir() {
            let name = path.rsplit('/').next().unwrap_or("/");
            return Ok(Dir::directory(
                if name.is_empty() { "/" } else { name },
                n.qid,
                0o555,
                "ftp",
            ));
        }
        let data = self.fetch_file(&path)?;
        let name = path.rsplit('/').next().unwrap_or("?");
        Ok(Dir::file(name, n.qid, 0o666, "ftp", data.len() as u64))
    }
}
