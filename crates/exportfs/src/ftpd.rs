//! A small FTP server for the `ftpfs` demonstration (§6.2).
//!
//! The paper's `ftpfs` dialed real TOPS-20, VMS and Unix FTP servers;
//! none are reachable from the simulator, so this module provides the
//! closest synthetic equivalent: an FTP-shaped text protocol served over
//! a simulated TCP connection. The dialect is simplified to a single
//! connection (control and data multiplexed with byte-counted transfers)
//! but keeps the command/response shape: `USER`/`PASS` login, `TYPE I`
//! image mode, `LIST`, `RETR`, `STOR`, `DELE`, `QUIT`.

use plan9_core::dial::{serve_calls, Service};
use plan9_core::proc::Proc;
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_ninep::{NineError, Result};
use std::sync::Arc;

/// A line-buffered text channel over a byte-stream descriptor.
pub struct LineChan<'p> {
    p: &'p Proc,
    fd: i32,
    buf: Vec<u8>,
}

impl<'p> LineChan<'p> {
    /// Wraps an open descriptor.
    pub fn new(p: &'p Proc, fd: i32) -> LineChan<'p> {
        LineChan {
            p,
            fd,
            buf: Vec::new(),
        }
    }

    /// Seeds the line buffer with bytes already read from the stream.
    pub fn preload(&mut self, bytes: Vec<u8>) {
        let mut bytes = bytes;
        bytes.extend_from_slice(&self.buf);
        self.buf = bytes;
    }

    /// Takes back any unconsumed buffered bytes.
    pub fn take_buffer(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Reads one `\n`-terminated line (without the newline).
    pub fn read_line(&mut self) -> Result<String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..line.len() - 1].to_vec())
                    .map_err(|_| NineError::new("ftp: not text"));
            }
            let chunk = self.p.read(self.fd, 4096)?;
            if chunk.is_empty() {
                return Err(NineError::new("ftp: hungup"));
            }
            self.buf.extend_from_slice(&chunk);
        }
    }

    /// Reads exactly `n` raw bytes (a counted transfer).
    pub fn read_exact(&mut self, n: usize) -> Result<Vec<u8>> {
        while self.buf.len() < n {
            let chunk = self.p.read(self.fd, 8192)?;
            if chunk.is_empty() {
                return Err(NineError::new("ftp: hungup mid-transfer"));
            }
            self.buf.extend_from_slice(&chunk);
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// Writes a line.
    pub fn write_line(&mut self, s: &str) -> Result<()> {
        self.p.write(self.fd, format!("{s}\n").as_bytes()).map(|_| ())
    }

    /// Writes raw bytes.
    pub fn write_raw(&mut self, data: &[u8]) -> Result<()> {
        self.p.write(self.fd, data).map(|_| ())
    }
}

/// The FTP server: serves a [`MemFs`] tree over FTP.
pub struct FtpServer {
    /// The tree served to clients.
    pub tree: Arc<MemFs>,
    /// Password expected for any user ("anonymous" always works).
    pub password: String,
}

impl FtpServer {
    /// Creates a server over a fresh tree.
    pub fn new(password: &str) -> FtpServer {
        FtpServer {
            tree: MemFs::new("ftp", "ftp"),
            password: password.to_string(),
        }
    }

    /// Announces `tcp!*!ftp` on the machine's process and serves
    /// `max_sessions` logins.
    pub fn serve(
        self: Arc<Self>,
        p: Proc,
        max_sessions: usize,
    ) -> Result<Service> {
        serve_calls(p, "tcp!*!ftp", max_sessions, "ftpd", move |p, fd, _framed| {
            let _ = self.session(&p, fd);
        })
    }

    fn session(&self, p: &Proc, fd: i32) -> Result<()> {
        let mut chan = LineChan::new(p, fd);
        chan.write_line("220 plan9 ftpd ready")?;
        let mut logged_in = false;
        let mut cwd = String::from("/");
        loop {
            let line = chan.read_line()?;
            let (cmd, arg) = match line.split_once(' ') {
                Some((c, a)) => (c.to_uppercase(), a.trim().to_string()),
                None => (line.to_uppercase(), String::new()),
            };
            match cmd.as_str() {
                "USER" => chan.write_line("331 password required")?,
                "PASS" => {
                    if arg == self.password || arg.is_empty() {
                        logged_in = true;
                        chan.write_line("230 logged in")?;
                    } else {
                        chan.write_line("530 wrong password")?;
                    }
                }
                "TYPE" => chan.write_line("200 type set")?,
                "QUIT" => {
                    chan.write_line("221 bye")?;
                    return Ok(());
                }
                _ if !logged_in => chan.write_line("530 log in first")?,
                "CWD" => {
                    cwd = absolutize(&cwd, &arg);
                    chan.write_line("250 ok")?;
                }
                "PWD" => chan.write_line(&format!("257 \"{cwd}\""))?,
                "LIST" => {
                    let path = absolutize(&cwd, &arg);
                    match self.list(&path) {
                        Ok(text) => {
                            chan.write_line(&format!("150 {}", text.len()))?;
                            chan.write_raw(text.as_bytes())?;
                            chan.write_line("226 done")?;
                        }
                        Err(e) => chan.write_line(&format!("550 {e}"))?,
                    }
                }
                "RETR" => {
                    let path = absolutize(&cwd, &arg);
                    match self.retr(&path) {
                        Ok(data) => {
                            chan.write_line(&format!("150 {}", data.len()))?;
                            chan.write_raw(&data)?;
                            chan.write_line("226 done")?;
                        }
                        Err(e) => chan.write_line(&format!("550 {e}"))?,
                    }
                }
                "STOR" => {
                    // `STOR <len> <path>` — counted, single-connection.
                    let (len, path) = match arg.split_once(' ') {
                        Some((l, p)) => (l.parse::<usize>().ok(), absolutize(&cwd, p)),
                        None => (None, String::new()),
                    };
                    let Some(len) = len else {
                        chan.write_line("501 bad STOR")?;
                        continue;
                    };
                    let data = chan.read_exact(len)?;
                    match self.tree.put_file(&path, &data) {
                        Ok(()) => chan.write_line("226 stored")?,
                        Err(e) => chan.write_line(&format!("550 {e}"))?,
                    }
                }
                "DELE" => {
                    let path = absolutize(&cwd, &arg);
                    match self.dele(&path) {
                        Ok(()) => chan.write_line("250 deleted")?,
                        Err(e) => chan.write_line(&format!("550 {e}"))?,
                    }
                }
                _ => chan.write_line("502 not implemented")?,
            }
        }
    }

    fn list(&self, path: &str) -> Result<String> {
        let fs: &dyn ProcFs = &*self.tree;
        let root = fs.attach("ftp", "")?;
        let node = plan9_ninep::procfs::walk_path(fs, &root, path)?;
        if !node.qid.is_dir() {
            return Err(NineError::new("not a directory"));
        }
        let node = fs.open(&node, OpenMode::READ)?;
        let mut text = String::new();
        let mut offset = 0u64;
        loop {
            let data = fs.read(&node, offset, 16 * plan9_ninep::dir::DIR_LEN)?;
            if data.is_empty() {
                break;
            }
            offset += data.len() as u64;
            for chunk in data.chunks(plan9_ninep::dir::DIR_LEN) {
                let d = plan9_ninep::Dir::decode(chunk)?;
                text.push_str(&format!(
                    "{} {} {}\n",
                    if d.is_dir() { "d" } else { "-" },
                    d.length,
                    d.name
                ));
            }
        }
        fs.clunk(&node);
        Ok(text)
    }

    fn retr(&self, path: &str) -> Result<Vec<u8>> {
        let fs: &dyn ProcFs = &*self.tree;
        let root = fs.attach("ftp", "")?;
        let node = plan9_ninep::procfs::walk_path(fs, &root, path)?;
        let node = fs.open(&node, OpenMode::READ)?;
        let mut out = Vec::new();
        loop {
            let data = fs.read(&node, out.len() as u64, 8192)?;
            if data.is_empty() {
                break;
            }
            out.extend_from_slice(&data);
        }
        fs.clunk(&node);
        Ok(out)
    }

    fn dele(&self, path: &str) -> Result<()> {
        let fs: &dyn ProcFs = &*self.tree;
        let root = fs.attach("ftp", "")?;
        let node = plan9_ninep::procfs::walk_path(fs, &root, path)?;
        fs.remove(&node)
    }
}

fn absolutize(cwd: &str, arg: &str) -> String {
    if arg.is_empty() {
        cwd.to_string()
    } else if arg.starts_with('/') {
        arg.to_string()
    } else {
        format!("{}/{}", cwd.trim_end_matches('/'), arg)
    }
}
