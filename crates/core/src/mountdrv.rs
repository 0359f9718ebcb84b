//! The mount driver (§2.1).
//!
//! "A kernel resident file server called the mount driver converts the
//! procedural version of 9P into RPCs. ... After a mount, operations on
//! the file tree below the mount point are sent as messages to the file
//! server. The mount driver manages buffers, packs and unpacks
//! parameters from messages, and demultiplexes among processes using the
//! file server."
//!
//! [`MountDriver`] implements the kernel-side [`ProcFs`] interface by
//! issuing 9P RPCs through a [`NineClient`]; the client's tag
//! multiplexing is exactly the demultiplexing the paper describes.
//! [`ChanIo`] adapts any open channel (usually a network connection's
//! `data` file) into the transport the client needs; for byte-stream
//! transports the marshaling layer is inserted.

use crate::namespace::Source;
use plan9_ninep::client::NineClient;
use plan9_ninep::marshal::{FramedSink, FramedSource};
use plan9_ninep::procfs::{OpenMode, Perm, ProcFs, ServeNode};
use plan9_ninep::qid::Qid;
use plan9_ninep::server::NineService;
use plan9_ninep::transport::{ByteSink, ByteSource, MsgSink, MsgSource};
use plan9_ninep::{Dir, Result};
use std::sync::Arc;

/// Message- and byte-oriented I/O over an open channel (a `data` file).
///
/// Reads and writes go through the channel's own file server, so this
/// works for pipes, IL, URP and TCP conversations alike.
pub struct ChanIo {
    src: Source,
}

impl ChanIo {
    /// Wraps an open channel.
    pub fn new(src: Source) -> ChanIo {
        ChanIo { src }
    }

    /// [`ProcFs::serve_nine`] of the channel.
    pub fn serve_nine(&self, fs: &Arc<dyn ProcFs>) -> Option<Arc<NineService>> {
        self.src.fs.serve_nine(&self.src.node, fs)
    }
}

impl Clone for ChanIo {
    fn clone(&self) -> Self {
        ChanIo {
            src: self.src.clone(),
        }
    }
}

impl MsgSink for ChanIo {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        // One write, one message: delimited transports preserve it.
        // The span is the protocol device's data-write handling, nested
        // inside the client's txwait.
        let cur = plan9_netlog::trace::current();
        let t0 = cur.as_ref().map(|_| plan9_support::time::now());
        let r = self.src.fs.write(&self.src.node, 0, msg).map(|_| ());
        if let (Some(h), Some(t0)) = (cur, t0) {
            h.span(
                plan9_netlog::Facility::NineP,
                "devwrite",
                t0,
                plan9_support::time::now(),
            );
        }
        r
    }
}

impl MsgSource for ChanIo {
    fn recvmsg(&mut self) -> Result<Option<Vec<u8>>> {
        match self.src.fs.read(&self.src.node, 0, 1 << 16) {
            Ok(data) if data.is_empty() => Ok(None),
            Ok(data) => Ok(Some(data)),
            Err(e) if e.0.contains("hungup") || e.0.contains("closed") => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl ByteSink for ChanIo {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.src.fs.write(&self.src.node, 0, bytes).map(|_| ())
    }
}

impl ByteSource for ChanIo {
    fn recv_some(&mut self) -> Result<Option<Vec<u8>>> {
        match self.src.fs.read(&self.src.node, 0, 1 << 16) {
            Ok(data) if data.is_empty() => Ok(None),
            Ok(data) => Ok(Some(data)),
            Err(e) if e.0.contains("hungup") || e.0.contains("closed") => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The mount driver: procedural 9P in, RPC 9P out.
pub struct MountDriver {
    client: NineClient,
    name: String,
}

impl MountDriver {
    /// Builds a mount driver over a delimiter-preserving transport.
    pub fn over_messages<T>(transport: T) -> Result<Arc<MountDriver>>
    where
        T: MsgSink + MsgSource + Clone + Send + 'static,
    {
        let sink = transport.clone();
        Ok(Self::from_client(NineClient::new(
            Box::new(sink),
            Box::new(transport),
        )))
    }

    /// Builds a mount driver over a byte stream, inserting the
    /// length-prefix marshaling the paper requires for TCP.
    pub fn over_bytes<T>(transport: T) -> Result<Arc<MountDriver>>
    where
        T: ByteSink + ByteSource + Clone + Send + 'static,
    {
        let sink = FramedSink::new(transport.clone());
        let source = FramedSource::new(transport);
        Ok(Self::from_client(NineClient::new(
            Box::new(sink),
            Box::new(source),
        )))
    }

    /// Wraps an existing client.
    pub fn from_client(client: NineClient) -> Arc<MountDriver> {
        Arc::new(MountDriver {
            client,
            name: "mnt".to_string(),
        })
    }

    /// Starts the session (optional but polite; resets the fid space).
    pub fn session(&self) -> Result<(String, String)> {
        self.client.session()
    }

    fn node_from(fid: plan9_ninep::Fid, qid: Qid) -> ServeNode {
        ServeNode::new(qid, fid as u64)
    }

    fn fid_of(n: &ServeNode) -> plan9_ninep::Fid {
        n.handle as plan9_ninep::Fid
    }
}

impl ProcFs for MountDriver {
    fn fsname(&self) -> String {
        self.name.clone()
    }

    fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
        let (fid, qid) = self.client.attach(uname, aname)?;
        Ok(Self::node_from(fid, qid))
    }

    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        let fid = self.client.clone_fid(Self::fid_of(n))?;
        Ok(Self::node_from(fid, n.qid))
    }

    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        let qid = self.client.walk(Self::fid_of(n), name)?;
        Ok(ServeNode::new(qid, n.handle))
    }

    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        let qid = self.client.open(Self::fid_of(n), mode)?;
        Ok(ServeNode::new(qid, n.handle))
    }

    fn create(&self, n: &ServeNode, name: &str, perm: Perm, mode: OpenMode) -> Result<ServeNode> {
        let qid = self.client.create(Self::fid_of(n), name, perm, mode)?;
        Ok(ServeNode::new(qid, n.handle))
    }

    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        self.client.read(Self::fid_of(n), offset, count)
    }

    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        self.client.write(Self::fid_of(n), offset, data)
    }

    fn clunk(&self, n: &ServeNode) {
        let _ = self.client.clunk(Self::fid_of(n));
    }

    fn remove(&self, n: &ServeNode) -> Result<()> {
        self.client.remove(Self::fid_of(n))
    }

    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        self.client.stat(Self::fid_of(n))
    }

    fn wstat(&self, n: &ServeNode, d: &Dir) -> Result<()> {
        self.client.wstat(Self::fid_of(n), d)
    }
}

impl std::fmt::Debug for MountDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MountDriver({})", if self.client.hungup() { "hungup" } else { "up" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_ninep::procfs::{walk_path, MemFs};
    use plan9_ninep::transport::MsgPipeEnd;

    /// A cloneable wrapper over split pipe halves. The halves get
    /// independent locks: whichever caller is reading for the client
    /// blocks in `recvmsg` while the others use `sendmsg`.
    #[derive(Clone)]
    struct SharedPipe {
        tx: std::sync::Arc<plan9_support::sync::Mutex<plan9_ninep::transport::MsgPipeSink>>,
        rx: std::sync::Arc<plan9_support::sync::Mutex<plan9_ninep::transport::MsgPipeSource>>,
    }

    impl MsgSink for SharedPipe {
        fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
            self.tx.lock().sendmsg(msg)
        }
    }

    impl MsgSource for SharedPipe {
        fn recvmsg(&mut self) -> Result<Option<Vec<u8>>> {
            self.rx.lock().recvmsg()
        }
    }

    fn remote_fs() -> Arc<MountDriver> {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/srv/readme", b"served remotely").unwrap();
        let (client_end, server_end) = MsgPipeEnd::pair();
        let (ssink, ssource) = server_end.split();
        std::thread::spawn(move || {
            let _ = plan9_ninep::server::serve(fs, Box::new(ssource), Box::new(ssink));
        });
        let (ctx, crx) = client_end.split();
        let shared = SharedPipe {
            tx: std::sync::Arc::new(plan9_support::sync::Mutex::new(ctx)),
            rx: std::sync::Arc::new(plan9_support::sync::Mutex::new(crx)),
        };
        MountDriver::over_messages(shared).unwrap()
    }

    #[test]
    fn procedural_calls_become_rpcs() {
        let drv = remote_fs();
        let root = drv.attach("philw", "").unwrap();
        assert!(root.qid.is_dir());
        let f = walk_path(&*drv as &dyn ProcFs, &root, "srv/readme").unwrap();
        let f = drv.open(&f, OpenMode::READ).unwrap();
        assert_eq!(drv.read(&f, 0, 100).unwrap(), b"served remotely");
        drv.clunk(&f);
    }

    #[test]
    fn errors_cross_the_wire_as_strings() {
        let drv = remote_fs();
        let root = drv.attach("philw", "").unwrap();
        let err = drv.walk(&root, "nonesuch").unwrap_err();
        assert_eq!(err.0, plan9_ninep::errstr::ENOTEXIST);
    }

    #[test]
    fn create_and_write_remote() {
        let drv = remote_fs();
        let root = drv.attach("philw", "").unwrap();
        let f = drv.create(&root, "newfile", 0o644, OpenMode::WRITE).unwrap();
        assert_eq!(drv.write(&f, 0, b"12345").unwrap(), 5);
        let d = drv.stat(&f).unwrap();
        assert_eq!(d.length, 5);
        drv.remove(&f).unwrap();
    }
}
