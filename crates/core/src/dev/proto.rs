//! The generic protocol device (§2.3).
//!
//! "All protocol devices look identical so user programs contain no
//! network-specific code." The device serves:
//!
//! ```text
//! /net/tcp/clone
//! /net/tcp/0/{ctl data listen local remote status}
//! /net/tcp/1/...
//! ```
//!
//! Opening `clone` reserves an unused connection and yields a channel to
//! its `ctl` file; reading the `ctl` file returns the connection number;
//! writing `connect <addr>` establishes the connection; the `data` file
//! carries the conversation; opening `listen` blocks for an incoming
//! call and yields the `ctl` file of a *new* connection. All control is
//! ASCII, so it works transparently across machines and byte orders.
//!
//! The protocol itself plugs in through [`ProtoOps`]; TCP, UDP, IL and
//! Datakit/URP implementations live in [`crate::machine`].

use plan9_support::sync::Mutex;
use plan9_ninep::procfs::{
    conv_of, conv_parent, conv_path, readstr, ConvFile, ConvTable, Dev, OpenMode, ProcFs,
    ServeNode, ROOT,
};
use plan9_ninep::qid::Qid;
use plan9_ninep::server::NineService;
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::sync::Arc;

/// One established conversation, however the protocol implements it.
///
/// This is the kernel's conversation interface: where the paper has a
/// stream head under `data` (§2.4), the device calls the protocol and
/// the protocol's own receive queue is the only one. A stream blocks
/// its reader and parks its writer, and IL's and TCP's conversations
/// are read from pool shards that may do neither (DESIGN.md §10).
pub trait ConnOps: Send + Sync {
    /// Sends one message (delimited protocols) or chunk (TCP).
    fn send(&self, msg: &[u8]) -> Result<()>;
    /// Blocks for the next message/chunk; `None` is end-of-file.
    fn recv(&self) -> Result<Option<Vec<u8>>>;
    /// The `local` file contents.
    fn local(&self) -> String;
    /// The `remote` file contents.
    fn remote(&self) -> String;
    /// The `status` file contents.
    fn status(&self) -> String;
    /// Hang up.
    fn close(&self);
    /// [`ProcFs::serve_nine`] of the conversation's `data` file: the
    /// protocol serves `fs` to the peer as 9P from its own input path.
    /// One that can run an operation where the request arrives (IL and
    /// TCP on the conversation's pool shard, Datakit on its circuit's
    /// input) takes it up; UDP declines.
    fn serve_nine(&self, _fs: &Arc<dyn ProcFs>) -> Option<Arc<NineService>> {
        None
    }
}

/// An announcement: a service listening for calls.
pub trait AnnounceOps: Send + Sync {
    /// Blocks until a call arrives and returns the new conversation.
    fn listen(&self) -> Result<Arc<dyn ConnOps>>;
    /// The announced local address.
    fn local(&self) -> String;
    /// Ends the announcement: the address is free to announce again
    /// once the announcement is dropped, a `listen` waiting or to come
    /// fails, and a call still queued is hung up.
    fn close(&self);
}

/// A protocol: how to place and receive calls.
pub trait ProtoOps: Send + Sync {
    /// The directory name under `/net` (`tcp`, `il`, `udp`, `dk`).
    fn proto(&self) -> String;
    /// Dials `addr` (protocol-specific ASCII, e.g. `135.104.9.31!564`).
    fn connect(&self, addr: &str) -> Result<Arc<dyn ConnOps>>;
    /// Announces a service (`*!564`, `nj/astro/helix!9fs`).
    fn announce(&self, addr: &str) -> Result<Arc<dyn AnnounceOps>>;
    /// The protocol-wide `stats` file contents: the protocol's rows of
    /// the machine's metric registry, `name value` lines rendered on
    /// every read.
    fn stats_text(&self) -> String {
        String::new()
    }
}

enum ConnState {
    Idle,
    Connected(Arc<dyn ConnOps>),
    Announced(Arc<dyn AnnounceOps>),
}

struct Conn {
    state: Mutex<ConnState>,
    /// Remainder of a message only partially consumed by a short read.
    pending: Mutex<Vec<u8>>,
}

impl Conn {
    fn new(state: ConnState) -> Conn {
        Conn {
            state: Mutex::named(state, "core.proto.connstate"),
            pending: Mutex::named(Vec::new(), "core.proto.pending"),
        }
    }

    /// The established conversation, for `data`.
    fn connected(&self) -> Result<Arc<dyn ConnOps>> {
        match &*self.state.lock() {
            ConnState::Connected(c) => Ok(Arc::clone(c)),
            _ => Err(NineError::new("not connected")),
        }
    }

    /// Back to `Idle`, hanging up an established conversation or
    /// ending an announcement. The close runs after the state lock is
    /// dropped: a close transmits.
    fn hangup(&self) {
        let old = std::mem::replace(&mut *self.state.lock(), ConnState::Idle);
        match old {
            ConnState::Connected(c) => c.close(),
            ConnState::Announced(a) => a.close(),
            ConnState::Idle => {}
        }
    }
}

// Top-level files, then the file types of a conversation's files.
const Q_CLONE: u32 = 1;
const Q_STATS: u32 = 2;
const T_CTL: u32 = 2;
const T_DATA: u32 = 3;
const T_LISTEN: u32 = 4;
const T_LOCAL: u32 = 5;
const T_REMOTE: u32 = 6;
const T_STATUS: u32 = 7;

const TOP_FILES: [ConvFile; 2] = [("clone", Q_CLONE, 0o666), ("stats", Q_STATS, 0o444)];
const CONV_FILES: [ConvFile; 6] = [
    ("ctl", T_CTL, 0o660),
    ("data", T_DATA, 0o660),
    ("listen", T_LISTEN, 0o660),
    ("local", T_LOCAL, 0o444),
    ("remote", T_REMOTE, 0o444),
    ("status", T_STATUS, 0o444),
];

/// A conversation's files are of device type `I`, as the IP device's.
fn typed(mut d: Dir) -> Dir {
    if !d.is_dir() && conv_of(d.qid).is_some() {
        d.dev_type = b'I' as u16;
    }
    d
}

/// The device: a [`Dev`] exposing one protocol's conversations.
pub struct ProtoDev {
    ops: Box<dyn ProtoOps>,
    convs: ConvTable<Conn>,
}

impl ProtoDev {
    /// Wraps a protocol in the standard device tree.
    pub fn new(ops: Box<dyn ProtoOps>) -> Arc<ProtoDev> {
        Arc::new(ProtoDev { ops, convs: ConvTable::new(0, &TOP_FILES, &CONV_FILES) })
    }

    /// The number of live connection directories (diagnostics).
    pub fn conn_count(&self) -> usize {
        self.convs.conn_count()
    }

    /// A new conversation in `state` held by `n`'s channel, which now
    /// points at its ctl file.
    fn clone_conv(&self, n: &ServeNode, state: ConnState) -> ServeNode {
        let id = self.convs.alloc(n.handle, Conn::new(state));
        ServeNode::new(Qid::file(conv_path(id, T_CTL), 0), n.handle)
    }

    fn ctl_command(&self, conn: &Conn, cmd: &str) -> Result<()> {
        let fields: Vec<&str> = cmd.split_whitespace().collect();
        match fields.as_slice() {
            ["connect", addr, ..] => {
                let c = self.ops.connect(addr)?;
                *conn.state.lock() = ConnState::Connected(c);
                Ok(())
            }
            ["announce", addr] => {
                let a = self.ops.announce(addr)?;
                *conn.state.lock() = ConnState::Announced(a);
                Ok(())
            }
            // "Networks such as IP ignore the third argument" (§5.2):
            // reject is a close with a reason we note but cannot always
            // deliver.
            ["hangup"] | ["close"] | ["reject", ..] => {
                conn.hangup();
                Ok(())
            }
            _ => Err(NineError::new(format!("unknown control request: {cmd}"))),
        }
    }
}

impl Dev for ProtoDev {
    fn name(&self) -> String {
        self.ops.proto()
    }

    fn root(&self) -> Dir {
        Dir::directory(&self.ops.proto(), ROOT, 0o555, "network")
    }

    fn parent(&self, q: Qid) -> Qid {
        conv_parent(q)
    }

    fn rows(&self, dir: Qid) -> Vec<Dir> {
        self.convs.rows(dir).into_iter().map(typed).collect()
    }

    fn lookup(&self, dir: Qid, name: &str) -> Option<Dir> {
        self.convs.lookup(dir, name).map(typed)
    }

    fn entry(&self, q: Qid) -> Option<Dir> {
        self.convs.entry(q).map(typed)
    }

    fn open_node(&self, n: &ServeNode, _mode: OpenMode) -> Result<ServeNode> {
        let Some((id, typ)) = conv_of(n.qid) else {
            // Opening clone reserves an unused connection.
            return Ok(match n.qid.path_bits() {
                Q_CLONE => self.clone_conv(n, ConnState::Idle),
                _ => *n,
            });
        };
        let conn = self.convs.get(id)?;
        match typ {
            T_LISTEN => {
                // Block for an incoming call, with the conversation
                // unlocked: its status stays readable and it can be
                // hung up while the server waits. The channel ends up
                // at the new connection's ctl file.
                let announced = match &*conn.state.lock() {
                    ConnState::Announced(a) => Arc::clone(a),
                    _ => return Err(NineError::new("not announced")),
                };
                let accepted = announced.listen()?;
                return Ok(self.clone_conv(n, ConnState::Connected(accepted)));
            }
            // "When the data file is opened the connection is
            // established."
            T_DATA => {
                conn.connected()?;
            }
            _ => {}
        }
        self.convs.hold(n.handle, id)?;
        Ok(*n)
    }

    fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let Some((id, typ)) = conv_of(n.qid) else {
            return match n.qid.path_bits() {
                Q_STATS => Ok(readstr(&self.ops.stats_text(), offset, count)),
                _ => Err(NineError::new(errstr::EBADUSE)),
            };
        };
        let conn = self.convs.get(id)?;
        let text = match typ {
            // "Reading the control file returns the ASCII connection
            // number."
            T_CTL => id.to_string(),
            T_DATA => {
                // Serve any remainder of a previous short read first so
                // no bytes are lost (stream read semantics, §2.4.1).
                {
                    let mut pending = conn.pending.lock();
                    if !pending.is_empty() {
                        let n = pending.len().min(count);
                        return Ok(pending.drain(..n).collect());
                    }
                }
                return match conn.connected()?.recv()? {
                    Some(msg) if msg.len() > count => {
                        conn.pending.lock().extend_from_slice(&msg[count..]);
                        Ok(msg[..count].to_vec())
                    }
                    Some(msg) => Ok(msg),
                    None => Ok(Vec::new()),
                };
            }
            T_LOCAL => match &*conn.state.lock() {
                ConnState::Connected(c) => format!("{}\n", c.local()),
                ConnState::Announced(a) => format!("{}\n", a.local()),
                ConnState::Idle => "::\n".to_string(),
            },
            T_REMOTE => match &*conn.state.lock() {
                ConnState::Connected(c) => format!("{}\n", c.remote()),
                _ => "::\n".to_string(),
            },
            T_STATUS => {
                let proto = self.ops.proto();
                match &*conn.state.lock() {
                    ConnState::Idle => format!("{proto}/{id} 0 Closed\n"),
                    ConnState::Connected(c) => format!("{proto}/{id} 1 {} connect\n", c.status()),
                    ConnState::Announced(a) => format!("{proto}/{id} 1 Announced {}\n", a.local()),
                }
            }
            _ => return Err(NineError::new(errstr::EBADUSE)),
        };
        Ok(readstr(&text, offset, count))
    }

    fn write_file(&self, n: &ServeNode, _offset: u64, data: &[u8]) -> Result<usize> {
        let (id, typ) = conv_of(n.qid).ok_or_else(|| NineError::new(errstr::EBADUSE))?;
        let conn = self.convs.get(id)?;
        match typ {
            T_CTL => {
                let cmd = std::str::from_utf8(data)
                    .map_err(|_| NineError::new("control request is not text"))?;
                self.ctl_command(&conn, cmd.trim())?;
            }
            T_DATA => conn.connected()?.send(data)?,
            _ => return Err(NineError::new(errstr::EPERM)),
        }
        Ok(data.len())
    }

    fn clunk_node(&self, n: &ServeNode) {
        // "A connection remains established while any of the files in
        // the connection directory are referenced."
        if let Some(conn) = self.convs.clunk(n.handle) {
            conn.hangup();
        }
    }

    fn serve_nine_file(&self, n: &ServeNode, fs: &Arc<dyn ProcFs>) -> Option<Arc<NineService>> {
        let (id, T_DATA) = conv_of(n.qid)? else { return None };
        let conn = self.convs.get(id).ok()?;
        // The rest of a message a short read left is the reader's.
        let whole = conn.pending.lock().is_empty();
        whole.then(|| conn.connected().ok()?.serve_nine(fs)).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_ninep::procfs::ProcFs;
    use plan9_support::chan::{unbounded, Receiver, Sender};
    use std::collections::HashMap;

    /// A toy in-memory protocol: "addresses" name rendezvous queues.
    struct Rendezvous {
        boards: Mutex<HashMap<String, Sender<LoopConn>>>,
    }

    struct LoopConn {
        tx: Sender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
        addr: String,
    }

    impl ConnOps for LoopConn {
        fn send(&self, msg: &[u8]) -> Result<()> {
            self.tx
                .send(msg.to_vec())
                .map_err(|_| NineError::new("hungup"))
        }
        fn recv(&self) -> Result<Option<Vec<u8>>> {
            Ok(self.rx.recv().ok())
        }
        fn local(&self) -> String {
            "local".to_string()
        }
        fn remote(&self) -> String {
            self.addr.clone()
        }
        fn status(&self) -> String {
            "Established".to_string()
        }
        fn close(&self) {}
    }

    struct ToyProto {
        rdv: Arc<Rendezvous>,
    }

    struct ToyAnnounce {
        rx: Receiver<LoopConn>,
        addr: String,
    }

    impl AnnounceOps for ToyAnnounce {
        fn listen(&self) -> Result<Arc<dyn ConnOps>> {
            self.rx
                .recv()
                .map(|c| Arc::new(c) as Arc<dyn ConnOps>)
                .map_err(|_| NineError::new("hungup"))
        }
        fn local(&self) -> String {
            self.addr.clone()
        }
        fn close(&self) {}
    }

    impl ProtoOps for ToyProto {
        fn proto(&self) -> String {
            "toy".to_string()
        }
        fn connect(&self, addr: &str) -> Result<Arc<dyn ConnOps>> {
            let boards = self.rdv.boards.lock();
            let tx = boards
                .get(addr)
                .ok_or_else(|| NineError::new("connection refused"))?;
            let (atx, arx) = unbounded();
            let (btx, brx) = unbounded();
            tx.send(LoopConn {
                tx: btx,
                rx: arx,
                addr: "caller".to_string(),
            })
            .map_err(|_| NineError::new("hungup"))?;
            Ok(Arc::new(LoopConn {
                tx: atx,
                rx: brx,
                addr: addr.to_string(),
            }))
        }
        fn announce(&self, addr: &str) -> Result<Arc<dyn AnnounceOps>> {
            let (tx, rx) = unbounded();
            self.rdv.boards.lock().insert(addr.to_string(), tx);
            Ok(Arc::new(ToyAnnounce {
                rx,
                addr: addr.to_string(),
            }))
        }
        fn stats_text(&self) -> String {
            format!("toy.calls {}\n", self.rdv.boards.lock().len())
        }
    }

    fn toy_dev() -> (Arc<ProtoDev>, Arc<ProtoDev>) {
        let rdv = Arc::new(Rendezvous {
            boards: Mutex::named(HashMap::new(), "core.proto.boards"),
        });
        let a = ProtoDev::new(Box::new(ToyProto {
            rdv: Arc::clone(&rdv),
        }));
        let b = ProtoDev::new(Box::new(ToyProto { rdv }));
        (a, b)
    }

    #[test]
    fn clone_reserves_connection_and_ctl_reports_number() {
        let (dev, _) = toy_dev();
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        assert_eq!(dev.read(&ctl, 0, 16).unwrap(), b"0");
        // A second clone gets connection 1.
        let root2 = dev.attach("u", "").unwrap();
        let clone2 = dev.walk(&root2, "clone").unwrap();
        let ctl2 = dev.open(&clone2, OpenMode::RDWR).unwrap();
        assert_eq!(dev.read(&ctl2, 0, 16).unwrap(), b"1");
    }

    #[test]
    fn paper_connection_steps() {
        let (dev_a, dev_b) = toy_dev();
        // Server side: announce + listen in a thread.
        let server = {
            let dev_b = Arc::clone(&dev_b);
            std::thread::spawn(move || {
                let root = dev_b.attach("srv", "").unwrap();
                let clone = dev_b.walk(&root, "clone").unwrap();
                let actl = dev_b.open(&clone, OpenMode::RDWR).unwrap();
                dev_b.write(&actl, 0, b"announce here").unwrap();
                let n = dev_b.read(&actl, 0, 16).unwrap();
                let adir = String::from_utf8(n).unwrap();
                // open listen — blocks until a call.
                let root2 = dev_b.attach("srv", "").unwrap();
                let mut lnode = root2;
                for elem in [adir.as_str(), "listen"] {
                    lnode = dev_b.walk(&lnode, elem).unwrap();
                }
                let newctl = dev_b.open(&lnode, OpenMode::RDWR).unwrap();
                let newid = String::from_utf8(dev_b.read(&newctl, 0, 16).unwrap()).unwrap();
                // Open the new connection's data file and echo.
                let root3 = dev_b.attach("srv", "").unwrap();
                let mut dnode = root3;
                for elem in [newid.as_str(), "data"] {
                    dnode = dev_b.walk(&dnode, elem).unwrap();
                }
                let data = dev_b.open(&dnode, OpenMode::RDWR).unwrap();
                let msg = dev_b.read(&data, 0, 100).unwrap();
                dev_b.write(&data, 0, &msg).unwrap();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Client side: the four steps of §2.3.
        let root = dev_a.attach("cli", "").unwrap();
        // 1) open the clone file.
        let clone = dev_a.walk(&root, "clone").unwrap();
        let ctl = dev_a.open(&clone, OpenMode::RDWR).unwrap();
        // 2) read the connection number.
        let id = String::from_utf8(dev_a.read(&ctl, 0, 16).unwrap()).unwrap();
        // 3) write the address to ctl.
        dev_a.write(&ctl, 0, b"connect here").unwrap();
        // 4) open the data file.
        let root2 = dev_a.attach("cli", "").unwrap();
        let mut dnode = root2;
        for elem in [id.as_str(), "data"] {
            dnode = dev_a.walk(&dnode, elem).unwrap();
        }
        let data = dev_a.open(&dnode, OpenMode::RDWR).unwrap();
        dev_a.write(&data, 0, b"echo me").unwrap();
        assert_eq!(dev_a.read(&data, 0, 100).unwrap(), b"echo me");
        server.join().unwrap();
    }

    #[test]
    fn status_files_read_like_the_paper() {
        let (dev_a, dev_b) = toy_dev();
        let rootb = dev_b.attach("srv", "").unwrap();
        let cloneb = dev_b.walk(&rootb, "clone").unwrap();
        let actl = dev_b.open(&cloneb, OpenMode::RDWR).unwrap();
        dev_b.write(&actl, 0, b"announce spot").unwrap();
        let root = dev_a.attach("cli", "").unwrap();
        let clone = dev_a.walk(&root, "clone").unwrap();
        let ctl = dev_a.open(&clone, OpenMode::RDWR).unwrap();
        dev_a.write(&ctl, 0, b"connect spot").unwrap();
        // cat local remote status
        let conn_dir = dev_a.walk(&dev_a.attach("cli", "").unwrap(), "0").unwrap();
        let local = dev_a.walk(&conn_dir, "local").unwrap();
        let local = dev_a.open(&local, OpenMode::READ).unwrap();
        assert_eq!(dev_a.read(&local, 0, 100).unwrap(), b"local\n");
        let remote = dev_a.walk(&conn_dir, "remote").unwrap();
        let remote = dev_a.open(&remote, OpenMode::READ).unwrap();
        assert_eq!(dev_a.read(&remote, 0, 100).unwrap(), b"spot\n");
        let status = dev_a.walk(&conn_dir, "status").unwrap();
        let status = dev_a.open(&status, OpenMode::READ).unwrap();
        let text = String::from_utf8(dev_a.read(&status, 0, 100).unwrap()).unwrap();
        assert!(text.starts_with("toy/0 1 Established connect"), "{text}");
    }

    #[test]
    fn status_reads_while_a_listener_waits() {
        let (dev_a, dev_b) = toy_dev();
        let root = dev_b.attach("srv", "").unwrap();
        let actl = dev_b.open(&dev_b.walk(&root, "clone").unwrap(), OpenMode::RDWR).unwrap();
        dev_b.write(&actl, 0, b"announce here").unwrap();
        let file = |name: &str| {
            let dir = dev_b.walk(&dev_b.attach("srv", "").unwrap(), "0").unwrap();
            dev_b.walk(&dir, name).unwrap()
        };
        let listen = file("listen");
        let listener = {
            let dev_b = Arc::clone(&dev_b);
            std::thread::spawn(move || dev_b.open(&listen, OpenMode::RDWR).unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        // The server is blocked in listen; the conversation's other
        // files must not wait for its call.
        let status = dev_b.open(&file("status"), OpenMode::READ).unwrap();
        let (tx, rx) = unbounded();
        {
            let dev_b = Arc::clone(&dev_b);
            std::thread::spawn(move || tx.send(dev_b.read(&status, 0, 100).unwrap()))
        };
        let text = rx.recv_timeout(std::time::Duration::from_secs(2));
        // Place the call either way, so a failure leaves no thread stuck.
        let ctl = dev_a.walk(&dev_a.attach("cli", "").unwrap(), "clone").unwrap();
        let ctl = dev_a.open(&ctl, OpenMode::RDWR).unwrap();
        dev_a.write(&ctl, 0, b"connect here").unwrap();
        let newctl = listener.join().unwrap();
        assert_eq!(dev_b.read(&newctl, 0, 16).unwrap(), b"1");
        let text = text.expect("status blocked behind the listener");
        assert_eq!(text, b"toy/0 1 Announced here\n");
    }

    #[test]
    fn data_before_connect_refused() {
        let (dev, _) = toy_dev();
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let _ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        let data = dev
            .walk(&dev.attach("u", "").unwrap(), "0")
            .and_then(|n| dev.walk(&n, "data"))
            .unwrap();
        let err = dev.open(&data, OpenMode::RDWR).unwrap_err();
        assert_eq!(err.0, "not connected");
    }

    #[test]
    fn bad_ctl_command_is_error() {
        let (dev, _) = toy_dev();
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        let err = dev.write(&ctl, 0, b"frobnicate 7").unwrap_err();
        assert!(err.0.contains("unknown control request"), "{err}");
    }

    #[test]
    fn connection_torn_down_when_last_ref_clunked() {
        let (dev, _) = toy_dev();
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        assert_eq!(dev.conn_count(), 1);
        dev.clunk(&ctl);
        assert_eq!(dev.conn_count(), 0);
        // The directory is gone.
        let err = dev.walk(&root, "0").unwrap_err();
        assert_eq!(err.0, errstr::ENOTEXIST);
    }

    /// A conversation whose close checks that its device's state lock
    /// is free.
    struct CloseProbe {
        conn: std::sync::Weak<Conn>,
        closed: std::sync::atomic::AtomicBool,
    }

    impl ConnOps for CloseProbe {
        fn send(&self, _msg: &[u8]) -> Result<()> {
            Ok(())
        }
        fn recv(&self) -> Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn local(&self) -> String {
            String::new()
        }
        fn remote(&self) -> String {
            String::new()
        }
        fn status(&self) -> String {
            String::new()
        }
        fn close(&self) {
            let conn = self.conn.upgrade().expect("conversation alive");
            assert!(conn.state.try_lock().is_some(), "close ran under core.proto.connstate");
            self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl AnnounceOps for CloseProbe {
        fn listen(&self) -> Result<Arc<dyn ConnOps>> {
            Err(NineError::new("no calls"))
        }
        fn local(&self) -> String {
            String::new()
        }
        fn close(&self) {
            ConnOps::close(self);
        }
    }

    #[test]
    fn hangup_closes_outside_the_state_lock() {
        let conn = Arc::new(Conn::new(ConnState::Idle));
        let probe = || {
            Arc::new(CloseProbe {
                conn: Arc::downgrade(&conn),
                closed: std::sync::atomic::AtomicBool::new(false),
            })
        };
        let (call, announcement) = (probe(), probe());
        *conn.state.lock() = ConnState::Connected(Arc::clone(&call) as Arc<dyn ConnOps>);
        conn.hangup();
        *conn.state.lock() = ConnState::Announced(Arc::clone(&announcement) as Arc<dyn AnnounceOps>);
        conn.hangup();
        for probe in [call, announcement] {
            assert!(probe.closed.load(std::sync::atomic::Ordering::SeqCst));
        }
        assert!(matches!(*conn.state.lock(), ConnState::Idle));
    }

    #[test]
    fn top_listing_shows_clone_and_conns() {
        let (dev, _) = toy_dev();
        let root = dev.attach("u", "").unwrap();
        let clone = dev.walk(&root, "clone").unwrap();
        let _ctl = dev.open(&clone, OpenMode::RDWR).unwrap();
        let entries = dev
            .read(&root, 0, 4096)
            .unwrap()
            .chunks(plan9_ninep::dir::DIR_LEN)
            .map(|c| Dir::decode(c).unwrap().name)
            .collect::<Vec<_>>();
        assert_eq!(entries, vec!["clone", "stats", "0"]);
    }

    #[test]
    fn stats_file_serves_protocol_counters() {
        let (dev, _) = toy_dev();
        let root = dev.attach("u", "").unwrap();
        let stats = dev.walk(&root, "stats").unwrap();
        assert!(dev.open(&stats, OpenMode::WRITE).is_err());
        let stats = dev.open(&stats, OpenMode::READ).unwrap();
        assert_eq!(dev.read(&stats, 0, 4096).unwrap(), b"toy.calls 0\n");
    }
}
