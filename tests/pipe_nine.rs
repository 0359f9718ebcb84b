//! exportfs over a pipe against a tag-space oracle: raw 9P, written
//! with the codec onto one end of a pipe whose other end `serve_export`
//! serves. Each case mixes reads of data at hand, reads that park on a
//! gated file, flushes of live, answered and never-used tags, writes of
//! up to `MAX_FDATA` bytes, and a burst of reads written before any
//! reply is read, whose replies take the pipe's queue past its limit.
//! It ends with an orderly close, or a hasty one from either end. Every
//! unflushed operation is answered exactly once with its own bytes,
//! nothing answers a flushed one after its Rflush, a read of the gate
//! runs on a `9p-worker` (where `may_block` puts it, whoever feeds the
//! service), and once both ends are closed the `exportfs` process has
//! ended, no `9p-worker` is left and the pipe is gone. The oracle knows
//! nothing of which process reads the pipe. Every case runs under the virtual clock (so this
//! file is a binary of its own: a virtual run is process-wide) and is a
//! function of its seed.

mod oracle;

use plan9::core::dev::PipeFs;
use plan9::core::namespace::{Namespace, Source, MREPL};
use plan9::core::proc::Proc;
use plan9::exportfs::exportfs::serve_export;
use plan9::ninep::codec::{decode_rmsg, encode_tmsg};
use plan9::ninep::fcall::{Fid, Rmsg, Tag, Tmsg, MAX_FDATA};
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9::ninep::{Dir, Result as NineResult};
use plan9_support::check::Gen;
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::{pool, vtime};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The bytes of `/f` and of `/gate`.
const F_LEN: usize = 48 * 1024;
const GATE_LEN: usize = 256;
/// Tags the case uses, and ones above them it never does.
const TAGS: u16 = 48;
const UNUSED: u16 = 100;

const ROOT: Fid = 0;
const F: Fid = 1;
const W: Fid = 2;
const GATE: Fid = 3;

/// Kernel processes on the clock, less the pool's workers, whose number
/// is the pool's to decide.
fn kprocs() -> usize {
    vtime::active().expect("a virtual clock").census().0 - pool::workers()
}

/// A `MemFs` of `/f`, data at hand; `/w`, written to; and `/gate`,
/// whose reads park until the case lets one through, and which alone
/// says it may block.
struct GateFs {
    mem: Arc<MemFs>,
    /// Reads parked in the gate, and the ones let through and not yet
    /// taken.
    gate: Mutex<(usize, usize)>,
    changed: Condvar,
    /// The threads that read the gate, by name.
    gate_readers: Mutex<Vec<String>>,
}

impl GateFs {
    fn new(f: &[u8], gate: &[u8]) -> Arc<GateFs> {
        let mem = MemFs::new("gated", "bootes");
        mem.put_file("/f", f).unwrap();
        mem.put_file("/w", b"").unwrap();
        mem.put_file("/gate", gate).unwrap();
        mem.put_file("/n/pipe/.keep", b"").unwrap();
        let (gate, gate_readers) = (Mutex::new((0, 0)), Mutex::new(Vec::new()));
        Arc::new(GateFs { mem, gate, changed: Condvar::new(), gate_readers })
    }

    fn is_gate(&self, n: &ServeNode) -> bool {
        self.mem.stat(n).is_ok_and(|d| d.name == "gate")
    }

    /// Returns once `n` reads are parked in the gate.
    fn wait_parked(&self, n: usize) {
        let mut g = self.gate.lock();
        while g.0 != n {
            self.changed.wait(&mut g);
        }
    }

    /// Lets one parked read through.
    fn release(&self) {
        self.gate.lock().1 += 1;
        self.changed.notify_all();
    }

    fn parked(&self) -> usize {
        self.gate.lock().0
    }
}

impl ProcFs for GateFs {
    fn fsname(&self) -> String {
        self.mem.fsname()
    }
    fn attach(&self, uname: &str, aname: &str) -> NineResult<ServeNode> {
        self.mem.attach(uname, aname)
    }
    fn clone_node(&self, n: &ServeNode) -> NineResult<ServeNode> {
        self.mem.clone_node(n)
    }
    fn walk(&self, n: &ServeNode, name: &str) -> NineResult<ServeNode> {
        self.mem.walk(n, name)
    }
    fn open(&self, n: &ServeNode, mode: OpenMode) -> NineResult<ServeNode> {
        self.mem.open(n, mode)
    }
    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> NineResult<Vec<u8>> {
        if self.is_gate(n) {
            let thread = std::thread::current().name().unwrap_or("").to_string();
            self.gate_readers.lock().push(thread);
            let mut g = self.gate.lock();
            g.0 += 1;
            self.changed.notify_all();
            while g.1 == 0 {
                self.changed.wait(&mut g);
            }
            g.1 -= 1;
            g.0 -= 1;
            self.changed.notify_all();
        }
        self.mem.read(n, offset, count)
    }
    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> NineResult<usize> {
        self.mem.write(n, offset, data)
    }
    fn clunk(&self, n: &ServeNode) {
        self.mem.clunk(n)
    }
    fn stat(&self, n: &ServeNode) -> NineResult<Dir> {
        self.mem.stat(n)
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        n.is_some_and(|n| self.is_gate(n))
    }
}

/// What an operation in flight is owed.
#[derive(Debug, PartialEq)]
enum Owed {
    Data(Vec<u8>),
    Count(u16),
    /// The Rflush of a flush of this tag.
    Flush(Tag),
    /// Any reply that answers the request.
    Done,
}

/// The client end of the pipe and what the oracle expects of it.
struct Client<'a> {
    p: &'a Proc,
    fd: i32,
    fs: Arc<GateFs>,
    f: Vec<u8>,
    gate: Vec<u8>,
    /// `/w` as the writes so far have left it.
    w: Vec<u8>,
    /// Unflushed, unanswered operations.
    live: HashMap<Tag, Owed>,
    /// Tags used and since answered or flushed.
    used: Vec<Tag>,
    /// Reads in the gate, flushed ones among them.
    parked: usize,
}

impl Client<'_> {
    fn send(&mut self, tag: Tag, t: &Tmsg, owed: Owed) -> Result<(), String> {
        assert!(self.live.insert(tag, owed).is_none(), "tag {tag} is live");
        let n = self.p.write(self.fd, &encode_tmsg(tag, t)).map_err(|e| format!("write tag {tag}: {e}"))?;
        if n == 0 {
            return Err(format!("write tag {tag}: nothing written"));
        }
        Ok(())
    }

    /// Takes one reply and holds it against what its tag is owed; `None`
    /// at the end of the pipe.
    fn take(&mut self) -> Result<Option<Tag>, String> {
        let raw = self.p.read(self.fd, 1 << 16).map_err(|e| format!("read: {e}"))?;
        if raw.is_empty() {
            return Ok(None);
        }
        let (tag, r) = decode_rmsg(&raw).map_err(|e| format!("a reply that does not decode: {e}"))?;
        let owed = self.live.remove(&tag).ok_or_else(|| format!("a {:?} under tag {tag}, which nothing is owed", r.msg_type()))?;
        self.used.push(tag);
        match (owed, r) {
            (Owed::Data(want), Rmsg::Read { data, .. }) if data == want => {}
            (Owed::Count(want), Rmsg::Write { count, .. }) if count == want => {}
            (Owed::Flush(old), Rmsg::Flush) => {
                // Unanswered by now, the flushed operation never will be.
                if self.live.remove(&old).is_some() {
                    self.used.push(old);
                }
            }
            (Owed::Done, Rmsg::Error { ename }) => return Err(format!("tag {tag}: {ename}")),
            (Owed::Done, _) => {}
            (owed, r) => return Err(format!("tag {tag} owed {owed:?}, answered {r:?}")),
        }
        Ok(Some(tag))
    }

    /// Takes replies until the one under `tag`.
    fn await_tag(&mut self, tag: Tag) -> Result<(), String> {
        while self.live.contains_key(&tag) {
            self.take()?.ok_or_else(|| format!("the end of the pipe before tag {tag}'s reply"))?;
        }
        Ok(())
    }

    fn rpc(&mut self, tag: Tag, t: &Tmsg) -> Result<(), String> {
        self.send(tag, t, Owed::Done)?;
        self.await_tag(tag)
    }

    /// A tag no operation in flight holds.
    fn free_tag(&self, g: &mut Gen) -> Tag {
        loop {
            let t = g.u16_in(0..TAGS);
            if !self.live.contains_key(&t) {
                return t;
            }
        }
    }

    /// Sends a read of `/f` or `/w`, data at hand.
    fn send_read(&mut self, g: &mut Gen, tag: Tag, count: usize) -> Result<(), String> {
        let (fid, file) = if self.w.is_empty() || g.bool() { (F, &self.f) } else { (W, &self.w) };
        let offset = g.usize_in(0..file.len());
        let want = file[offset..file.len().min(offset + count)].to_vec();
        let t = Tmsg::Read { fid, offset: offset as u64, count: count as u16 };
        self.send(tag, &t, Owed::Data(want))
    }

    fn read(&mut self, g: &mut Gen) -> Result<(), String> {
        let tag = self.free_tag(g);
        let count = g.usize_in(1..MAX_FDATA + 1);
        self.send_read(g, tag, count)?;
        self.await_tag(tag)
    }

    /// Sends a read of the gate and returns once it is parked there.
    fn gated(&mut self, g: &mut Gen) -> Result<(), String> {
        let tag = self.free_tag(g);
        let offset = g.usize_in(0..GATE_LEN);
        let count = g.usize_in(1..64);
        let want = self.gate[offset..GATE_LEN.min(offset + count)].to_vec();
        self.send(tag, &Tmsg::Read { fid: GATE, offset: offset as u64, count: count as u16 }, Owed::Data(want))?;
        self.parked += 1;
        self.fs.wait_parked(self.parked);
        Ok(())
    }

    /// Lets `n` parked reads through; a flushed one answers nothing.
    fn release(&mut self, n: usize) {
        for _ in 0..n {
            self.fs.release();
        }
        self.parked -= n;
        self.fs.wait_parked(self.parked);
    }

    /// Flushes a read parked in the gate, an answered tag or one never
    /// used.
    fn flush(&mut self, g: &mut Gen) -> Result<(), String> {
        let gated: Vec<Tag> = self.live.keys().copied().collect();
        let old = match g.usize_in(0..3) {
            0 if !gated.is_empty() => gated[g.usize_in(0..gated.len())],
            1 if !self.used.is_empty() => self.used[g.usize_in(0..self.used.len())],
            _ => g.u16_in(UNUSED..UNUSED + 8),
        };
        let tag = loop {
            let t = self.free_tag(g);
            if t != old {
                break t;
            }
        };
        self.send(tag, &Tmsg::Flush { old_tag: old }, Owed::Flush(old))?;
        self.await_tag(tag)
    }

    fn write(&mut self, g: &mut Gen) -> Result<(), String> {
        let tag = self.free_tag(g);
        let offset = g.usize_in(0..self.w.len() + 1);
        let data = g.bytes(1..MAX_FDATA + 1);
        let end = offset + data.len();
        if self.w.len() < end {
            self.w.resize(end, 0);
        }
        self.w[offset..end].copy_from_slice(&data);
        let n = data.len() as u16;
        self.send(tag, &Tmsg::Write { fid: W, offset: offset as u64, data }, Owed::Count(n))?;
        self.await_tag(tag)
    }

    /// Reads of `MAX_FDATA` bytes, all written before any reply is read:
    /// more replies than the pipe holds.
    fn burst(&mut self, g: &mut Gen) -> Result<(), String> {
        let n = g.usize_in(17..25);
        let tags: Vec<Tag> = (0..n)
            .map(|_| {
                let tag = self.free_tag(g);
                self.live.insert(tag, Owed::Done);
                tag
            })
            .collect();
        for &tag in &tags {
            self.live.remove(&tag);
            self.send_read(g, tag, MAX_FDATA)?;
        }
        for tag in tags {
            self.await_tag(tag)?;
        }
        Ok(())
    }
}

fn case(seed: u64) -> Result<(), String> {
    let before = kprocs();
    let mut g = Gen::from_seed(seed);
    let (f, gate) = (g.bytes(F_LEN..F_LEN + 1), g.bytes(GATE_LEN..GATE_LEN + 1));
    let fs = GateFs::new(&f, &gate);
    let root: Arc<dyn ProcFs> = fs.clone();
    let p = Proc::new(Namespace::new(Source::attach(&root, "u", "").map_err(|e| e.0)?), "u");
    let pipe: Arc<dyn ProcFs> = PipeFs::new();
    let gone = Arc::downgrade(&pipe);
    p.mount_fs(&pipe, "", "/n/pipe", MREPL).map_err(|e| e.0)?;
    drop(pipe);
    let srv_fd = p.open("/n/pipe/data", OpenMode::RDWR).map_err(|e| e.0)?;
    let fd = p.open("/n/pipe/data1", OpenMode::RDWR).map_err(|e| e.0)?;
    p.ns.unmount("/n/pipe").map_err(|e| e.0)?;
    let (srv, srv_fd) = p.fork_with_fd(srv_fd);
    let srv = Arc::new(srv);
    let served = Arc::clone(&srv);
    let exportfs = vtime::kproc("exportfs", move || {
        let _ = serve_export(&served, srv_fd, false);
    })
    .expect("spawn exportfs");

    let done = Arc::new(AtomicBool::new(false));
    let wfs = Arc::clone(&fs);
    let dog = oracle::watchdog("pipe", seed, &done, move || format!("{} reads in the gate", wfs.parked()));
    let mut c = Client { p: &p, fd, fs, f, gate, w: Vec::new(), live: HashMap::new(), used: Vec::new(), parked: 0 };
    let run = (|| -> Result<String, String> {
        // The import command's initial protocol, then a tree to serve.
        p.write(fd, b"/").map_err(|e| e.0)?;
        if p.read(fd, 64).map_err(|e| e.0)? != b"OK" {
            return Err("the export refused its root".into());
        }
        c.rpc(1, &Tmsg::Attach { fid: ROOT, uname: "u".into(), aname: "".into(), ticket: vec![] })?;
        for (fid, name, mode) in [(F, "f", OpenMode::READ), (W, "w", OpenMode::RDWR), (GATE, "gate", OpenMode::READ)] {
            c.rpc(1, &Tmsg::Clwalk { fid: ROOT, new_fid: fid, name: name.into() })?;
            c.rpc(1, &Tmsg::Open { fid, mode: mode.0 })?;
        }
        let mut bursts = 0;
        for _ in 0..g.usize_in(0..48) {
            match g.usize_in(0..12) {
                0..=3 => c.read(&mut g)?,
                4 | 5 => c.gated(&mut g)?,
                6 | 7 => c.flush(&mut g)?,
                8 | 9 => c.write(&mut g)?,
                10 if c.parked > 0 => c.release(1),
                11 if bursts < 2 => {
                    bursts += 1;
                    c.burst(&mut g)?
                }
                _ => {}
            }
        }
        // Some requests left unanswered at the close.
        let hasty = g.usize_in(0..3);
        if hasty != 0 {
            for _ in 0..g.usize_in(0..6) {
                let tag = c.free_tag(&mut g);
                let count = g.usize_in(1..MAX_FDATA + 1);
                c.send_read(&mut g, tag, count)?;
            }
        }
        match hasty {
            0 => {
                c.release(c.parked);
                let owed: Vec<Tag> = c.live.keys().copied().collect();
                for tag in owed {
                    c.await_tag(tag)?;
                }
                p.close(fd);
            }
            1 => {
                p.close(fd);
                c.release(c.parked);
            }
            _ => {
                srv.close(srv_fd);
                while c.take()?.is_some() {}
                c.release(c.parked);
                p.close(fd);
            }
        }
        Ok(format!("{} ops, bursts {bursts}, hasty {hasty}", c.used.len()))
    })();
    // Whatever went wrong, nothing is left parked for the end to wait on.
    let parked = c.parked;
    for _ in 0..parked {
        c.fs.release();
    }
    exportfs.join().expect("exportfs panicked");
    done.store(true, std::sync::atomic::Ordering::Release);
    dog.join().expect("watchdog panicked");
    let what = run?;
    let readers = c.fs.gate_readers.lock().clone();
    if let Some(t) = readers.iter().find(|t| *t != "9p-worker") {
        return Err(format!("({what}): a read of the gate ran on {t:?}"));
    }
    drop((srv, p));
    oracle::settled("pipe", seed, &what, || kprocs().saturating_sub(before))?;
    if gone.upgrade().is_some() {
        return Err(format!("({what}): the pipe outlived both its ends"));
    }
    Ok(())
}

plan9_support::props! {
    /// 200 seeds; a failing one is printed by the runner and replays
    /// with `P9_CHECK_SEED`, a wedged one by the watchdog and replays
    /// with `P9_PIPE_CASE`.
    fn prop_every_unflushed_operation_is_answered_once_with_its_own_bytes(g, cases = 200) {
        oracle::run(oracle::next_seed("pipe", g), case);
    }
}
