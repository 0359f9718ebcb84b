//! The 9P tag-space oracle: raw 9P, written with the codec to a server
//! of a gated tree, held against a model of what each tag is owed. A
//! feeder — exportfs over a pipe, say, or `serve` over a message pipe —
//! makes the server and hands back the client's end of its transport;
//! the case is the same whoever feeds the server.
//!
//! Each case mixes reads of data at hand, reads that park on a gated
//! file, flushes of live, answered and never-used tags, a tag used
//! again straight after its Rflush, writes of up to `MAX_FDATA` bytes,
//! walks, opens and clunks of both kinds of file, and a burst of reads
//! written before any reply is read, whose replies take a pipe's queue
//! past its limit. It ends with an orderly close, or a hasty one from
//! either end; where the feeder can tell that the server has hung up, a
//! hasty close waits for that with reads still parked, then lets them
//! through. Every unflushed operation is answered exactly once with
//! its own bytes, nothing answers a flushed one after its Rflush, a
//! read of the gate runs on a `9p-worker` (where `may_block` puts it,
//! whoever feeds the service), and once both ends are closed the server
//! has ended and left no kernel process behind. The oracle knows
//! nothing of which process reads the transport.

use super::fs::{thread_name, Hooked, Hooks};
use plan9::ninep::codec::{decode_rmsg, encode_tmsg};
use plan9::ninep::fcall::{Fid, Rmsg, Tag, Tmsg, MAX_FDATA};
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9::ninep::transport::{MsgSink, MsgSource};
use plan9_support::check::Gen;
use plan9_support::sync::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// Walked to a file, opened and clunked again.
const SCRATCH: Fid = 4;

/// A `MemFs` of `/f`, data at hand; `/w`, written to; and `/gate`,
/// whose reads park until the case lets one through, the oldest first,
/// and which alone says it may block. `/n/pipe` is a mount point for a
/// feeder's pipe.
pub struct GateFs {
    mem: Arc<MemFs>,
    gate: Mutex<Gate>,
    changed: Condvar,
}

/// The reads that have come to the gate, the ones let through, the ones
/// still in it, and the threads that read it, by name.
#[derive(Default)]
struct Gate {
    came: usize,
    let_through: usize,
    parked: usize,
    readers: Vec<String>,
}

impl GateFs {
    fn new(f: &[u8], gate: &[u8]) -> Arc<Hooked<GateFs>> {
        let mem = MemFs::new("gated", "bootes");
        mem.put_file("/f", f).unwrap();
        mem.put_file("/w", b"").unwrap();
        mem.put_file("/gate", gate).unwrap();
        mem.put_file("/n/pipe/.keep", b"").unwrap();
        Arc::new(Hooked(GateFs { mem, gate: Mutex::new(Gate::default()), changed: Condvar::new() }))
    }

    fn is_gate(&self, n: &ServeNode) -> bool {
        self.mem.stat(n).is_ok_and(|d| d.name == "gate")
    }

    /// Returns once `n` reads are parked in the gate.
    fn wait_parked(&self, n: usize) {
        let mut g = self.gate.lock();
        while g.parked != n {
            self.changed.wait(&mut g);
        }
    }

    /// Lets the oldest parked read through: a flushed read ends before
    /// a read that came after it under its tag.
    fn release(&self) {
        self.gate.lock().let_through += 1;
        self.changed.notify_all();
    }
}

impl Hooks for GateFs {
    fn mem(&self) -> &MemFs {
        &self.mem
    }
    fn before_read(&self, n: &ServeNode) {
        if !self.is_gate(n) {
            return;
        }
        let mut g = self.gate.lock();
        g.readers.push(thread_name());
        let turn = g.came;
        g.came += 1;
        g.parked += 1;
        self.changed.notify_all();
        while g.let_through <= turn {
            self.changed.wait(&mut g);
        }
        g.parked -= 1;
        self.changed.notify_all();
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        n.is_some_and(|n| self.is_gate(n))
    }
}

/// What a feeder made: the client's end of a transport to a server of
/// the case's tree, one 9P message a send or a receive, and how the
/// server ends.
pub struct Feed {
    pub sink: Box<dyn MsgSink>,
    pub source: Box<dyn MsgSource>,
    /// Hangs up the client's end, with the sink's going.
    pub close: Box<dyn FnOnce()>,
    /// Hangs the transport up at the server's end, where the feeder can.
    pub hang_up: Option<Box<dyn FnOnce()>>,
    /// Where the feeder can tell: returns once the server has hung up,
    /// the client's end having gone, and says how its feed ended. A
    /// hasty close waits for it with reads still parked (a hangup that
    /// waited for them would never return), then lets them through and
    /// reads on: each unflushed one is still answered.
    pub hung_up: Option<Box<dyn FnOnce() -> Result<(), String>>>,
    /// Waits for the server to end, the client's end having gone, and
    /// says what it left behind.
    pub ended: Box<dyn FnOnce() -> Result<(), String>>,
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

/// The client's end and what the oracle expects of it.
struct Client {
    sink: Option<Box<dyn MsgSink>>,
    source: Box<dyn MsgSource>,
    close: Option<Box<dyn FnOnce()>>,
    fs: Arc<Hooked<GateFs>>,
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

impl Client {
    fn send(&mut self, tag: Tag, t: &Tmsg, owed: Owed) -> Result<(), String> {
        assert!(self.live.insert(tag, owed).is_none(), "tag {tag} is live");
        let sink = self.sink.as_mut().ok_or_else(|| format!("write tag {tag}: closed"))?;
        sink.sendmsg(&encode_tmsg(tag, t)).map_err(|e| format!("write tag {tag}: {e}"))
    }

    /// Hangs up the client's end.
    fn close(&mut self) {
        self.sink = None;
        self.close.take().into_iter().for_each(|close| close());
    }

    /// Takes one reply and holds it against what its tag is owed; `None`
    /// at the end of the transport.
    fn take(&mut self) -> Result<Option<Tag>, String> {
        let Some(raw) = self.source.recvmsg().map_err(|e| format!("read: {e}"))? else {
            return Ok(None);
        };
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
            self.take()?.ok_or_else(|| format!("the end of the transport before tag {tag}'s reply"))?;
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

    /// A read of data at hand under `tag`, answered before it returns.
    fn read_as(&mut self, g: &mut Gen, tag: Tag) -> Result<(), String> {
        let count = g.usize_in(1..MAX_FDATA + 1);
        self.send_read(g, tag, count)?;
        self.await_tag(tag)
    }

    fn read(&mut self, g: &mut Gen) -> Result<(), String> {
        let tag = self.free_tag(g);
        self.read_as(g, tag)
    }

    fn gated(&mut self, g: &mut Gen) -> Result<(), String> {
        let tag = self.free_tag(g);
        self.gated_as(g, tag)
    }

    /// Sends a read of the gate under `tag` and returns once it is
    /// parked there.
    fn gated_as(&mut self, g: &mut Gen, tag: Tag) -> Result<(), String> {
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
    /// used. A parked read's tag is free from the Rflush on, and may be
    /// used again at once, by a read of either kind: an answer under it
    /// is the new read's.
    fn flush(&mut self, g: &mut Gen) -> Result<(), String> {
        let gated: Vec<Tag> = self.live.keys().copied().collect();
        let old = match g.usize_in(0..3) {
            0 if !gated.is_empty() => gated[g.usize_in(0..gated.len())],
            1 if !self.used.is_empty() => self.used[g.usize_in(0..self.used.len())],
            _ => g.u16_in(UNUSED..UNUSED + 8),
        };
        let was_live = self.live.contains_key(&old);
        let tag = loop {
            let t = self.free_tag(g);
            if t != old {
                break t;
            }
        };
        self.send(tag, &Tmsg::Flush { old_tag: old }, Owed::Flush(old))?;
        self.await_tag(tag)?;
        match g.usize_in(0..3) {
            0 if was_live => self.read_as(g, old)?,
            1 if was_live => self.gated_as(g, old)?,
            _ => {}
        }
        Ok(())
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

    /// Walks a new fid from the root to `/f` or to the gate, opens it
    /// and clunks it: for the gate each of the three runs where the
    /// gate's operations do, whatever is parked there.
    fn open_and_clunk(&mut self, g: &mut Gen) -> Result<(), String> {
        let name = if g.bool() { "gate" } else { "f" };
        let ops = [
            Tmsg::Clwalk { fid: ROOT, new_fid: SCRATCH, name: name.into() },
            Tmsg::Open { fid: SCRATCH, mode: OpenMode::READ.0 },
            Tmsg::Clunk { fid: SCRATCH },
        ];
        for t in ops {
            let tag = self.free_tag(g);
            self.rpc(tag, &t)?;
        }
        Ok(())
    }

    /// Reads of `MAX_FDATA` bytes, all written before any reply is read:
    /// more replies than a pipe holds.
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

    /// The case's operations and its close; says what it did.
    fn run(
        &mut self,
        g: &mut Gen,
        hang_up: Option<Box<dyn FnOnce()>>,
        hung_up: Option<Box<dyn FnOnce() -> Result<(), String>>>,
    ) -> Result<String, String> {
        self.rpc(1, &Tmsg::Attach { fid: ROOT, uname: "u".into(), aname: "".into(), ticket: vec![] })?;
        for (fid, name, mode) in [(F, "f", OpenMode::READ), (W, "w", OpenMode::RDWR), (GATE, "gate", OpenMode::READ)] {
            self.rpc(1, &Tmsg::Clwalk { fid: ROOT, new_fid: fid, name: name.into() })?;
            self.rpc(1, &Tmsg::Open { fid, mode: mode.0 })?;
        }
        let mut bursts = 0;
        for _ in 0..g.usize_in(0..48) {
            match g.usize_in(0..13) {
                0..=3 => self.read(g)?,
                4 | 5 => self.gated(g)?,
                6 | 7 => self.flush(g)?,
                8 | 9 => self.write(g)?,
                10 if self.parked > 0 => self.release(1),
                11 if bursts < 2 => {
                    bursts += 1;
                    self.burst(g)?
                }
                12 => self.open_and_clunk(g)?,
                _ => {}
            }
        }
        // Some requests left unanswered at the close, which the client
        // makes, or the server where the feeder can.
        let hasty = g.usize_in(0..if hang_up.is_some() { 3 } else { 2 });
        if hasty != 0 {
            for _ in 0..g.usize_in(0..6) {
                let tag = self.free_tag(g);
                let count = g.usize_in(1..MAX_FDATA + 1);
                self.send_read(g, tag, count)?;
            }
        }
        match (hasty, hang_up) {
            (0, _) => {
                self.release(self.parked);
                let owed: Vec<Tag> = self.live.keys().copied().collect();
                for tag in owed {
                    self.await_tag(tag)?;
                }
                self.close();
            }
            (1, _) => {
                self.close();
                if let Some(hung_up) = hung_up {
                    hung_up()?;
                    self.release(self.parked);
                    while self.take()?.is_some() {}
                    if !self.live.is_empty() {
                        let owed: BTreeSet<&Tag> = self.live.keys().collect();
                        return Err(format!("tags never answered after the hangup: {owed:?}"));
                    }
                }
                self.release(self.parked);
            }
            (_, hang_up) => {
                hang_up.expect("a feeder that hangs up")();
                while self.take()?.is_some() {}
                self.release(self.parked);
                self.close();
            }
        }
        Ok(format!("{} ops, bursts {bursts}, hasty {hasty}", self.used.len()))
    }
}

/// Runs case `seed` of oracle `name` against the server `feed` makes of
/// the case's tree.
pub fn case(name: &'static str, seed: u64, feed: impl FnOnce(Arc<dyn ProcFs>) -> Result<Feed, String>) -> Result<(), String> {
    let before = super::kprocs();
    let mut g = Gen::from_seed(seed);
    let (f, gate) = (g.bytes(F_LEN..F_LEN + 1), g.bytes(GATE_LEN..GATE_LEN + 1));
    let fs = GateFs::new(&f, &gate);
    let Feed { sink, source, close, hang_up, hung_up, ended } = feed(fs.clone())?;

    let done = Arc::new(AtomicBool::new(false));
    let wfs = Arc::clone(&fs);
    let dog = super::watchdog(name, seed, &done, move || format!("{} reads in the gate", wfs.gate.lock().parked));
    let (sink, close, w, live, used) = (Some(sink), Some(close), Vec::new(), HashMap::new(), Vec::new());
    let mut c = Client { sink, source, close, fs, f, gate, w, live, used, parked: 0 };
    let run = c.run(&mut g, hang_up, hung_up);
    // Whatever went wrong, nothing is left parked for the end to wait
    // on, and the client's end goes.
    (0..c.parked).for_each(|_| c.fs.release());
    let fs = Arc::clone(&c.fs);
    drop(c);
    let left = ended();
    done.store(true, Ordering::Release);
    dog.join().expect("watchdog panicked");
    let what = run?;
    left.map_err(|e| format!("({what}): {e}"))?;
    let readers = fs.gate.lock().readers.clone();
    if let Some(t) = readers.iter().find(|t| *t != "9p-worker") {
        return Err(format!("({what}): a read of the gate ran on {t:?}"));
    }
    super::settled(name, seed, &what, || super::kprocs().saturating_sub(before))
}
