//! A tag-multiplexed concurrent 9P client.
//!
//! Many processes share one connection to a file server; the mount driver
//! "demultiplexes among processes using the file server" (§2.1). The
//! client assigns each outstanding request a distinct tag and a reply
//! slot, and any number of threads may issue RPCs concurrently. There
//! is no service thread between a caller and its reply: one of the
//! waiting callers reads the transport, for itself and for the others,
//! and the rest sleep until it fills their slots.

use crate::codec::{decode_rmsg, encode_tmsg};
use crate::fcall::{Fid, Rmsg, Tag, Tmsg, CHAL_LEN, MAX_FDATA, NOTAG};
use crate::procfs::OpenMode;
use crate::qid::Qid;
use crate::transport::{MsgSink, MsgSource, SinkSlot};
use crate::{errstr, Dir, NineError, Result};
use plan9_netlog::trace;
use plan9_netlog::Facility;
use plan9_support::fnv::FnvMap;
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::time;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::Arc;

/// An outstanding request's place for its reply.
struct Slot {
    reply: Option<Rmsg>,
    /// For a Tflush, the tag it aborts.
    flushes: Option<Tag>,
}

#[derive(Default)]
struct Pending {
    slots: FnvMap<Tag, Slot>,
    /// Where the search for the next request's tag starts.
    next_tag: Tag,
    /// One of the waiting callers is in `recvmsg`, reading for all.
    reading: bool,
}

struct ClientShared {
    pending: Mutex<Pending>,
    /// Signalled when a slot is filled or the reading role falls free.
    arrived: Condvar,
    /// Locked only by the caller that holds the reading role.
    source: Mutex<Box<dyn MsgSource>>,
    sink: SinkSlot,
    next_fid: AtomicU16,
    hungup: AtomicBool,
}

/// A 9P RPC client over a delimited transport.
///
/// Cloneable (`Arc` semantics): clones share the connection, tags and fid
/// space.
#[derive(Clone)]
pub struct NineClient {
    shared: Arc<ClientShared>,
}

impl NineClient {
    /// Creates a client over the given transport halves.
    pub fn new(sink: Box<dyn MsgSink>, source: Box<dyn MsgSource>) -> NineClient {
        NineClient {
            shared: Arc::new(ClientShared {
                pending: Mutex::named(Pending::default(), "ninep.client.pending"),
                arrived: Condvar::new(),
                source: Mutex::named(source, "ninep.client.source"),
                sink: SinkSlot::new(sink),
                next_fid: AtomicU16::new(0),
                hungup: AtomicBool::new(false),
            }),
        }
    }

    /// Reports whether the connection has hung up.
    pub fn hungup(&self) -> bool {
        self.shared.hungup.load(Ordering::SeqCst)
    }

    /// Allocates a fresh fid. The caller owns it until clunked.
    pub fn alloc_fid(&self) -> Fid {
        loop {
            let f = self.shared.next_fid.fetch_add(1, Ordering::Relaxed);
            if f != crate::fcall::NOFID {
                return f;
            }
        }
    }

    /// Registers a request's slot under a tag no outstanding request
    /// holds: a caller parked on a blocked read keeps its tag however
    /// many RPCs go by.
    fn register(&self, slot: Slot) -> Tag {
        let mut p = self.shared.pending.lock();
        loop {
            let t = p.next_tag;
            p.next_tag = t.wrapping_add(1);
            if t == NOTAG {
                continue;
            }
            if let Entry::Vacant(free) = p.slots.entry(t) {
                free.insert(slot);
                return t;
            }
        }
    }

    /// Performs one RPC: sends the T-message, blocks for the R-message.
    ///
    /// An `Rerror` reply is surfaced as `Err` with the server's string.
    ///
    /// When nettrace is on, the RPC opens a root span keyed by its tag;
    /// three children partition it — `marshal` (packing the T-message),
    /// `txwait` (the transmit path down to the wire, which runs on this
    /// thread, as do, on an unpaced wire, the frame's delivery and what
    /// it readies: the peer's service and the reply's delivery), `reply`
    /// (waiting for the R-message) — and the handle is
    /// installed as the thread's current trace so the layers underneath
    /// attribute their own spans to this RPC.
    pub fn rpc(&self, t: &Tmsg) -> Result<Rmsg> {
        if self.hungup() {
            return Err(NineError::new(errstr::EHUNGUP));
        }
        let flushes = match t {
            Tmsg::Flush { old_tag } => Some(*old_tag),
            _ => None,
        };
        let tag = self.register(Slot { reply: None, flushes });
        let tracer = trace::global();
        let root = if tracer.enabled() {
            tracer.begin(&format!("{:?} tag {tag}", t.msg_type()))
        } else {
            None
        };
        // The three child spans share their boundary timestamps so they
        // tile the root: nothing the RPC waits on falls in a gap. The
        // clock is read for a span and for nothing else: an untraced
        // RPC does not read it.
        let mut edge = root.as_ref().map(|h| (h, time::now()));
        let _cur = root.as_ref().map(|h| h.set_current());
        let mut span = |name: &str| {
            if let Some((h, from)) = edge {
                let now = time::now();
                h.span(Facility::NineP, name, from, now);
                edge = Some((h, now));
            }
        };
        let buf = encode_tmsg(tag, t);
        span("marshal");
        if let Err(e) = self.shared.sink.send(|| Some(buf)) {
            self.shared.pending.lock().slots.remove(&tag);
            if let Some(h) = &root {
                h.finish();
            }
            return Err(e);
        }
        span("txwait");
        let r = self.await_reply(tag);
        span("reply");
        if let Some((h, end)) = edge {
            h.finish_at(end);
        }
        match r {
            Rmsg::Error { ename } => Err(NineError(ename)),
            ok if ok.answers(t) => Ok(ok),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Waits for the reply to `tag`, whose slot is registered and whose
    /// T-message is sent. The first caller to find nobody reading takes
    /// the transport and fills slots, other callers' as well as its
    /// own, until its own is full; the role then falls to whichever
    /// parked caller wakes first. A hangup is whatever the reader sees,
    /// and fails every slot.
    fn await_reply(&self, tag: Tag) -> Rmsg {
        let sh = &*self.shared;
        let mut p = sh.pending.lock();
        loop {
            if let Some(r) = p.slots.get_mut(&tag).and_then(|s| s.reply.take()) {
                p.slots.remove(&tag);
                return r;
            }
            if p.reading {
                sh.arrived.wait(&mut p);
                continue;
            }
            if sh.hungup.load(Ordering::SeqCst) {
                p.slots.remove(&tag);
                return Rmsg::error(errstr::EHUNGUP);
            }
            p.reading = true;
            drop(p);
            let msg = sh.source.lock().recvmsg();
            p = sh.pending.lock();
            p.reading = false;
            match msg {
                Ok(Some(raw)) => {
                    // Replies to flushed or unknown tags are dropped.
                    let Ok((rtag, r)) = decode_rmsg(&raw) else { continue };
                    let Some(slot) = p.slots.get_mut(&rtag) else { continue };
                    // An acknowledged Tflush fails the request it
                    // aborted, which will not be answered now
                    // (§ Tflush semantics).
                    let flushed = slot.flushes.filter(|_| matches!(r, Rmsg::Flush));
                    slot.reply = Some(r);
                    if let Some(old) = flushed.and_then(|old| p.slots.get_mut(&old)) {
                        old.reply.get_or_insert_with(|| Rmsg::error(errstr::EFLUSHED));
                    }
                }
                Ok(None) | Err(_) => {
                    sh.hungup.store(true, Ordering::SeqCst);
                    for slot in p.slots.values_mut() {
                        slot.reply.get_or_insert_with(|| Rmsg::error(errstr::EHUNGUP));
                    }
                }
            }
            sh.arrived.notify_all();
        }
    }

    /// Aborts the outstanding request with `old_tag`: sends `Tflush`,
    /// and once the server acknowledges, the aborted caller fails with
    /// [`errstr::EFLUSHED`].
    pub fn flush(&self, old_tag: Tag) -> Result<()> {
        self.rpc(&Tmsg::Flush { old_tag }).map(|_| ())
    }

    /// Starts a session, resetting the fid space.
    pub fn session(&self) -> Result<(String, String)> {
        match self.rpc(&Tmsg::Session {
            chal: [0u8; CHAL_LEN],
        })? {
            Rmsg::Session {
                authid, authdom, ..
            } => Ok((authid, authdom)),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Attaches a new fid to the server root.
    pub fn attach(&self, uname: &str, aname: &str) -> Result<(Fid, Qid)> {
        let fid = self.alloc_fid();
        match self.rpc(&Tmsg::Attach {
            fid,
            uname: uname.to_string(),
            aname: aname.to_string(),
            ticket: Vec::new(),
        })? {
            Rmsg::Attach { qid, .. } => Ok((fid, qid)),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Clones `fid` into a freshly allocated fid.
    pub fn clone_fid(&self, fid: Fid) -> Result<Fid> {
        let new_fid = self.alloc_fid();
        self.rpc(&Tmsg::Clone { fid, new_fid })?;
        Ok(new_fid)
    }

    /// Walks `fid` one level to `name`.
    pub fn walk(&self, fid: Fid, name: &str) -> Result<Qid> {
        match self.rpc(&Tmsg::Walk {
            fid,
            name: name.to_string(),
        })? {
            Rmsg::Walk { qid, .. } => Ok(qid),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Opens `fid` for I/O.
    pub fn open(&self, fid: Fid, mode: OpenMode) -> Result<Qid> {
        match self.rpc(&Tmsg::Open { fid, mode: mode.0 })? {
            Rmsg::Open { qid, .. } => Ok(qid),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Creates and opens `name` in the directory `fid` references.
    pub fn create(&self, fid: Fid, name: &str, perm: u32, mode: OpenMode) -> Result<Qid> {
        match self.rpc(&Tmsg::Create {
            fid,
            name: name.to_string(),
            perm,
            mode: mode.0,
        })? {
            Rmsg::Create { qid, .. } => Ok(qid),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Reads up to `count` bytes at `offset`.
    pub fn read(&self, fid: Fid, offset: u64, count: usize) -> Result<Vec<u8>> {
        let count = count.min(MAX_FDATA) as u16;
        match self.rpc(&Tmsg::Read { fid, offset, count })? {
            Rmsg::Read { data, .. } => Ok(data),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Writes bytes at `offset`, splitting into `MAX_FDATA` pieces as
    /// needed, and returns the number of bytes written.
    pub fn write(&self, fid: Fid, offset: u64, data: &[u8]) -> Result<usize> {
        let mut written = 0usize;
        // 9P read/write messages carry at most MAX_FDATA bytes each.
        for chunk in data.chunks(MAX_FDATA) {
            match self.rpc(&Tmsg::Write {
                fid,
                offset: offset + written as u64,
                data: chunk.to_vec(),
            })? {
                Rmsg::Write { count, .. } => {
                    written += count as usize;
                    if (count as usize) < chunk.len() {
                        break;
                    }
                }
                _ => return Err(NineError::new(errstr::EBADMSG)),
            }
        }
        Ok(written)
    }

    /// Discards `fid`.
    pub fn clunk(&self, fid: Fid) -> Result<()> {
        self.rpc(&Tmsg::Clunk { fid }).map(|_| ())
    }

    /// Removes the file and discards `fid`.
    pub fn remove(&self, fid: Fid) -> Result<()> {
        self.rpc(&Tmsg::Remove { fid }).map(|_| ())
    }

    /// Reads the file's attributes.
    pub fn stat(&self, fid: Fid) -> Result<Dir> {
        match self.rpc(&Tmsg::Stat { fid })? {
            Rmsg::Stat { stat, .. } => Ok(stat),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Writes the file's attributes.
    pub fn wstat(&self, fid: Fid, d: &Dir) -> Result<()> {
        self.rpc(&Tmsg::Wstat {
            fid,
            stat: d.clone(),
        })
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_tmsg, encode_rmsg};
    use crate::procfs::{MemFs, ProcFs};
    use crate::server::serve;
    use crate::server::tests::GateFs;
    use crate::transport::MsgPipeEnd;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    fn client_for(fs: Arc<dyn ProcFs>) -> NineClient {
        let (client_end, server_end) = MsgPipeEnd::pair();
        let (ssink, ssource) = server_end.split();
        std::thread::spawn(move || {
            let _ = serve(fs, Box::new(ssource), Box::new(ssink));
        });
        let (csink, csource) = client_end.split();
        NineClient::new(Box::new(csink), Box::new(csource))
    }

    #[test]
    fn full_file_round_trip() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/dir/file", b"0123456789").unwrap();
        let c = client_for(fs);
        let (fid, root_qid) = c.attach("u", "").unwrap();
        assert!(root_qid.is_dir());
        c.walk(fid, "dir").unwrap();
        let q = c.walk(fid, "file").unwrap();
        assert!(!q.is_dir());
        c.open(fid, OpenMode::READ).unwrap();
        assert_eq!(c.read(fid, 2, 4).unwrap(), b"2345");
        c.clunk(fid).unwrap();
    }

    #[test]
    fn large_write_is_chunked() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/big", b"").unwrap();
        let c = client_for(fs.clone());
        let (fid, _) = c.attach("u", "").unwrap();
        c.walk(fid, "big").unwrap();
        c.open(fid, OpenMode::WRITE).unwrap();
        let payload: Vec<u8> = (0..MAX_FDATA * 3 + 17).map(|i| i as u8).collect();
        assert_eq!(c.write(fid, 0, &payload).unwrap(), payload.len());
        // Verify through a fresh read fid.
        let (fid2, _) = c.attach("u", "").unwrap();
        c.walk(fid2, "big").unwrap();
        c.open(fid2, OpenMode::READ).unwrap();
        let mut got = Vec::new();
        loop {
            let chunk = c.read(fid2, got.len() as u64, MAX_FDATA).unwrap();
            if chunk.is_empty() {
                break;
            }
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn concurrent_rpcs_from_many_threads() {
        let fs = MemFs::new("ram", "bootes");
        for i in 0..8 {
            fs.put_file(&format!("/f{i}"), format!("data{i}").as_bytes())
                .unwrap();
        }
        let c = client_for(fs);
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let (fid, _) = c.attach("u", "").unwrap();
                    c.walk(fid, &format!("f{i}")).unwrap();
                    c.open(fid, OpenMode::READ).unwrap();
                    let data = c.read(fid, 0, 64).unwrap();
                    assert_eq!(data, format!("data{i}").as_bytes());
                    c.clunk(fid).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn server_error_string_propagates() {
        let fs = MemFs::new("ram", "bootes");
        let c = client_for(fs);
        let (fid, _) = c.attach("u", "").unwrap();
        let err = c.walk(fid, "missing").unwrap_err();
        assert_eq!(err.0, errstr::ENOTEXIST);
    }

    #[test]
    fn flush_releases_a_blocked_request() {
        let fs = GateFs::new();
        let c = client_for(fs.clone());
        let (fid, _) = c.attach("u", "").unwrap();
        c.walk(fid, "gate").unwrap();
        c.open(fid, OpenMode::READ).unwrap();
        let blocked = {
            let c = c.clone();
            std::thread::spawn(move || c.read(fid, 0, 8))
        };
        // The read is the only request outstanding once the server is
        // blocked in it, and its caller is the one reading the transport:
        // the Rflush it reads for the flusher is what fails it.
        fs.wait_parked(1);
        let tag = *c.shared.pending.lock().slots.keys().next().unwrap();
        c.flush(tag).unwrap();
        assert_eq!(blocked.join().unwrap().unwrap_err().0, errstr::EFLUSHED);
        // The server's late reply is suppressed; the connection goes on.
        fs.release();
        assert_eq!(c.stat(fid).unwrap().name, "gate");
    }

    #[test]
    fn a_parked_callers_tag_is_not_handed_out_again() {
        let fs = GateFs::new();
        let c = client_for(fs.clone());
        let open = |name| {
            let (fid, _) = c.attach("u", "").unwrap();
            c.walk(fid, name).unwrap();
            c.open(fid, OpenMode::READ).unwrap();
            fid
        };
        let (gate, f) = (open("gate"), open("f"));
        let parked = {
            let c = c.clone();
            std::thread::spawn(move || c.read(gate, 0, 8))
        };
        fs.wait_parked(1);
        // Had the parked caller's slot gone to another request, one of
        // the two would take the other's reply and one wait for good.
        fn settled<T>(h: &JoinHandle<T>) {
            let deadline = time::now() + std::time::Duration::from_secs(60);
            while !h.is_finished() {
                assert!(time::now() < deadline, "a reply went to the wrong caller");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        // More RPCs than there are tags: the tag counter comes round to
        // the parked caller's, which is still taken.
        let reads = {
            let c = c.clone();
            std::thread::spawn(move || (0..=u16::MAX).all(|_| c.read(f, 0, 8).unwrap() == b"data"))
        };
        settled(&reads);
        assert!(reads.join().unwrap());
        fs.release();
        settled(&parked);
        assert_eq!(parked.join().unwrap().unwrap(), b"late");
        assert!(c.shared.pending.lock().slots.is_empty());
    }

    /// A client whose server is the test itself: T-messages come off
    /// `peer` in the order sent, and replies go back in any order.
    struct Scripted {
        c: NineClient,
        peer: MsgPipeEnd,
    }

    impl Scripted {
        fn new() -> Scripted {
            let (client_end, peer) = MsgPipeEnd::pair();
            let (csink, csource) = client_end.split();
            let c = NineClient::new(Box::new(csink), Box::new(csource));
            Scripted { c, peer }
        }

        /// Starts a caller reading fid 0 and returns it with its tag,
        /// once its T-message has arrived.
        fn caller(&mut self) -> (Tag, JoinHandle<Result<Vec<u8>>>) {
            let c = self.c.clone();
            let h = std::thread::spawn(move || c.read(0, 0, 8));
            let (tag, _) = decode_tmsg(&self.peer.recvmsg().unwrap().unwrap()).unwrap();
            (tag, h)
        }

        /// Starts the caller that reads the transport, and a second one
        /// that finds the role taken.
        fn two_callers(&mut self) -> [(Tag, JoinHandle<Result<Vec<u8>>>); 2] {
            let reader = self.caller();
            while !self.c.shared.pending.lock().reading {
                std::thread::yield_now();
            }
            [reader, self.caller()]
        }

        fn reply(&mut self, tag: Tag, data: &[u8]) {
            let r = Rmsg::Read {
                fid: 0,
                data: data.to_vec(),
            };
            self.peer.sendmsg(&encode_rmsg(tag, &r)).unwrap();
        }
    }

    #[test]
    fn the_reader_delivers_another_callers_reply() {
        let mut s = Scripted::new();
        let [(rtag, reader), (otag, other)] = s.two_callers();
        // Answered in the opposite order: only the reader can have read
        // the other caller's reply, and it is still waiting for its own.
        s.reply(otag, b"other");
        assert_eq!(other.join().unwrap().unwrap(), b"other");
        assert!(s.c.shared.pending.lock().reading);
        s.reply(rtag, b"reader");
        assert_eq!(reader.join().unwrap().unwrap(), b"reader");
    }

    #[test]
    fn the_reading_role_passes_on_when_the_reader_leaves() {
        let mut s = Scripted::new();
        let [(rtag, reader), (otag, other)] = s.two_callers();
        s.reply(rtag, b"reader");
        assert_eq!(reader.join().unwrap().unwrap(), b"reader");
        // Nobody is left to read for the other caller but itself.
        s.reply(otag, b"other");
        assert_eq!(other.join().unwrap().unwrap(), b"other");
        assert!(!s.c.shared.pending.lock().reading);
    }

    #[test]
    fn hangup_fails_every_waiting_caller() {
        let mut s = Scripted::new();
        let [(_, reader), (_, other)] = s.two_callers();
        drop(s.peer);
        assert_eq!(reader.join().unwrap().unwrap_err().0, errstr::EHUNGUP);
        assert_eq!(other.join().unwrap().unwrap_err().0, errstr::EHUNGUP);
        // Later callers fail without touching the transport.
        assert!(s.c.hungup());
        assert_eq!(s.c.read(0, 0, 8).unwrap_err().0, errstr::EHUNGUP);
        assert!(s.c.shared.pending.lock().slots.is_empty());
    }

    #[test]
    fn a_reply_nobody_waits_for_is_dropped() {
        let mut s = Scripted::new();
        let [(rtag, reader), (otag, other)] = s.two_callers();
        // An unknown tag, then bytes that are no R-message: neither
        // caller takes either for its own.
        s.reply(rtag.wrapping_add(1000), b"stray");
        s.peer.sendmsg(&[0xff, 0xff, 0xff]).unwrap();
        s.reply(otag, b"other");
        s.reply(rtag, b"reader");
        assert_eq!(other.join().unwrap().unwrap(), b"other");
        assert_eq!(reader.join().unwrap().unwrap(), b"reader");
    }

    #[test]
    fn hangup_fails_rpcs() {
        let (client_end, server_end) = MsgPipeEnd::pair();
        let (csink, csource) = client_end.split();
        let c = NineClient::new(Box::new(csink), Box::new(csource));
        drop(server_end);
        let err = c.attach("u", "").unwrap_err();
        assert_eq!(err.0, errstr::EHUNGUP);
    }
}
