//! A tag-multiplexed concurrent 9P client.
//!
//! Many processes share one connection to a file server; the mount driver
//! "demultiplexes among processes using the file server" (§2.1). The
//! client assigns each outstanding request a distinct tag, a demux thread
//! routes replies back by tag, and any number of threads may issue RPCs
//! concurrently.

use crate::codec::{decode_rmsg, encode_tmsg};
use crate::fcall::{Fid, Rmsg, Tag, Tmsg, CHAL_LEN, MAX_FDATA, NOTAG};
use crate::procfs::OpenMode;
use crate::qid::Qid;
use crate::transport::{MsgSink, MsgSource};
use crate::{errstr, Dir, NineError, Result};
use plan9_netlog::trace;
use plan9_netlog::{Counter, Facility, Histogram};
use plan9_support::chan::{bounded, Sender};
use plan9_support::sync::Mutex;
use plan9_support::{time, vtime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::Arc;

struct ClientShared {
    pending: Mutex<HashMap<Tag, Sender<Rmsg>>>,
    sink: Mutex<Box<dyn MsgSink>>,
    next_tag: AtomicU16,
    next_fid: AtomicU16,
    hungup: AtomicBool,
    /// Completed RPC round trips.
    rpcs: Counter,
    /// Round-trip latency, send to matched reply.
    rpc_time: Histogram,
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
    /// Creates a client over the given transport halves and starts the
    /// reply-demultiplexing thread.
    pub fn new(sink: Box<dyn MsgSink>, mut source: Box<dyn MsgSource>) -> NineClient {
        let shared = Arc::new(ClientShared {
            pending: Mutex::named(HashMap::new(), "ninep.client.pending"),
            sink: Mutex::named(sink, "ninep.client.sink"),
            next_tag: AtomicU16::new(0),
            next_fid: AtomicU16::new(0),
            hungup: AtomicBool::new(false),
            rpcs: Counter::new("9p.rpc"),
            rpc_time: Histogram::new("9p.rpctime"),
        });
        let demux = Arc::clone(&shared);
        vtime::kproc("9p-demux", move || loop {
            match source.recvmsg() {
                Ok(Some(raw)) => {
                    if let Ok((tag, r)) = decode_rmsg(&raw) {
                        if let Some(tx) = demux.pending.lock().remove(&tag) {
                            let _ = tx.send(r);
                        }
                        // Replies to flushed/unknown tags are dropped.
                    }
                }
                Ok(None) | Err(_) => {
                    demux.hungup.store(true, Ordering::SeqCst);
                    // Fail every outstanding request.
                    let pending: Vec<Sender<Rmsg>> =
                        demux.pending.lock().drain().map(|(_, tx)| tx).collect();
                    for tx in pending {
                        let _ = tx.send(Rmsg::Error {
                            ename: errstr::EHUNGUP.to_string(),
                        });
                    }
                    return;
                }
            }
        })
        // checked: spawn fails only on OS thread exhaustion at mount time
        .expect("spawn 9p demux");
        NineClient { shared }
    }

    /// Reports whether the connection has hung up.
    pub fn hungup(&self) -> bool {
        self.shared.hungup.load(Ordering::SeqCst)
    }

    /// Renders the RPC counter and latency histogram as `key: value`
    /// lines for a `stats` file.
    pub fn stats_text(&self) -> String {
        let mut s = format!("rpc: {}\n", self.shared.rpcs.get());
        s.push_str(&self.shared.rpc_time.render());
        s
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

    fn alloc_tag(&self) -> Tag {
        loop {
            let t = self.shared.next_tag.fetch_add(1, Ordering::Relaxed);
            if t != NOTAG {
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
    /// thread), `reply` (waiting for the R-message) — and the handle is
    /// installed as the thread's current trace so the layers underneath
    /// attribute their own spans to this RPC.
    pub fn rpc(&self, t: &Tmsg) -> Result<Rmsg> {
        if self.hungup() {
            return Err(NineError::new(errstr::EHUNGUP));
        }
        let tag = self.alloc_tag();
        let tracer = trace::global();
        let root = if tracer.enabled() {
            tracer.begin(&format!("{:?} tag {tag}", t.msg_type()))
        } else {
            None
        };
        let _cur = root.as_ref().map(|h| h.set_current());
        // The three child spans share their boundary timestamps so they
        // tile the root: nothing the RPC waits on falls in a gap.
        let m0 = time::now();
        let (tx, rx) = bounded(1);
        self.shared.pending.lock().insert(tag, tx);
        let buf = encode_tmsg(tag, t);
        let started = time::now();
        if let Some(h) = &root {
            h.span(Facility::NineP, "marshal", m0, started);
        }
        // Bind the send result first: an `if let` on the guard-chained
        // call keeps the sink locked through the whole error arm, and
        // the pending cleanup below must not run with sink held.
        let sent = self.shared.sink.lock().sendmsg(&buf);
        if let Err(e) = sent {
            self.shared.pending.lock().remove(&tag);
            if let Some(h) = &root {
                h.finish();
            }
            return Err(e);
        }
        let r0 = time::now();
        if let Some(h) = &root {
            h.span(Facility::NineP, "txwait", started, r0);
        }
        let r = rx.recv();
        if let Some(h) = &root {
            let t_end = time::now();
            h.span(Facility::NineP, "reply", r0, t_end);
            h.finish_at(t_end);
        }
        let r = r.map_err(|_| NineError::new(errstr::EHUNGUP))?;
        self.shared.rpcs.inc();
        self.shared.rpc_time.record(time::now().saturating_duration_since(started));
        match r {
            Rmsg::Error { ename } => Err(NineError(ename)),
            ok if ok.answers(t) => Ok(ok),
            _ => Err(NineError::new(errstr::EBADMSG)),
        }
    }

    /// Aborts the outstanding request with `old_tag`: sends `Tflush`,
    /// and once the server acknowledges, fails the aborted caller with
    /// [`errstr::EFLUSHED`] — the flushed request will never be answered
    /// (§ Tflush semantics).
    pub fn flush(&self, old_tag: Tag) -> Result<()> {
        self.rpc(&Tmsg::Flush { old_tag })?;
        if let Some(tx) = self.shared.pending.lock().remove(&old_tag) {
            let _ = tx.send(Rmsg::Error {
                ename: errstr::EFLUSHED.to_string(),
            });
        }
        Ok(())
    }

    /// The tag most recently allocated minus pending bookkeeping is not
    /// exposed; callers that need to flush use [`NineClient::rpc_tagged`]
    /// to learn the tag up front.
    pub fn rpc_tagged(&self, t: &Tmsg) -> (Tag, plan9_support::chan::Receiver<Rmsg>) {
        let tag = self.alloc_tag();
        let (tx, rx) = bounded(1);
        self.shared.pending.lock().insert(tag, tx);
        let buf = encode_tmsg(tag, t);
        let sent = self.shared.sink.lock().sendmsg(&buf);
        if sent.is_err() {
            self.shared.pending.lock().remove(&tag);
            let (etx, erx) = bounded(1);
            let _ = etx.send(Rmsg::Error {
                ename: errstr::EHUNGUP.to_string(),
            });
            return (tag, erx);
        }
        (tag, rx)
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

    /// Clone-and-walk in one round trip.
    pub fn clwalk(&self, fid: Fid, name: &str) -> Result<(Fid, Qid)> {
        let new_fid = self.alloc_fid();
        match self.rpc(&Tmsg::Clwalk {
            fid,
            new_fid,
            name: name.to_string(),
        })? {
            Rmsg::Clwalk { qid, .. } => Ok((new_fid, qid)),
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
    use crate::procfs::MemFs;
    use crate::server::serve;
    use crate::transport::MsgPipeEnd;
    use std::sync::Arc;

    fn client_for(fs: Arc<MemFs>) -> NineClient {
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
        // A server that never answers reads: a MemFs wrapped so Tread
        // blocks forever. Simpler: use rpc_tagged against a tag that the
        // server will answer, flush it first, and observe EFLUSHED.
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/slow", b"data").unwrap();
        let c = client_for(fs);
        let (fid, _) = c.attach("u", "").unwrap();
        // Issue a request the server will answer, but race the flush:
        // after the flush completes, the pending rpc is failed locally
        // even if the reply was dropped server-side.
        let (tag, rx) = c.rpc_tagged(&Tmsg::Walk {
            fid,
            name: "slow".into(),
        });
        c.flush(tag).unwrap();
        let r = rx.recv().unwrap();
        match r {
            // Either the real reply won the race or the flush failed it.
            Rmsg::Error { ename } => assert_eq!(ename, errstr::EFLUSHED),
            Rmsg::Walk { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
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
