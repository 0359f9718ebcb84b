//! The RPC side of a 9P file server.
//!
//! A [`NineService`] applies T-messages to a [`ProcFs`] and writes
//! R-messages back. This is the glue that lets a kernel-resident device
//! (procedural 9P) be exported to a remote machine (RPC 9P) — the
//! reverse of the mount driver. There is one dispatch and two ways to
//! run a file operation under it:
//!
//! * [`serve`] reads a transport until the peer hangs up. The paper
//!   gives `exportfs` slave processes (§6.1) because `open`, `read` and
//!   `write` *may* block — a `listen` file blocks until a call arrives
//!   — not because every operation does. So the reader asks the file
//!   server ([`ProcFs::may_block`]) about each Tread, Twrite, Tstat and
//!   Tclunk: an operation on data at hand runs and is answered on the
//!   reader's own thread, in the context that already holds the
//!   message; every other operation goes to a worker kproc — an idle
//!   one if there is one, a new one if not, all of them kept until the
//!   hangup — and replies are serialized onto the transport by a lock.
//! * [`NineService::input`] runs every operation on the caller's thread
//!   (typically a worker-pool shard), for file systems that answer from
//!   memory and connections counted in tens of thousands.

use crate::codec::{decode_tmsg, encode_rmsg};
use crate::fcall::{Fid, Rmsg, Tag, Tmsg, CHAL_LEN, MAX_FDATA};
use crate::procfs::{OpenMode, ProcFs, ServeNode};
use crate::transport::{MsgSink, MsgSource};
use crate::{errstr, NineError, Result};
use plan9_netlog::trace::{self, TraceHandle};
use plan9_netlog::Facility;
use plan9_support::chan::unbounded;
use plan9_support::sync::Mutex;
use plan9_support::{time, vtime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct FidState {
    node: ServeNode,
    open: bool,
}

/// A file operation that may block, marked in flight for a worker.
struct Op {
    tag: Tag,
    serial: u64,
    t: Tmsg,
}

struct ServerShared {
    fs: Arc<dyn ProcFs>,
    fids: Mutex<HashMap<Fid, FidState>>,
    /// File operations running on [`serve`]'s workers: each tag's
    /// current operation, by the serial number it was started under. A
    /// Tflush removes the entry, so the operation finds on finishing
    /// that the tag is no longer its own and does not answer, whether
    /// or not the tag has been used again. An answered tag is not in
    /// the map, so flushing it changes nothing; nor is an operation run
    /// where its message was read, since no Tflush can be read while
    /// it runs.
    inflight: Mutex<HashMap<Tag, u64>>,
    sink: Mutex<Box<dyn MsgSink>>,
    /// [`serve`]'s workers with no operation to run and none coming.
    idle: AtomicUsize,
}

impl ServerShared {
    fn reply(&self, tag: Tag, r: &Rmsg) {
        let buf = encode_rmsg(tag, r);
        let _ = self.sink.lock().sendmsg(&buf);
    }

    /// Runs one file operation and hands the reply (errors are replies
    /// too) to `answer`, all under the request's `serve` span when the
    /// run is traced.
    fn perform(&self, t: &Tmsg, root: Option<TraceHandle>, answer: impl FnOnce(&Rmsg)) {
        let run = || handle(self, t).unwrap_or_else(|e| Rmsg::Error { ename: e.0 });
        let Some(h) = root else { return answer(&run()) };
        let _cur = h.set_current();
        let h0 = time::now();
        let r = run();
        h.span(Facility::NineP, "handle", h0, time::now());
        answer(&r);
        h.finish();
    }

    /// Whether the operation can be run where its message was read: a
    /// read, write, stat or clunk of a file that is data at hand. A fid
    /// nobody holds is an error at hand.
    fn cannot_block(&self, t: &Tmsg) -> bool {
        let (Tmsg::Read { fid, .. }
        | Tmsg::Write { fid, .. }
        | Tmsg::Stat { fid }
        | Tmsg::Clunk { fid }) = t
        else {
            return false;
        };
        get_node(self, *fid).map_or(true, |node| !self.fs.may_block(&node))
    }

    /// Answers a worker's operation, unless it was flushed while it ran
    /// (§ Tflush semantics). The sink is taken first: a Tflush that
    /// comes too late to stop the reply then cannot have its Rflush
    /// overtake it.
    fn finish(&self, op: &Op, r: &Rmsg) {
        let buf = encode_rmsg(op.tag, r);
        let mut sink = self.sink.lock();
        let mut inflight = self.inflight.lock();
        let live = inflight.get(&op.tag) == Some(&op.serial);
        if live {
            inflight.remove(&op.tag);
        }
        drop(inflight);
        if live {
            let _ = sink.sendmsg(&buf);
        }
    }
}

/// Serves `fs` over the given transport until the peer hangs up.
///
/// Blocks the calling thread; most callers run it in a dedicated thread.
pub fn serve(
    fs: Arc<dyn ProcFs>,
    source: Box<dyn MsgSource>,
    sink: Box<dyn MsgSink>,
) -> Result<()> {
    serve_on(&NineService::new(fs, sink), source)
}

/// [`serve`]'s reader loop, apart so that a test can watch the service.
fn serve_on(svc: &NineService, mut source: Box<dyn MsgSource>) -> Result<()> {
    let shared = &svc.shared;
    // One job channel feeds every worker. The reader takes a worker
    // off the idle count *before* it sends, so every job in the channel
    // has a worker that will come for it.
    let (jobs, job_rx) = unbounded::<(Op, Option<TraceHandle>)>();
    let mut workers = Vec::new();
    // Operations handed to a worker so far; the next one's serial.
    let mut started = 0u64;
    // A closure, so that `?` leaves the loop and not the hangup below.
    let mut read = || -> Result<()> {
        loop {
            let Some(raw) = source.recvmsg()? else { return Ok(()) };
            let Some((tag, t)) = svc.dispatch(&raw)? else { continue };
            // The server opens its own root span per request: the reply
            // direction (including its IL sends and rexmits) has no client
            // handle to inherit across the wire, so it is attributed to
            // this `serve` root instead.
            let tracer = trace::global();
            let root = if tracer.enabled() {
                tracer.begin(&format!("serve {:?} tag {tag}", t.msg_type()))
            } else {
                None
            };
            // Data at hand is answered here, by the thread that already
            // holds the message: a served RPC is one job.
            if shared.cannot_block(&t) {
                shared.perform(&t, root, |r| shared.reply(tag, r));
                continue;
            }
            // Anything else may block (a `listen` file does until a call
            // arrives), so each one in progress holds a worker; a worker is
            // made only when none is idle, and kept. Only this loop takes
            // from the count, so it cannot fall between the two lines.
            shared.inflight.lock().insert(tag, started);
            let op = Op { tag, serial: started, t };
            started += 1;
            if shared.idle.load(Ordering::SeqCst) > 0 {
                shared.idle.fetch_sub(1, Ordering::SeqCst);
            } else {
                let (shared, job_rx) = (Arc::clone(shared), job_rx.clone());
                let worker = vtime::kproc("9p-worker", move || {
                    while let Ok((op, root)) = job_rx.recv() {
                        shared.perform(&op.t, root, |r| {
                            // Idle before the reply is out: a peer that
                            // waits for one answer before it asks again
                            // then finds this worker, and none is made.
                            shared.idle.fetch_add(1, Ordering::SeqCst);
                            shared.finish(&op, r);
                        });
                    }
                })
                // checked: spawn fails only on OS thread exhaustion
                .expect("spawn 9p worker");
                workers.push(worker);
            }
            // Cannot fail: this loop's own `job_rx` keeps the channel open.
            let _ = jobs.send((op, root));
        }
    };
    let res = read();
    // Hangup, on every path: the closed channel ends each worker once
    // its operation is done. Kproc joins are virtual events (each parks
    // on the clock until the worker signals completion), so no census
    // escape is needed.
    drop(jobs);
    for w in workers {
        let _ = w.join();
    }
    svc.hangup();
    res
}

/// One connection's 9P server state: the fid table, the operations in
/// flight and the reply sink.
///
/// Feed it each raw T-message with [`NineService::input`] (typically
/// from a transport readiness callback running on a worker-pool shard)
/// and it answers before returning, with no thread of its own. The
/// trade is that the [`ProcFs`] behind it must not block — a `MemFs`
/// or any data-at-hand filesystem qualifies; a `listen` file does not,
/// and wants [`serve`].
pub struct NineService {
    shared: Arc<ServerShared>,
}

impl NineService {
    /// Wraps `fs` for service, replying on `sink`.
    pub fn new(fs: Arc<dyn ProcFs>, sink: Box<dyn MsgSink>) -> NineService {
        NineService {
            shared: Arc::new(ServerShared {
                fs,
                fids: Mutex::named(HashMap::new(), "ninep.server.fids"),
                inflight: Mutex::named(HashMap::new(), "ninep.server.inflight"),
                sink: Mutex::named(sink, "ninep.server.sink"),
                idle: AtomicUsize::new(0),
            }),
        }
    }

    /// Processes one raw T-message inline and writes the reply.
    /// Returns an error on a malformed message, which poisons the
    /// link: the caller should hang up, as the kernel does.
    pub fn input(&self, raw: &[u8]) -> Result<()> {
        if let Some((tag, t)) = self.dispatch(raw)? {
            self.shared.perform(&t, None, |r| self.shared.reply(tag, r));
        }
        Ok(())
    }

    /// The one dispatch: answers the cheap control messages itself and
    /// hands back a file operation for the caller to run where it sees
    /// fit.
    fn dispatch(&self, raw: &[u8]) -> Result<Option<(Tag, Tmsg)>> {
        let shared = &self.shared;
        let Ok((tag, t)) = decode_tmsg(raw) else {
            // A malformed message poisons the link; hang up, as the
            // kernel does.
            cleanup(shared);
            return Err(NineError::new(errstr::EBADMSG));
        };
        match t {
            Tmsg::Nop => shared.reply(tag, &Rmsg::Nop),
            Tmsg::Osession { .. } => shared.reply(
                tag,
                &Rmsg::Error {
                    ename: errstr::EOBSOLETE.to_string(),
                },
            ),
            Tmsg::Session { .. } => {
                // A session resets the fid space.
                cleanup(shared);
                shared.reply(
                    tag,
                    &Rmsg::Session {
                        chal: [0u8; CHAL_LEN],
                        authid: "bootes".to_string(),
                        authdom: "plan9.sim".to_string(),
                    },
                );
            }
            Tmsg::Flush { old_tag } => {
                // Only an operation still running on a worker can be
                // flushed.
                shared.inflight.lock().remove(&old_tag);
                shared.reply(tag, &Rmsg::Flush);
            }
            t => return Ok(Some((tag, t))),
        }
        Ok(None)
    }

    /// Connection teardown: clunks every live fid.
    pub fn hangup(&self) {
        cleanup(&self.shared);
    }
}

fn cleanup(shared: &ServerShared) {
    let old: Vec<FidState> = {
        let mut fids = shared.fids.lock();
        fids.drain().map(|(_, s)| s).collect()
    };
    for s in old {
        shared.fs.clunk(&s.node);
    }
}

fn get_node(shared: &ServerShared, fid: Fid) -> Result<ServeNode> {
    let fids = shared.fids.lock();
    fids.get(&fid)
        .map(|s| s.node)
        .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))
}

fn get_open_node(shared: &ServerShared, fid: Fid) -> Result<ServeNode> {
    let fids = shared.fids.lock();
    match fids.get(&fid) {
        Some(s) if s.open => Ok(s.node),
        Some(_) => Err(NineError::new(errstr::ENOTOPEN)),
        None => Err(NineError::new(errstr::EUNKNOWNFID)),
    }
}

fn handle(shared: &ServerShared, t: &Tmsg) -> Result<Rmsg> {
    let fs = &shared.fs;
    match t {
        Tmsg::Attach {
            fid, uname, aname, ..
        } => {
            {
                let fids = shared.fids.lock();
                if fids.contains_key(fid) {
                    return Err(NineError::new(errstr::EFIDINUSE));
                }
            }
            let node = fs.attach(uname, aname)?;
            let qid = node.qid;
            shared
                .fids
                .lock()
                .insert(*fid, FidState { node, open: false });
            Ok(Rmsg::Attach { fid: *fid, qid })
        }
        Tmsg::Clone { fid, new_fid } => {
            let node = get_node(shared, *fid)?;
            {
                let fids = shared.fids.lock();
                if fids.contains_key(new_fid) {
                    return Err(NineError::new(errstr::EFIDINUSE));
                }
            }
            let node = fs.clone_node(&node)?;
            shared
                .fids
                .lock()
                .insert(*new_fid, FidState { node, open: false });
            Ok(Rmsg::Clone { fid: *fid })
        }
        Tmsg::Walk { fid, name } => {
            let node = get_node(shared, *fid)?;
            let next = fs.walk(&node, name)?;
            let qid = next.qid;
            if let Some(s) = shared.fids.lock().get_mut(fid) {
                s.node = next;
            }
            Ok(Rmsg::Walk { fid: *fid, qid })
        }
        Tmsg::Clwalk { fid, new_fid, name } => {
            let node = get_node(shared, *fid)?;
            {
                let fids = shared.fids.lock();
                if fids.contains_key(new_fid) {
                    return Err(NineError::new(errstr::EFIDINUSE));
                }
            }
            let cloned = fs.clone_node(&node)?;
            match fs.walk(&cloned, name) {
                Ok(next) => {
                    let qid = next.qid;
                    if next.handle != cloned.handle {
                        fs.clunk(&cloned);
                    }
                    shared.fids.lock().insert(
                        *new_fid,
                        FidState {
                            node: next,
                            open: false,
                        },
                    );
                    Ok(Rmsg::Clwalk { fid: *fid, qid })
                }
                Err(e) => {
                    // On failure the new fid is not allocated.
                    fs.clunk(&cloned);
                    Err(e)
                }
            }
        }
        Tmsg::Open { fid, mode } => {
            let node = {
                let fids = shared.fids.lock();
                match fids.get(fid) {
                    Some(s) if s.open => return Err(NineError::new(errstr::EISOPEN)),
                    Some(s) => s.node,
                    None => return Err(NineError::new(errstr::EUNKNOWNFID)),
                }
            };
            let opened = fs.open(&node, OpenMode(*mode))?;
            let qid = opened.qid;
            if let Some(s) = shared.fids.lock().get_mut(fid) {
                s.node = opened;
                s.open = true;
            }
            Ok(Rmsg::Open { fid: *fid, qid })
        }
        Tmsg::Create {
            fid,
            name,
            perm,
            mode,
        } => {
            let node = get_node(shared, *fid)?;
            let created = fs.create(&node, name, *perm, OpenMode(*mode))?;
            let qid = created.qid;
            if created.handle != node.handle {
                fs.clunk(&node);
            }
            if let Some(s) = shared.fids.lock().get_mut(fid) {
                s.node = created;
                s.open = true;
            }
            Ok(Rmsg::Create { fid: *fid, qid })
        }
        Tmsg::Read { fid, offset, count } => {
            let node = get_open_node(shared, *fid)?;
            let count = (*count as usize).min(MAX_FDATA);
            let data = fs.read(&node, *offset, count)?;
            Ok(Rmsg::Read { fid: *fid, data })
        }
        Tmsg::Write { fid, offset, data } => {
            let node = get_open_node(shared, *fid)?;
            let n = fs.write(&node, *offset, data)?;
            Ok(Rmsg::Write {
                fid: *fid,
                count: n as u16,
            })
        }
        Tmsg::Clunk { fid } => {
            let state = shared
                .fids
                .lock()
                .remove(fid)
                .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))?;
            fs.clunk(&state.node);
            Ok(Rmsg::Clunk { fid: *fid })
        }
        Tmsg::Remove { fid } => {
            let state = shared
                .fids
                .lock()
                .remove(fid)
                .ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))?;
            // Remove always clunks, even on failure.
            let res = fs.remove(&state.node);
            res?;
            Ok(Rmsg::Remove { fid: *fid })
        }
        Tmsg::Stat { fid } => {
            let node = get_node(shared, *fid)?;
            let stat = fs.stat(&node)?;
            Ok(Rmsg::Stat { fid: *fid, stat })
        }
        Tmsg::Wstat { fid, stat } => {
            let node = get_node(shared, *fid)?;
            fs.wstat(&node, stat)?;
            Ok(Rmsg::Wstat { fid: *fid })
        }
        // Inline-handled messages never reach here.
        Tmsg::Nop | Tmsg::Osession { .. } | Tmsg::Session { .. } | Tmsg::Flush { .. } => {
            Err(NineError::new(errstr::EBADMSG))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::{decode_rmsg, encode_tmsg};
    use crate::procfs::MemFs;
    use crate::transport::MsgPipeEnd;
    use plan9_support::sync::Condvar;
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::thread::{JoinHandle, ThreadId};

    fn start_server(fs: Arc<dyn ProcFs>) -> MsgPipeEnd {
        let (client_end, server_end) = MsgPipeEnd::pair();
        let (ssink, ssource) = server_end.split();
        std::thread::spawn(move || {
            let _ = serve(fs, Box::new(ssource), Box::new(ssink));
        });
        client_end
    }

    fn rpc(end: &mut MsgPipeEnd, tag: Tag, t: &Tmsg) -> Rmsg {
        end.sendmsg(&encode_tmsg(tag, t)).unwrap();
        let raw = end.recvmsg().unwrap().unwrap();
        let (rtag, r) = decode_rmsg(&raw).unwrap();
        assert_eq!(rtag, tag);
        r
    }

    /// Counts a thread out as it exits.
    struct ExitNote(Arc<AtomicUsize>);

    impl Drop for ExitNote {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_NOTE: RefCell<Option<ExitNote>> = const { RefCell::new(None) };
    }

    #[derive(Default)]
    struct GateState {
        parked: usize,
        permits: usize,
        /// Each read so far: whether of `/gate`, and the thread it ran on.
        reads: Vec<(bool, ThreadId)>,
    }

    /// A `MemFs` holding `/f` ("data") and `/gate` ("late"). A read of
    /// `/gate` blocks, as a read of a `listen` file does, until the
    /// test lets one through, and `/gate` alone is declared as a file
    /// that may block; every read notes the thread it ran on.
    pub(crate) struct GateFs {
        mem: Arc<MemFs>,
        state: Mutex<GateState>,
        changed: Condvar,
        exited: Arc<AtomicUsize>,
    }

    impl GateFs {
        pub(crate) fn new() -> Arc<GateFs> {
            let mem = MemFs::new("ram", "bootes");
            mem.put_file("/f", b"data").unwrap();
            mem.put_file("/gate", b"late").unwrap();
            Arc::new(GateFs {
                mem,
                state: Mutex::new(GateState::default()),
                changed: Condvar::new(),
                exited: Arc::new(AtomicUsize::new(0)),
            })
        }

        /// Returns once `n` reads are blocked on the gate.
        pub(crate) fn wait_parked(&self, n: usize) {
            let mut st = self.state.lock();
            while st.parked != n {
                self.changed.wait(&mut st);
            }
        }

        /// Lets one read of `/gate` through.
        pub(crate) fn release(&self) {
            self.state.lock().permits += 1;
            self.changed.notify_all();
        }

        /// The threads that have run a read of `/gate`, or of `/f`.
        fn threads(&self, gate: bool) -> HashSet<ThreadId> {
            let st = self.state.lock();
            st.reads.iter().filter(|r| r.0 == gate).map(|r| r.1).collect()
        }

        /// How many of the threads that ran a read have exited.
        fn exited(&self) -> usize {
            self.exited.load(Ordering::SeqCst)
        }
    }

    impl ProcFs for GateFs {
        fn fsname(&self) -> String {
            self.mem.fsname()
        }
        fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
            self.mem.attach(uname, aname)
        }
        fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
            self.mem.clone_node(n)
        }
        fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
            self.mem.walk(n, name)
        }
        fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
            self.mem.open(n, mode)
        }
        fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
            let gate = self.mem.stat(n)?.name == "gate";
            EXIT_NOTE.with(|note| {
                let mut note = note.borrow_mut();
                note.get_or_insert_with(|| ExitNote(Arc::clone(&self.exited)));
            });
            let mut st = self.state.lock();
            st.reads.push((gate, std::thread::current().id()));
            if gate {
                st.parked += 1;
                self.changed.notify_all();
                while st.permits == 0 {
                    self.changed.wait(&mut st);
                }
                st.permits -= 1;
                st.parked -= 1;
                self.changed.notify_all();
            }
            drop(st);
            self.mem.read(n, offset, count)
        }
        fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
            self.mem.write(n, offset, data)
        }
        fn clunk(&self, n: &ServeNode) {
            self.mem.clunk(n)
        }
        fn stat(&self, n: &ServeNode) -> Result<crate::Dir> {
            self.mem.stat(n)
        }
        fn may_block(&self, n: &ServeNode) -> bool {
            self.mem.stat(n).map_or(true, |d| d.name == "gate")
        }
    }

    const GATE: Fid = 0;
    const F: Fid = 1;

    /// `serve_on` over a `GateFs`, with [`GATE`] and [`F`] open on its
    /// two files.
    struct Served {
        fs: Arc<GateFs>,
        svc: Arc<NineService>,
        end: MsgPipeEnd,
        server: JoinHandle<Result<()>>,
    }

    impl Served {
        fn start() -> Served {
            let fs = GateFs::new();
            let (end, server_end) = MsgPipeEnd::pair();
            let (ssink, ssource) = server_end.split();
            let svc = Arc::new(NineService::new(fs.clone(), Box::new(ssink)));
            let svc2 = Arc::clone(&svc);
            let server = std::thread::spawn(move || serve_on(&svc2, Box::new(ssource)));
            let mut s = Served { fs, svc, end, server };
            let attach = Tmsg::Attach {
                fid: GATE,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            };
            assert!(matches!(s.rpc(1, &attach), Rmsg::Attach { .. }));
            let clone = Tmsg::Clone { fid: GATE, new_fid: F };
            assert!(matches!(s.rpc(1, &clone), Rmsg::Clone { .. }));
            for (fid, name) in [(GATE, "gate"), (F, "f")] {
                let name = name.to_string();
                assert!(matches!(s.rpc(1, &Tmsg::Walk { fid, name }), Rmsg::Walk { .. }));
                assert!(matches!(s.rpc(1, &Tmsg::Open { fid, mode: 0 }), Rmsg::Open { .. }));
            }
            s
        }

        fn rpc(&mut self, tag: Tag, t: &Tmsg) -> Rmsg {
            rpc(&mut self.end, tag, t)
        }

        /// Reads `fid` under `tag` and returns the data.
        fn read(&mut self, tag: Tag, fid: Fid) -> Vec<u8> {
            match self.rpc(tag, &Self::tread(fid, 0)) {
                Rmsg::Read { data, .. } => data,
                other => panic!("got {other:?}"),
            }
        }

        fn tread(fid: Fid, offset: u64) -> Tmsg {
            Tmsg::Read {
                fid,
                offset,
                count: 8,
            }
        }

        /// Sends a read of the gate under `tag` and returns once its
        /// worker is blocked in it.
        fn park(&mut self, tag: Tag) {
            self.end.sendmsg(&encode_tmsg(tag, &Self::tread(GATE, 0))).unwrap();
            self.fs.wait_parked(1);
        }

        /// Returns once `n` workers are idle.
        fn wait_idle(&self, n: usize) {
            while self.svc.shared.idle.load(Ordering::SeqCst) != n {
                std::thread::yield_now();
            }
        }

        /// The thread `serve_on` reads the transport on.
        fn reader(&self) -> HashSet<ThreadId> {
            HashSet::from([self.server.thread().id()])
        }

        /// Hangs up, waits for `serve_on` to return and hands back what
        /// the server had still sent. No worker is left: each holds the
        /// service's state while it lives.
        fn hangup(self) -> Vec<Vec<u8>> {
            let (sink, mut source) = self.end.split();
            drop(sink);
            assert!(self.server.join().unwrap().is_ok());
            assert_eq!(Arc::strong_count(&self.svc.shared), 1);
            drop(self.svc);
            std::iter::from_fn(|| source.recvmsg().unwrap()).collect()
        }
    }

    #[test]
    fn reads_of_data_at_hand_run_on_the_reader_and_make_no_worker() {
        let mut s = Served::start();
        for _ in 0..1000 {
            assert_eq!(s.read(2, F), b"data");
        }
        assert_eq!(s.fs.threads(false), s.reader());
        // The one worker is the one that ran the walks and the opens.
        assert_eq!(s.svc.shared.idle.load(Ordering::SeqCst), 1);
        assert!(s.svc.shared.inflight.lock().is_empty());
        let fs = Arc::clone(&s.fs);
        assert!(s.hangup().is_empty());
        assert_eq!(fs.exited(), 1);
    }

    #[test]
    fn a_read_that_may_block_takes_a_worker_and_delays_nothing() {
        let mut s = Served::start();
        s.park(100);
        // Each of these is answered while the gate is shut, by the
        // reader itself: none waits for the blocked read.
        for _ in 0..100 {
            assert_eq!(s.read(2, F), b"data");
        }
        let (blocked, others) = (s.fs.threads(true), s.fs.threads(false));
        assert_eq!(blocked.len(), 1);
        assert_eq!(others, s.reader());
        assert!(blocked.is_disjoint(&others));
        s.fs.release();
        let (tag, r) = decode_rmsg(&s.end.recvmsg().unwrap().unwrap()).unwrap();
        assert_eq!(tag, 100);
        assert!(matches!(r, Rmsg::Read { data, .. } if data == b"late"));
    }

    #[test]
    fn hangup_joins_every_worker() {
        let mut s = Served::start();
        s.park(100);
        for _ in 0..100 {
            assert_eq!(s.read(2, F), b"data");
        }
        // The peer goes with a read still blocked: `serve` returns only
        // when that worker has finished too.
        drop(s.end);
        s.fs.release();
        assert!(s.server.join().unwrap().is_ok());
        assert_eq!(s.fs.threads(true).union(&s.fs.threads(false)).count(), 2);
        assert_eq!(s.fs.exited(), 2);
        assert_eq!(Arc::strong_count(&s.svc.shared), 1);
    }

    #[test]
    fn a_malformed_message_leaves_no_worker_behind() {
        let mut s = Served::start();
        s.fs.release();
        assert_eq!(s.read(2, GATE), b"late");
        s.end.sendmsg(&[0xff, 0xff, 0xff]).unwrap();
        let err = s.server.join().unwrap().unwrap_err();
        assert_eq!(err.0, errstr::EBADMSG);
        assert_eq!(s.fs.exited(), 1);
        assert_eq!(Arc::strong_count(&s.svc.shared), 1);
    }

    #[test]
    fn flushing_a_blocked_read_frees_its_tag_and_its_worker() {
        let mut s = Served::start();
        s.park(7);
        assert!(matches!(s.rpc(8, &Tmsg::Flush { old_tag: 7 }), Rmsg::Flush));
        // Tag 7 is free from the Rflush on, though the flushed read is
        // still running: this answer is the new request's.
        assert_eq!(s.read(7, F), b"data");
        s.fs.release();
        // The flushed read's worker goes back to the idle count, so the
        // next operation that may block makes no second.
        s.wait_idle(1);
        s.fs.release();
        assert_eq!(s.read(9, GATE), b"late");
        assert_eq!(s.fs.threads(true).len(), 1);
        // Hang up and let `serve` join the workers: the late reply was
        // never sent.
        assert!(s.hangup().is_empty());
    }

    /// What the tag-space model expects of the server.
    struct TagModel {
        s: Served,
        /// Unflushed, unanswered operations: the bytes each is owed.
        live: HashMap<Tag, Vec<u8>>,
        /// Reads inside the gate, flushed ones among them.
        parked: usize,
        /// The offset of each tag's last read, so that the next read
        /// under the tag is owed other bytes.
        last: HashMap<Tag, u64>,
    }

    /// A reply belongs to the live operation on its tag.
    fn settle(live: &mut HashMap<Tag, Vec<u8>>, raw: &[u8]) -> Tag {
        let (tag, r) = decode_rmsg(raw).unwrap();
        if let Rmsg::Read { data, .. } = r {
            assert_eq!(Some(data), live.remove(&tag), "reply under tag {tag}");
        }
        tag
    }

    impl TagModel {
        /// Takes replies until the one under `tag`.
        fn await_tag(&mut self, tag: Tag) {
            while settle(&mut self.live, &self.s.end.recvmsg().unwrap().unwrap()) != tag {}
        }

        fn read(&mut self, tag: Tag, gate: bool) {
            let (fid, contents) = if gate { (GATE, b"late") } else { (F, b"data") };
            let offset = self.last.get(&tag).map_or(0, |o| o + 1) % 4;
            self.last.insert(tag, offset);
            self.live.insert(tag, contents[offset as usize..].to_vec());
            self.s.end.sendmsg(&encode_tmsg(tag, &Served::tread(fid, offset))).unwrap();
            if gate {
                self.parked += 1;
                self.s.fs.wait_parked(self.parked);
            } else {
                self.await_tag(tag);
            }
        }

        fn flush(&mut self, tag: Tag, old_tag: Tag) {
            self.s.end.sendmsg(&encode_tmsg(tag, &Tmsg::Flush { old_tag })).unwrap();
            self.await_tag(tag);
            // Unanswered by now, the old operation never will be.
            self.live.remove(&old_tag);
        }

        fn release(&mut self, n: usize) {
            for _ in 0..n {
                self.s.fs.release();
            }
            self.parked -= n;
            self.s.fs.wait_parked(self.parked);
        }
    }

    plan9_support::props! {
        /// The server's tag space against a sequential model, over a
        /// few tags so that they are reused: reads that run on the
        /// reader, reads that park on a worker, flushes of live,
        /// answered and never-used tags, a tag used again straight
        /// after its Rflush, and gate releases. Every unflushed
        /// operation is answered once with its own bytes, nothing
        /// follows an Rflush under the flushed operation's tag but the
        /// next operation's reply, and no worker outlives `serve`.
        fn prop_tag_space_matches_sequential_model(g, cases = 60) {
            let mut m = TagModel {
                s: Served::start(),
                live: HashMap::new(),
                parked: 0,
                last: HashMap::new(),
            };
            for _ in 0..g.usize_in(0..40) {
                let tag = g.u16_in(0..6);
                let free = !m.live.contains_key(&tag);
                match g.usize_in(0..4) {
                    0 | 1 if free => m.read(tag, g.bool()),
                    2 if free => {
                        let old_tag = g.u16_in(0..8);
                        let was_live = m.live.contains_key(&old_tag);
                        m.flush(tag, old_tag);
                        if was_live && g.bool() {
                            m.read(old_tag, g.bool());
                        }
                    }
                    _ if m.parked > 0 => m.release(1),
                    _ => {}
                }
            }
            m.release(m.parked);
            let TagModel { s, mut live, .. } = m;
            for raw in s.hangup() {
                settle(&mut live, &raw);
            }
            assert!(live.is_empty(), "never answered: {live:?}");
        }
    }

    #[test]
    fn attach_walk_read() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/greet", b"hello").unwrap();
        let mut c = start_server(fs);
        let r = rpc(
            &mut c,
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        assert!(matches!(r, Rmsg::Attach { .. }), "got {r:?}");
        let r = rpc(
            &mut c,
            2,
            &Tmsg::Walk {
                fid: 0,
                name: "greet".into(),
            },
        );
        assert!(matches!(r, Rmsg::Walk { .. }), "got {r:?}");
        let r = rpc(&mut c, 3, &Tmsg::Open { fid: 0, mode: 0 });
        assert!(matches!(r, Rmsg::Open { .. }), "got {r:?}");
        let r = rpc(
            &mut c,
            4,
            &Tmsg::Read {
                fid: 0,
                offset: 0,
                count: 100,
            },
        );
        match r {
            Rmsg::Read { data, .. } => assert_eq!(data, b"hello"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn nine_service_dispatches_inline_without_threads() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/greet", b"hello").unwrap();
        let (mut client, server_end) = MsgPipeEnd::pair();
        let (ssink, mut ssource) = server_end.split();
        let svc = NineService::new(fs, Box::new(ssink));
        let mut rpc = |tag: Tag, t: &Tmsg| -> Rmsg {
            client.sendmsg(&encode_tmsg(tag, t)).unwrap();
            let raw = ssource.recvmsg().unwrap().unwrap();
            svc.input(&raw).unwrap();
            let (rtag, r) = decode_rmsg(&client.recvmsg().unwrap().unwrap()).unwrap();
            assert_eq!(rtag, tag);
            r
        };
        let r = rpc(
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        assert!(matches!(r, Rmsg::Attach { .. }), "got {r:?}");
        let r = rpc(
            2,
            &Tmsg::Walk {
                fid: 0,
                name: "greet".into(),
            },
        );
        assert!(matches!(r, Rmsg::Walk { .. }), "got {r:?}");
        let r = rpc(3, &Tmsg::Open { fid: 0, mode: 0 });
        assert!(matches!(r, Rmsg::Open { .. }), "got {r:?}");
        match rpc(
            4,
            &Tmsg::Read {
                fid: 0,
                offset: 0,
                count: 100,
            },
        ) {
            Rmsg::Read { data, .. } => assert_eq!(data, b"hello"),
            other => panic!("got {other:?}"),
        }
        svc.hangup();
        // Malformed input poisons the link.
        assert!(svc.input(&[0xff, 0xff, 0xff]).is_err());
    }

    #[test]
    fn flushing_an_answered_tag_leaves_it_reusable() {
        let fs = MemFs::new("ram", "bootes");
        let mut c = start_server(fs);
        let attach = |fid| Tmsg::Attach {
            fid,
            uname: "u".into(),
            aname: "".into(),
            ticket: vec![],
        };
        assert!(matches!(rpc(&mut c, 1, &attach(0)), Rmsg::Attach { .. }));
        // Tag 1 has been answered: the flush must not mark it, or the
        // next request to carry tag 1 would lose its reply.
        assert!(matches!(rpc(&mut c, 2, &Tmsg::Flush { old_tag: 1 }), Rmsg::Flush));
        assert!(matches!(rpc(&mut c, 1, &attach(1)), Rmsg::Attach { .. }));
    }

    #[test]
    fn errors_are_strings() {
        let fs = MemFs::new("ram", "bootes");
        let mut c = start_server(fs);
        rpc(
            &mut c,
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        let r = rpc(
            &mut c,
            2,
            &Tmsg::Walk {
                fid: 0,
                name: "nope".into(),
            },
        );
        match r {
            Rmsg::Error { ename } => assert_eq!(ename, errstr::ENOTEXIST),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn read_requires_open() {
        let fs = MemFs::new("ram", "bootes");
        fs.put_file("/f", b"x").unwrap();
        let mut c = start_server(fs);
        rpc(
            &mut c,
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        rpc(
            &mut c,
            2,
            &Tmsg::Walk {
                fid: 0,
                name: "f".into(),
            },
        );
        let r = rpc(
            &mut c,
            3,
            &Tmsg::Read {
                fid: 0,
                offset: 0,
                count: 1,
            },
        );
        assert!(matches!(r, Rmsg::Error { .. }));
    }

    #[test]
    fn clwalk_failure_leaves_newfid_unallocated() {
        let fs = MemFs::new("ram", "bootes");
        let mut c = start_server(fs);
        rpc(
            &mut c,
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        let r = rpc(
            &mut c,
            2,
            &Tmsg::Clwalk {
                fid: 0,
                new_fid: 1,
                name: "missing".into(),
            },
        );
        assert!(matches!(r, Rmsg::Error { .. }));
        // new_fid must now be free for reuse.
        let r = rpc(&mut c, 3, &Tmsg::Clone { fid: 0, new_fid: 1 });
        assert!(matches!(r, Rmsg::Clone { .. }), "got {r:?}");
    }

    #[test]
    fn fid_in_use_rejected() {
        let fs = MemFs::new("ram", "bootes");
        let mut c = start_server(fs);
        rpc(
            &mut c,
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        let r = rpc(
            &mut c,
            2,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        assert!(matches!(r, Rmsg::Error { .. }));
    }

    #[test]
    fn session_resets_fids() {
        let fs = MemFs::new("ram", "bootes");
        let mut c = start_server(fs);
        rpc(
            &mut c,
            1,
            &Tmsg::Attach {
                fid: 0,
                uname: "u".into(),
                aname: "".into(),
                ticket: vec![],
            },
        );
        let r = rpc(&mut c, 2, &Tmsg::Session { chal: [0; 8] });
        assert!(matches!(r, Rmsg::Session { .. }));
        // Fid 0 is gone after session.
        let r = rpc(&mut c, 3, &Tmsg::Clunk { fid: 0 });
        assert!(matches!(r, Rmsg::Error { .. }));
    }
}
