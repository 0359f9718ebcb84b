//! The RPC side of a 9P file server.
//!
//! A [`NineService`] applies T-messages to a [`ProcFs`] and writes
//! R-messages back. This is the glue that lets a kernel-resident device
//! (procedural 9P) be exported to a remote machine (RPC 9P) — the
//! reverse of the mount driver. There is one way to run a file
//! operation under it, and two ways to feed it:
//!
//! * [`NineService::input`] places every T-message. The paper gives
//!   `exportfs` slave processes (§6.1) because `open`, `read` and
//!   `write` *may* block — a `listen` file blocks until a call arrives
//!   — not because every operation does. So `input` asks the file
//!   server ([`ProcFs::may_block`]) about the file each fid comes
//!   to, and goes by that for the operations that name the fid: an
//!   operation on data at hand runs and is answered on the
//!   calling thread, in the context that already holds the message;
//!   any other goes to a worker kproc — an idle one if there is one, a
//!   new one if not, all of them kept until the hangup — and replies
//!   go onto the transport one at a time, each sent by the thread that
//!   made it.
//! * [`serve`] feeds it from a thread that reads a transport until the
//!   peer hangs up, then hangs up and joins the workers. A readiness
//!   callback on a worker-pool shard ([`serve_on_shard`], for every
//!   transport of the machine's own: IL, TCP, URP and the pipe, each
//!   through the [`Served`] trait) feeds it with no thread at all: a
//!   request is served by whoever delivers it, and a `MemFs` served
//!   that way never makes a worker, so its conversations can be counted
//!   in tens of thousands. A server with workers to wait for — exportfs
//!   — parks its process in [`NineService::wait`] instead of in the
//!   transport.

use crate::codec::{decode_tmsg, encode_rmsg};
use crate::fcall::{Fid, Rmsg, Tag, Tmsg, CHAL_LEN, MAX_FDATA};
use crate::procfs::{OpenMode, ProcFs, ServeNode};
use crate::transport::{MsgSink, MsgSource, SinkSlot};
use crate::{errstr, NineError, Result};
use plan9_netlog::trace::{self, TraceHandle};
use plan9_netlog::Facility;
use plan9_support::chan::{unbounded, Receiver, Sender};
use plan9_support::fnv::FnvMap;
use plan9_support::pool;
use plan9_support::sync::{self, Condvar, Mutex};
use plan9_support::vtime::{self, KprocHandle};
use plan9_support::time;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

#[derive(Clone, Copy)]
struct FidState {
    node: ServeNode,
    open: bool,
    /// What the file server said of the node when the fid came to it
    /// ([`ProcFs::may_block`]): asked once a move, not once a message.
    blocks: bool,
}

/// A fid's state as one lookup found it: placement and the operation
/// itself go by the same one.
type Held = Option<FidState>;

/// A file operation that may block, marked in flight for a worker, and
/// the `serve` span it runs under.
struct Op {
    tag: Tag,
    serial: u64,
    t: Tmsg,
    root: Option<TraceHandle>,
}

/// The worker kprocs and the one job channel that feeds them all.
struct Workers {
    /// `None` from the hangup on: each worker ends once its operation
    /// is done.
    jobs: Option<Sender<Op>>,
    job_rx: Receiver<Op>,
    handles: Vec<KprocHandle<()>>,
    /// Operations handed to a worker so far; the next one's serial.
    started: u64,
    /// A thread is parked in [`NineService::wait`]: the hangup's clunks
    /// are left to it, which can afford one that waits.
    waiter: bool,
}

struct ServerShared {
    fs: Arc<dyn ProcFs>,
    fids: Mutex<FnvMap<Fid, FidState>>,
    /// File operations running on workers: each tag's current
    /// operation, by the serial number it was started under. A Tflush
    /// removes the entry, so the operation finds on finishing that the
    /// tag is no longer its own and does not answer, whether or not the
    /// tag has been used again. An answered tag is not in the map, so
    /// flushing it changes nothing; nor is an operation run where its
    /// message was read, since no Tflush can be read while it runs.
    inflight: Mutex<FnvMap<Tag, u64>>,
    sink: SinkSlot,
    workers: Mutex<Workers>,
    /// The job channel has closed.
    hungup: Condvar,
    /// Workers with no operation to run and none coming.
    idle: AtomicUsize,
}

impl ServerShared {
    /// Sends the reply `make` comes back with, if any, having the sink
    /// to itself from before `make` decides until the message is out.
    fn send(&self, make: impl FnOnce() -> Option<Vec<u8>>) {
        // A feed on a pool shard may wait for the sink while it is out:
        // held like a lock, so that no such feed runs on this thread
        // under it (`pool::submit` drains only at `sync::held() == 0`).
        let _out = sync::hold();
        let _ = self.sink.send(make);
    }

    fn reply(&self, tag: Tag, r: &Rmsg) {
        self.send(|| Some(encode_rmsg(tag, r)));
    }

    /// Runs one file operation and hands the reply (errors are replies
    /// too) to `answer`, all under the request's `serve` span when the
    /// run is traced.
    fn perform(&self, t: &Tmsg, held: Held, root: Option<TraceHandle>, answer: impl FnOnce(&Rmsg)) {
        let run = || handle(self, t, held).unwrap_or_else(|e| Rmsg::Error { ename: e.0 });
        let Some(h) = root else { return answer(&run()) };
        let _cur = h.set_current();
        let h0 = time::now();
        let r = run();
        h.span(Facility::NineP, "handle", h0, time::now());
        answer(&r);
        h.finish();
    }

    /// Whether the operation can be run where its message was read: the
    /// file it names is data at hand (an attach names none, so the
    /// server answers for itself; a fid nobody holds is an error at
    /// hand), and the reply can go out at once — a sink with the peer
    /// to wait for is a file that may block.
    fn cannot_block(&self, t: &Tmsg, held: Held) -> bool {
        let at_hand = match (t, held) {
            (Tmsg::Attach { .. }, _) => !self.fs.may_block(None),
            (_, Some(s)) => !s.blocks,
            (_, None) => true,
        };
        at_hand && self.sink.ready(t.reply_bound())
    }

    /// What the fid table holds for the fid the operation names.
    fn held(&self, t: &Tmsg) -> Held {
        t.fid().and_then(|fid| self.fids.lock().get(&fid).copied())
    }

    /// Hands an operation that may block (a `listen` file does until a
    /// call arrives) to a worker: each one in progress holds a worker,
    /// and a worker is made only when none is idle, and kept.
    fn hand_to_worker(self: &Arc<Self>, tag: Tag, t: Tmsg, root: Option<TraceHandle>) {
        // Held throughout: only here is a worker taken off the idle
        // count, *before* the send, so every job in the channel has a
        // worker that will come for it.
        let mut w = self.workers.lock();
        let Some(jobs) = w.jobs.clone() else {
            drop(w);
            return self.reply(tag, &Rmsg::error(errstr::EHUNGUP));
        };
        self.inflight.lock().insert(tag, w.started);
        let op = Op { tag, serial: w.started, t, root };
        w.started += 1;
        if self.idle.load(Ordering::SeqCst) > 0 {
            self.idle.fetch_sub(1, Ordering::SeqCst);
        } else {
            let (shared, job_rx) = (Arc::clone(self), w.job_rx.clone());
            let worker = vtime::kproc("9p-worker", move || {
                while let Ok(mut op) = job_rx.recv() {
                    shared.perform(&op.t, shared.held(&op.t), op.root.take(), |r| {
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
            w.handles.push(worker);
        }
        // Cannot fail: `job_rx` keeps the channel open.
        let _ = jobs.send(op);
    }

    /// Answers a worker's operation, unless it was flushed while it ran
    /// (§ Tflush semantics). The sink is taken first: a Tflush that
    /// comes too late to stop the reply then cannot have its Rflush
    /// overtake it.
    fn finish(&self, op: &Op, r: &Rmsg) {
        self.send(|| {
            // Still this operation's tag: take it back, and answer.
            let mut inflight = self.inflight.lock();
            (inflight.get(&op.tag) == Some(&op.serial)).then(|| {
                inflight.remove(&op.tag);
                encode_rmsg(op.tag, r)
            })
        });
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

/// [`serve`]'s reader loop, apart so that a test can watch the service:
/// the transport into [`NineService::input`], then the hangup, then —
/// this being a thread that can wait — the workers' ends.
fn serve_on(svc: &NineService, mut source: Box<dyn MsgSource>) -> Result<()> {
    // A closure, so that `?` leaves the loop and not the hangup below.
    let res = (|| {
        while let Some(raw) = source.recvmsg()? {
            svc.input(&raw)?;
        }
        Ok(())
    })();
    svc.hangup();
    svc.wait();
    res
}

/// What the feeder needs of a conversation: the interface is 9P's, not
/// the transports'.
pub trait Served: Send + Sync + 'static {
    /// What the feeder keeps of the conversation's input between runs.
    type Held: Default + Send + 'static;
    /// The conversation as its service's reply sink.
    fn sink(self: &Arc<Self>) -> Box<dyn MsgSink>;
    /// The next whole request, if one is at hand; an error at the end of
    /// the conversation.
    fn next<'a>(self: &Arc<Self>, held: &'a mut Self::Held) -> Result<Option<&'a [u8]>>;
    /// The conversation's pool shard key.
    fn conv_id(&self) -> u64;
    /// Registers the hook that input, the end, or room to send fires.
    /// It must be cheap and must not block: it may fire under the
    /// conversation's lock. A conversation has one reader, so a hook
    /// registered after the first is dropped.
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static);
    /// Whether a reply would go out at once. Where that depends on the
    /// reply's length (URP's window counts cells), whether the shortest
    /// would: the sink's [`MsgSink::ready`] judges each reply.
    fn can_send(&self) -> bool;
    /// Hangs the conversation up.
    fn close(self: &Arc<Self>);
}

/// Serves `fs` to the peer of `conn` on the conversation's worker-pool
/// shard: no thread is parked in a read of it; the readiness hook
/// submits a job that feeds what has arrived to a [`NineService`],
/// which runs on the shard what `fs` says is data at hand and gives a
/// kproc to what may block. The caller keeps the returned service for
/// as long as the conversation should be answered.
pub fn serve_on_shard<C: Served>(conn: &Arc<C>, fs: Arc<dyn ProcFs>) -> Arc<NineService> {
    let svc = Arc::new(NineService::new(fs, conn.sink()));
    // Weak both ways: the service's sink holds the conversation, and
    // the conversation holds this hook.
    let (wsvc, wconn) = (Arc::downgrade(&svc), Arc::downgrade(conn));
    // What the feeds keep of the input: they are one shard's, one at a
    // time, so its lock is never waited for.
    let held = Arc::new(Mutex::new(C::Held::default()));
    // One job, submitted again for each arrival and not while it is
    // already queued: a message costs no allocation here.
    let queued = Arc::new(AtomicBool::new(false));
    let (taken, first) = (Arc::clone(&queued), (wsvc.clone(), wconn.clone(), Arc::clone(&held)));
    let job: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        taken.store(false, Ordering::Release);
        drain(&wsvc, &wconn, &mut held.lock());
    });
    let key = conn.conv_id();
    // The hook may fire under the conversation's lock: enqueue only.
    conn.set_rx_notify(move || {
        if !queued.swap(true, Ordering::AcqRel) {
            let _ = pool::submit_shared(key, Arc::clone(&job));
        }
    });
    // Catch what landed before the hook was registered: late rather than
    // lost, and on a worker. Run here, a drain that nearly always finds
    // nothing would reorder the same-instant events of every modelled
    // run that serves a conversation.
    pool::submit_or_run(key, move || drain(&first.0, &first.1, &mut first.2.lock()));
    svc
}

/// Feeds the requests queued on the conversation to its 9P service, one
/// at a time and only while the reply can go out at once: a pool worker
/// parked in a send on a full window, send buffer or pipe would hold up
/// its shard, and if that is the one that delivers what makes room,
/// that too. Room made runs this again.
fn drain<C: Served>(svc: &Weak<NineService>, conn: &Weak<C>, held: &mut C::Held) {
    let (Some(svc), Some(conn)) = (svc.upgrade(), conn.upgrade()) else {
        return;
    };
    while conn.can_send() {
        match conn.next(held) {
            Ok(Some(m)) => {
                // blocking-ok: placed by `may_block` — only data at
                // hand whose reply can go out at once runs here, the
                // rest on a kproc of its own
                if svc.input(m).is_err() {
                    conn.close();
                    return;
                }
            }
            Ok(None) => return,
            Err(_) => {
                // blocking-ok: no worker is waited for here, and the
                // clunks, which are what wake them, are the waiting
                // process's to make if there is one
                svc.hangup();
                return;
            }
        }
    }
}

/// One connection's 9P server state: the fid table, the operations in
/// flight, the workers and the reply sink.
///
/// Feed it each raw T-message with [`NineService::input`] — from a
/// thread that reads the transport ([`serve`]) or from a transport
/// readiness callback running on a worker-pool shard — and it places
/// the operation: one that cannot block is answered before `input`
/// returns, with no thread of its own; one that may is handed to a
/// worker and `input` returns at once. What may block is the file
/// server's to say ([`ProcFs::may_block`]), not the feeder's.
pub struct NineService {
    shared: Arc<ServerShared>,
}

impl NineService {
    /// Wraps `fs` for service, replying on `sink`.
    pub fn new(fs: Arc<dyn ProcFs>, sink: Box<dyn MsgSink>) -> NineService {
        let (jobs, job_rx) = unbounded();
        let workers = Workers {
            jobs: Some(jobs),
            job_rx,
            handles: Vec::new(),
            started: 0,
            waiter: false,
        };
        NineService {
            shared: Arc::new(ServerShared {
                fs,
                fids: Mutex::named(FnvMap::default(), "ninep.server.fids"),
                inflight: Mutex::named(FnvMap::default(), "ninep.server.inflight"),
                sink: SinkSlot::new(sink),
                workers: Mutex::named(workers, "ninep.server.workers"),
                hungup: Condvar::new(),
                idle: AtomicUsize::new(0),
            }),
        }
    }

    /// Processes one raw T-message: the one place a file operation is
    /// placed. Returns an error on a malformed message, which poisons
    /// the link: the service has hung up, as the kernel does, and the
    /// caller should close the transport.
    pub fn input(&self, raw: &[u8]) -> Result<()> {
        let shared = &self.shared;
        let Some((tag, t)) = self.dispatch(raw)? else { return Ok(()) };
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
        let held = shared.held(&t);
        if shared.cannot_block(&t, held) {
            shared.perform(&t, held, root, |r| shared.reply(tag, r));
        } else {
            shared.hand_to_worker(tag, t, root);
        }
        Ok(())
    }

    /// Answers the cheap control messages itself and hands back a file
    /// operation for [`NineService::input`] to place.
    fn dispatch(&self, raw: &[u8]) -> Result<Option<(Tag, Tmsg)>> {
        let shared = &self.shared;
        let Ok((tag, t)) = decode_tmsg(raw) else {
            self.hangup();
            return Err(NineError::new(errstr::EBADMSG));
        };
        match t {
            Tmsg::Nop => shared.reply(tag, &Rmsg::Nop),
            Tmsg::Osession { .. } => shared.reply(tag, &Rmsg::error(errstr::EOBSOLETE)),
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

    /// Connection teardown, in the one order that ends every worker:
    /// the job channel closes, so that a worker ends when its operation
    /// does; then every live fid is clunked, which is what wakes an
    /// operation parked in one's file. Waiting for the workers is for a
    /// caller with a thread of its own ([`serve`]), afterwards.
    pub fn hangup(&self) {
        let waiter = {
            let mut w = self.shared.workers.lock();
            w.jobs = None;
            w.waiter
        };
        self.shared.hungup.notify_all();
        if !waiter {
            cleanup(&self.shared);
        }
    }

    /// Parks until the service hangs up, then finishes the hangup as
    /// [`serve`] does: the clunks, if whoever hung up left them to this
    /// thread, and the workers' ends. For the process whose transport
    /// feeds the service itself ([`ProcFs::serve_nine`]). Kproc joins
    /// are virtual events (each parks on the clock until the worker
    /// signals completion), so no census escape is needed.
    pub fn wait(&self) {
        let mut w = self.shared.workers.lock();
        w.waiter = true;
        while w.jobs.is_some() {
            self.shared.hungup.wait(&mut w);
        }
        let workers = std::mem::take(&mut w.handles);
        drop(w);
        cleanup(&self.shared);
        for w in workers {
            let _ = w.join();
        }
    }
}

/// A service nobody holds answers nobody: no worker outlives it.
impl Drop for NineService {
    fn drop(&mut self) {
        self.hangup();
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

/// Enters a new fid on the node `make` comes back with, which is asked
/// for only once the number is known to be free.
fn enter_fid(
    shared: &ServerShared,
    fid: Fid,
    make: impl FnOnce() -> Result<ServeNode>,
) -> Result<ServeNode> {
    if shared.fids.lock().contains_key(&fid) {
        return Err(NineError::new(errstr::EFIDINUSE));
    }
    let node = make()?;
    let blocks = shared.fs.may_block(Some(&node));
    shared.fids.lock().insert(fid, FidState { node, open: false, blocks });
    Ok(node)
}

/// Moves a fid to the node its walk, open or create came back with. A
/// fid that a hangup or a session took while the operation ran is not
/// coming back, so its node is clunked here.
fn move_fid(shared: &ServerShared, fid: Fid, node: ServeNode, open: bool) {
    let blocks = shared.fs.may_block(Some(&node));
    let held = shared.fids.lock().get_mut(&fid).map(|s| {
        *s = FidState { node, open: s.open | open, blocks };
    });
    if held.is_none() {
        shared.fs.clunk(&node);
    }
}

fn take_fid(shared: &ServerShared, fid: Fid) -> Result<ServeNode> {
    let state = shared.fids.lock().remove(&fid);
    state.map(|s| s.node).ok_or_else(|| NineError::new(errstr::EUNKNOWNFID))
}

fn handle(shared: &ServerShared, t: &Tmsg, held: Held) -> Result<Rmsg> {
    let fs = &shared.fs;
    let node = || held.map(|s| s.node).ok_or_else(|| NineError::new(errstr::EUNKNOWNFID));
    let open_node = || match held {
        Some(s) if !s.open => Err(NineError::new(errstr::ENOTOPEN)),
        _ => node(),
    };
    match t {
        Tmsg::Attach {
            fid, uname, aname, ..
        } => {
            let qid = enter_fid(shared, *fid, || fs.attach(uname, aname))?.qid;
            Ok(Rmsg::Attach { fid: *fid, qid })
        }
        Tmsg::Clone { fid, new_fid } => {
            let node = node()?;
            enter_fid(shared, *new_fid, || fs.clone_node(&node))?;
            Ok(Rmsg::Clone { fid: *fid })
        }
        Tmsg::Walk { fid, name } => {
            let node = node()?;
            let next = fs.walk(&node, name)?;
            move_fid(shared, *fid, next, false);
            Ok(Rmsg::Walk { fid: *fid, qid: next.qid })
        }
        Tmsg::Clwalk { fid, new_fid, name } => {
            let node = node()?;
            let next = enter_fid(shared, *new_fid, || {
                let cloned = fs.clone_node(&node)?;
                let walked = fs.walk(&cloned, name);
                // On failure the new fid is not allocated.
                if walked.as_ref().map_or(true, |next| next.handle != cloned.handle) {
                    fs.clunk(&cloned);
                }
                walked
            })?;
            Ok(Rmsg::Clwalk { fid: *fid, qid: next.qid })
        }
        Tmsg::Open { fid, mode } => {
            if held.is_some_and(|s| s.open) {
                return Err(NineError::new(errstr::EISOPEN));
            }
            let node = node()?;
            let opened = fs.open(&node, OpenMode(*mode))?;
            move_fid(shared, *fid, opened, true);
            Ok(Rmsg::Open { fid: *fid, qid: opened.qid })
        }
        Tmsg::Create {
            fid,
            name,
            perm,
            mode,
        } => {
            let node = node()?;
            let created = fs.create(&node, name, *perm, OpenMode(*mode))?;
            if created.handle != node.handle {
                fs.clunk(&node);
            }
            move_fid(shared, *fid, created, true);
            Ok(Rmsg::Create { fid: *fid, qid: created.qid })
        }
        Tmsg::Read { fid, offset, count } => {
            let node = open_node()?;
            let count = (*count as usize).min(MAX_FDATA);
            let data = fs.read(&node, *offset, count)?;
            Ok(Rmsg::Read { fid: *fid, data })
        }
        Tmsg::Write { fid, offset, data } => {
            let node = open_node()?;
            let n = fs.write(&node, *offset, data)?;
            Ok(Rmsg::Write {
                fid: *fid,
                count: n as u16,
            })
        }
        Tmsg::Clunk { fid } => {
            fs.clunk(&take_fid(shared, *fid)?);
            Ok(Rmsg::Clunk { fid: *fid })
        }
        Tmsg::Remove { fid } => {
            // Remove always clunks, even on failure.
            fs.remove(&take_fid(shared, *fid)?)?;
            Ok(Rmsg::Remove { fid: *fid })
        }
        Tmsg::Stat { fid } => {
            let node = node()?;
            let stat = fs.stat(&node)?;
            Ok(Rmsg::Stat { fid: *fid, stat })
        }
        Tmsg::Wstat { fid, stat } => {
            let node = node()?;
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
        fn may_block(&self, n: Option<&ServeNode>) -> bool {
            n.is_some_and(|n| self.mem.stat(n).map_or(true, |d| d.name == "gate"))
        }
    }

    const GATE: Fid = 0;
    const F: Fid = 1;
    const ROOT: Fid = 2;

    /// A `NineService` over a `GateFs`, with [`GATE`] and [`F`] open on
    /// its two files and [`ROOT`] left at the root, fed by `serve_on`
    /// from the other end of a pipe.
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
            for new_fid in [F, ROOT] {
                let clone = Tmsg::Clone { fid: GATE, new_fid };
                assert!(matches!(s.rpc(1, &clone), Rmsg::Clone { .. }));
            }
            for (fid, name) in [(GATE, "gate"), (F, "f")] {
                let name = name.to_string();
                assert!(matches!(s.rpc(1, &Tmsg::Walk { fid, name }), Rmsg::Walk { .. }));
                assert!(matches!(s.rpc(1, &Tmsg::Open { fid, mode: 0 }), Rmsg::Open { .. }));
            }
            s
        }

        /// Puts a T-message down the pipe to the service.
        fn send(&mut self, tag: Tag, t: &Tmsg) {
            self.end.sendmsg(&encode_tmsg(tag, t)).unwrap();
        }

        fn rpc(&mut self, tag: Tag, t: &Tmsg) -> Rmsg {
            self.send(tag, t);
            let (rtag, r) = decode_rmsg(&self.end.recvmsg().unwrap().unwrap()).unwrap();
            assert_eq!(rtag, tag);
            r
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
            self.send(tag, &Self::tread(GATE, 0));
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

        /// Hangs up, waits for `serve_on` to return, and hands back
        /// what the server had still sent. No worker is left: each holds
        /// the service's state while it lives.
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
