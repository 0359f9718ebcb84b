//! The RPC side of a 9P file server.
//!
//! A [`NineService`] applies T-messages to a [`ProcFs`] and writes
//! R-messages back. This is the glue that lets a kernel-resident device
//! (procedural 9P) be exported to a remote machine (RPC 9P) — the
//! reverse of the mount driver. There is one dispatch and two ways to
//! run a file operation under it:
//!
//! * [`serve`] reads a transport until the peer hangs up and gives each
//!   file operation a worker kproc. The paper requires this of
//!   `exportfs` (§6.1): `open`, `read` and `write` may block (a `listen`
//!   file blocks until a call arrives), so replies are serialized onto
//!   the transport by a lock.
//! * [`NineService::input`] runs the operation on the caller's thread
//!   (typically a worker-pool shard), for file systems that answer from
//!   memory and connections counted in tens of thousands.

use crate::codec::{decode_tmsg, encode_rmsg};
use crate::fcall::{Fid, Rmsg, Tag, Tmsg, CHAL_LEN, MAX_FDATA};
use crate::procfs::{OpenMode, ProcFs, ServeNode};
use crate::transport::{MsgSink, MsgSource};
use crate::{errstr, NineError, Result};
use plan9_netlog::trace;
use plan9_netlog::Facility;
use plan9_support::sync::Mutex;
use plan9_support::{time, vtime};
use std::collections::HashMap;
use std::sync::Arc;

struct FidState {
    node: ServeNode,
    open: bool,
}

struct ServerShared {
    fs: Arc<dyn ProcFs>,
    fids: Mutex<HashMap<Fid, FidState>>,
    /// File operations still running, by tag; the value turns true when
    /// a Tflush names the tag, and the reply is then suppressed. An
    /// answered tag is not in the map, so flushing it marks nothing.
    inflight: Mutex<HashMap<Tag, bool>>,
    sink: Mutex<Box<dyn MsgSink>>,
}

impl ServerShared {
    fn reply(&self, tag: Tag, r: &Rmsg) {
        let buf = encode_rmsg(tag, r);
        let _ = self.sink.lock().sendmsg(&buf);
    }

    /// Runs one file operation; errors are replies too.
    fn run(&self, t: &Tmsg) -> Rmsg {
        handle(self, t).unwrap_or_else(|e| Rmsg::Error { ename: e.0 })
    }

    /// Answers a file operation, unless it was flushed while it ran
    /// (§ Tflush semantics).
    fn finish(&self, tag: Tag, r: &Rmsg) {
        let flushed = self.inflight.lock().remove(&tag) == Some(true);
        if !flushed {
            self.reply(tag, r);
        }
    }
}

/// Serves `fs` over the given transport until the peer hangs up.
///
/// Blocks the calling thread; most callers run it in a dedicated thread.
pub fn serve(
    fs: Arc<dyn ProcFs>,
    mut source: Box<dyn MsgSource>,
    sink: Box<dyn MsgSink>,
) -> Result<()> {
    let svc = NineService::new(fs, sink);
    let mut workers = Vec::new();
    loop {
        let raw = match source.recvmsg() {
            Ok(Some(raw)) => raw,
            Ok(None) => break,
            Err(e) => {
                svc.hangup();
                return Err(e);
            }
        };
        let Some((tag, t)) = svc.dispatch(&raw)? else {
            continue;
        };
        // Potentially-blocking file operations get a worker each. The
        // server opens its own root span per request: the reply
        // direction (including its IL sends and rexmits) has no client
        // handle to inherit across the wire, so it is attributed to
        // this `serve` root instead.
        let shared = Arc::clone(&svc.shared);
        let tracer = trace::global();
        let root = if tracer.enabled() {
            tracer.begin(&format!("serve {:?} tag {tag}", t.msg_type()))
        } else {
            None
        };
        let worker = vtime::kproc("9p-worker", move || {
            let _cur = root.as_ref().map(|h| h.set_current());
            let h0 = time::now();
            let r = shared.run(&t);
            if let Some(h) = &root {
                h.span(Facility::NineP, "handle", h0, time::now());
            }
            shared.finish(tag, &r);
            if let Some(h) = &root {
                h.finish();
            }
        })
        // checked: spawn fails only on OS thread exhaustion
        .expect("spawn 9p worker");
        workers.push(worker);
        workers.retain(|w| !w.is_finished());
    }
    // Kproc joins are virtual events: each parks on the clock until
    // the worker signals completion, so no census escape is needed.
    for w in workers {
        let _ = w.join();
    }
    svc.hangup();
    Ok(())
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
            }),
        }
    }

    /// Processes one raw T-message inline and writes the reply.
    /// Returns an error on a malformed message, which poisons the
    /// link: the caller should hang up, as the kernel does.
    pub fn input(&self, raw: &[u8]) -> Result<()> {
        if let Some((tag, t)) = self.dispatch(raw)? {
            let r = self.shared.run(&t);
            self.shared.finish(tag, &r);
        }
        Ok(())
    }

    /// The one dispatch: answers the cheap control messages itself and
    /// hands back a file operation, already marked in flight, for the
    /// caller to run where it sees fit.
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
                // Only an operation still running can be flushed. Run
                // inline, none ever is by the time a Tflush is read.
                if let Some(flushed) = shared.inflight.lock().get_mut(&old_tag) {
                    *flushed = true;
                }
                shared.reply(tag, &Rmsg::Flush);
            }
            other => {
                shared.inflight.lock().insert(tag, false);
                return Ok(Some((tag, other)));
            }
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
mod tests {
    use super::*;
    use crate::codec::encode_tmsg;
    use crate::procfs::MemFs;
    use crate::transport::MsgPipeEnd;

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
        let (rtag, r) = crate::codec::decode_rmsg(&raw).unwrap();
        assert_eq!(rtag, tag);
        r
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
            let (rtag, r) = crate::codec::decode_rmsg(&client.recvmsg().unwrap().unwrap()).unwrap();
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
