//! The 9P tag-space oracle (`oracle::nine`) fed three ways: exportfs
//! over a pipe, the import command's initial protocol first;
//! `ninep::server::serve` reading a message pipe; and a `NineService`
//! fed by hand and hung up with no process to wait for its workers, as
//! a pool shard's feed does. Every case runs under
//! the virtual clock (so this file is a binary of its own: a virtual
//! run is process-wide) and is a function of its seed. Over the pipe,
//! once both ends are closed the `exportfs` process has ended and the
//! pipe is gone too.

mod oracle;

use oracle::nine::{self, Feed};
use plan9::core::dev::PipeFs;
use plan9::core::namespace::{Namespace, Source, MREPL};
use plan9::core::proc::Proc;
use plan9::exportfs::exportfs::serve_export;
use plan9::ninep::procfs::{OpenMode, ProcFs};
use plan9::ninep::server::{serve, NineService};
use plan9::ninep::transport::{MsgPipeEnd, MsgPipeSink, MsgSink, MsgSource};
use plan9_support::chan::{self, RecvTimeoutError};
use plan9_support::vtime;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// `serve_export` in an `exportfs` kproc, over a pipe whose other end
/// the client writes raw 9P to.
fn exportfs_over_a_pipe(root: Arc<dyn ProcFs>) -> Result<Feed, String> {
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
    // The import command's initial protocol, then a tree to serve.
    p.write(fd, b"/").map_err(|e| e.0)?;
    if p.read(fd, 64).map_err(|e| e.0)? != b"OK" {
        return Err("the export refused its root".into());
    }
    let hung = Arc::clone(&srv);
    let ended = move || {
        exportfs.join().expect("exportfs panicked");
        drop(srv);
        match gone.upgrade() {
            Some(_) => Err("the pipe outlived both its ends".to_string()),
            None => Ok(()),
        }
    };
    let io = p.io(fd).map_err(|e| e.0)?;
    Ok(Feed {
        sink: Box::new(io.clone()),
        source: Box::new(io),
        close: Box::new(move || p.close(fd)),
        hang_up: Some(Box::new(move || hung.close(srv_fd))),
        hung_up: None,
        ended: Box::new(ended),
    })
}

/// `serve` in a kproc, reading the server's end of a message pipe.
fn serve_over_a_message_pipe(fs: Arc<dyn ProcFs>) -> Result<Feed, String> {
    let (client_end, server_end) = MsgPipeEnd::pair();
    let (ssink, ssource) = server_end.split();
    let server = vtime::kproc("serve", move || serve(fs, Box::new(ssource), Box::new(ssink))).expect("spawn serve");
    let (sink, source) = client_end.split();
    let ended = move || server.join().expect("serve panicked").map_err(|e| format!("serve: {e}"));
    // The client's end hangs up as its sink goes.
    let close = Box::new(|| ());
    Ok(Feed { sink: Box::new(sink), source: Box::new(source), close, hang_up: None, hung_up: None, ended: Box::new(ended) })
}

/// A kproc that feeds the server's end of a message pipe to a
/// `NineService` by hand and returns at its end, the service hanging up
/// as it goes: nothing waits for the workers, as on a pool shard.
fn input_by_hand(fs: Arc<dyn ProcFs>) -> Result<Feed, String> {
    let (client_end, server_end) = MsgPipeEnd::pair();
    let (ssink, mut ssource) = server_end.split();
    let (held, gone) = chan::bounded::<()>(1);
    let feed = vtime::kproc("feed", move || -> plan9::ninep::Result<()> {
        let svc = NineService::new(fs, Box::new(LastReply { sink: ssink, _held: held }));
        while let Some(raw) = ssource.recvmsg()? {
            svc.input(&raw)?;
        }
        Ok(())
    })
    .expect("spawn feed");
    let feed = Rc::new(Cell::new(Some(feed)));
    let join = move || feed.take().map_or(Ok(()), |h| h.join().expect("feed panicked").map_err(|e| format!("feed: {e}")));
    let hung_up = join.clone();
    let ended = move || {
        join()?;
        match gone.recv_timeout(Duration::from_secs(5)) {
            Err(RecvTimeoutError::Disconnected) => Ok(()),
            _ => Err("a worker still holds the service 5 s after the hangup".to_string()),
        }
    };
    let (sink, source) = client_end.split();
    let (sink, source, close) = (Box::new(sink), Box::new(source), Box::new(|| ()));
    Ok(Feed { sink, source, close, hang_up: None, hung_up: Some(Box::new(hung_up)), ended: Box::new(ended) })
}

/// The service's reply sink: the service and each of its workers hold
/// it, so its going says that all of them have ended.
struct LastReply {
    sink: MsgPipeSink,
    _held: chan::Sender<()>,
}

impl MsgSink for LastReply {
    fn sendmsg(&mut self, msg: &[u8]) -> plan9::ninep::Result<()> {
        self.sink.sendmsg(msg)
    }
    fn ready(&self, len: usize) -> bool {
        self.sink.ready(len)
    }
}

plan9_support::props! {
    /// 200 seeds; a failing one is printed by the runner and replays
    /// with `P9_CHECK_SEED`, a wedged one by the watchdog and replays
    /// with `P9_PIPE_CASE`.
    fn prop_every_unflushed_operation_is_answered_once_with_its_own_bytes(g, cases = 200) {
        oracle::run(oracle::next_seed("pipe", g), |seed| nine::case("pipe", seed, exportfs_over_a_pipe));
    }

    /// The same cases with `serve` reading the transport; a wedged one
    /// replays with `P9_SERVE_CASE`.
    fn prop_serve_answers_every_unflushed_operation_once_with_its_own_bytes(g, cases = 200) {
        oracle::run(oracle::next_seed("serve", g), |seed| nine::case("serve", seed, serve_over_a_message_pipe));
    }

    /// The same cases fed by hand; a hasty close waits for the hangup
    /// with reads still parked. A wedged case replays with
    /// `P9_HAND_CASE`.
    fn prop_a_hangup_waits_for_no_parked_read_and_each_is_answered(g, cases = 200) {
        oracle::run(oracle::next_seed("hand", g), |seed| nine::case("hand", seed, input_by_hand));
    }
}
