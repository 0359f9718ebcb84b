//! 9P over an IL conversation: the transport adaptor, and service on
//! the conversation's worker-pool shard. Kept out of `il.rs` so that
//! file stays the protocol alone, as the paper counts it (§3); TCP's
//! 9P marshaling likewise lives in `ninep::marshal`, not `tcp.rs`.

use super::{IlConn, TryRecv};
use plan9_ninep::procfs::ProcFs;
use plan9_ninep::server::NineService;
use plan9_ninep::transport::{MsgSink, MsgSource};
use plan9_support::pool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// An IL conversation as a 9P transport. IL preserves message
/// delimiters, so a 9P message is an IL message and nothing is
/// marshaled (§3).
#[derive(Clone)]
pub struct IlIo(pub Arc<IlConn>);

impl MsgSink for IlIo {
    fn sendmsg(&mut self, msg: &[u8]) -> crate::Result<()> {
        self.0.send(msg)
    }
    fn ready(&self) -> bool {
        self.0.can_send()
    }
}

impl MsgSource for IlIo {
    fn recvmsg(&mut self) -> crate::Result<Option<Vec<u8>>> {
        self.0.recv()
    }
}

/// Serves `fs` to the peer of `conn` on the conversation's worker-pool
/// shard: no thread is parked in [`IlConn::recv`]; the readiness hook
/// submits a job that feeds what has arrived to a [`NineService`],
/// which runs on the shard what `fs` says is data at hand and gives a
/// kproc to what may block. The caller keeps the returned service for
/// as long as the conversation should be answered.
pub fn serve_on_shard(conn: &Arc<IlConn>, fs: Arc<dyn ProcFs>) -> Arc<NineService> {
    let svc = Arc::new(NineService::new(fs, Box::new(IlIo(Arc::clone(conn)))));
    // Weak both ways: the service's sink holds the conversation, and
    // the conversation holds this hook.
    let (wsvc, wconn) = (Arc::downgrade(&svc), Arc::downgrade(conn));
    // One job, submitted again for each arrival and not while it is
    // already queued: a message costs no allocation here.
    let queued = Arc::new(AtomicBool::new(false));
    let (taken, first) = (Arc::clone(&queued), (wsvc.clone(), wconn.clone()));
    let job: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        taken.store(false, Ordering::Release);
        drain(&wsvc, &wconn);
    });
    let key = conn.conv_id();
    // The hook may fire under the conversation's lock: enqueue only.
    conn.set_rx_notify(move || {
        if !queued.swap(true, Ordering::AcqRel) {
            let _ = pool::submit_shared(key, Arc::clone(&job));
        }
    });
    // Catch what landed before the hook was registered.
    let _ = pool::submit(key, move || drain(&first.0, &first.1));
    svc
}

/// Feeds what is queued on the conversation to its 9P service, a
/// request at a time and only while the window has room for the reply:
/// a pool worker parked in [`IlConn::send`] would hold up its shard,
/// and if that is the station's too, the acks that open the window with
/// it. The window opening runs this again.
fn drain(svc: &Weak<NineService>, conn: &Weak<IlConn>) {
    let (Some(svc), Some(conn)) = (svc.upgrade(), conn.upgrade()) else {
        return;
    };
    while conn.can_send() {
        match conn.try_recv() {
            Ok(TryRecv::Msg(m)) => {
                // blocking-ok: placed by `may_block` — only data at
                // hand whose reply the window has room for runs here,
                // the rest on a kproc of its own
                if svc.input(&m).is_err() {
                    conn.close();
                    return;
                }
            }
            Ok(TryRecv::Empty) => return,
            Ok(TryRecv::Eof) | Err(_) => {
                // blocking-ok: no worker is waited for here, and the
                // clunks, which are what wake them, are the waiting
                // process's to make if there is one
                svc.hangup();
                return;
            }
        }
    }
}
