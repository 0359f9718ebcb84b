//! 9P over an IL conversation: the transport adaptor, and service on
//! the conversation's worker-pool shard. Kept out of `il.rs` so that
//! file stays the protocol alone, as the paper counts it (§3); TCP's
//! 9P marshaling likewise lives in `ninep::marshal`, not `tcp.rs`.

use super::{IlConn, TryRecv};
use plan9_ninep::procfs::ProcFs;
use plan9_ninep::server::NineService;
use plan9_ninep::transport::{MsgSink, MsgSource};
use plan9_support::pool;
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
    let key = conn.conv_id();
    // The hook may fire under the conversation's lock: enqueue only.
    conn.set_rx_notify({
        let (wsvc, wconn) = (wsvc.clone(), wconn.clone());
        move || {
            let (wsvc, wconn) = (wsvc.clone(), wconn.clone());
            let _ = pool::submit(key, move || drain(&wsvc, &wconn));
        }
    });
    // Catch what landed before the hook was registered.
    drain(&wsvc, &wconn);
    svc
}

/// Feeds everything queued on the conversation to its 9P service.
fn drain(svc: &Weak<NineService>, conn: &Weak<IlConn>) {
    let (Some(svc), Some(conn)) = (svc.upgrade(), conn.upgrade()) else {
        return;
    };
    loop {
        match conn.try_recv() {
            Ok(TryRecv::Msg(m)) => {
                // blocking-ok: placed by `may_block` — only data at
                // hand runs here, the rest on a kproc of its own
                if svc.input(&m).is_err() {
                    conn.close();
                    return;
                }
            }
            Ok(TryRecv::Empty) => return,
            Ok(TryRecv::Eof) | Err(_) => {
                // blocking-ok: placed by `may_block` — no worker is
                // waited for here, and the clunks are what wake them
                svc.hangup();
                return;
            }
        }
    }
}
