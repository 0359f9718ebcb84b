//! 9P over IL and TCP: the transport adaptors, and service on the
//! conversation's worker-pool shard. Kept out of `il.rs` and `tcp.rs`
//! so that those files stay the protocols alone, as the paper counts
//! them (§3).
//!
//! The two differ here in the one thing the paper says they do (§2.1):
//! IL preserves delimiters, so a 9P message is an IL message and
//! nothing is marshaled; TCP does not, so a request is taken off the
//! stream by `ninep::marshal`'s [`Deframer`] and a reply goes out
//! behind the length prefix [`marshal::frame`] puts on it.

use crate::il::{IlConn, TryRecv};
use crate::tcp::{TcpConn, SEGMENT_SITE};
use plan9_ninep::marshal::{self, Deframer};
use plan9_ninep::procfs::ProcFs;
use plan9_ninep::server::NineService;
use plan9_ninep::transport::{MsgSink, MsgSource};
use plan9_ninep::{errstr, NineError};
use plan9_support::pool;
use plan9_support::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// An IL conversation as a 9P transport: a 9P message is an IL message.
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

/// A TCP conversation as the reply half of a 9P transport: a reply is
/// framed into a buffer of its own, which TCP keeps, uncopied, until it
/// is acknowledged.
struct TcpIo(Arc<TcpConn>);

impl MsgSink for TcpIo {
    fn sendmsg(&mut self, msg: &[u8]) -> crate::Result<()> {
        let framed = marshal::frame(msg)?;
        // The framing is the copy in from the writer.
        SEGMENT_SITE.record(framed.len());
        self.0.write_bytes(framed.into())
    }
    fn ready(&self) -> bool {
        self.0.can_send()
    }
}

/// What the feeder needs of a conversation, and all that IL and TCP
/// have in common for it: the interface is 9P's, not the protocols'.
pub trait Served: Send + Sync + 'static {
    /// What the feeder keeps of the conversation's input between runs.
    type Held: Default + Send + 'static;
    /// The conversation as its service's reply sink.
    fn sink(self: &Arc<Self>) -> Box<dyn MsgSink>;
    /// The next whole request, if one is at hand; an error at the end of
    /// the conversation.
    fn next<'a>(self: &Arc<Self>, held: &'a mut Self::Held) -> crate::Result<Option<&'a [u8]>>;
    /// The conversation's pool shard key.
    fn conv_id(&self) -> u64;
    /// Registers the hook that input, the end, or room to send fires.
    /// It must be cheap and must not block: it may fire under the
    /// conversation's lock. A conversation has one reader, so a hook
    /// registered after the first is dropped.
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static);
    /// Whether a reply would go out at once.
    fn can_send(&self) -> bool;
    /// Hangs the conversation up.
    fn close(self: &Arc<Self>);
}

impl Served for IlConn {
    /// The message taken.
    type Held = Vec<u8>;
    fn sink(self: &Arc<Self>) -> Box<dyn MsgSink> {
        Box::new(IlIo(Arc::clone(self)))
    }
    fn next<'a>(self: &Arc<Self>, held: &'a mut Vec<u8>) -> crate::Result<Option<&'a [u8]>> {
        match self.try_recv()? {
            TryRecv::Msg(m) => *held = m,
            TryRecv::Empty => return Ok(None),
            TryRecv::Eof => return Err(NineError::new(errstr::EHUNGUP)),
        }
        Ok(Some(held))
    }
    fn conv_id(&self) -> u64 {
        IlConn::conv_id(self)
    }
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        IlConn::set_rx_notify(self, hook)
    }
    fn can_send(&self) -> bool {
        IlConn::can_send(self)
    }
    fn close(self: &Arc<Self>) {
        IlConn::close(self)
    }
}

impl Served for TcpConn {
    /// The stream as it arrived, up to the end of the last whole frame.
    type Held = Deframer;
    fn sink(self: &Arc<Self>) -> Box<dyn MsgSink> {
        Box::new(TcpIo(Arc::clone(self)))
    }
    /// Takes in what has arrived until a request is whole. A stream that
    /// has lost its framing is hung up.
    fn next<'a>(self: &Arc<Self>, de: &'a mut Deframer) -> crate::Result<Option<&'a [u8]>> {
        while de.whole().inspect_err(|_| TcpConn::close(self))?.is_none() {
            match self.try_read(usize::MAX)? {
                Some(chunk) if chunk.is_empty() => return Err(NineError::new(errstr::EHUNGUP)),
                Some(chunk) => de.push(chunk),
                None => return Ok(None),
            }
        }
        de.view()
    }
    fn conv_id(&self) -> u64 {
        self.conv
    }
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.rx_notify.set(Box::new(hook));
    }
    fn can_send(&self) -> bool {
        TcpConn::can_send(self)
    }
    fn close(self: &Arc<Self>) {
        TcpConn::close(self)
    }
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
/// parked in [`IlConn::send`] on a full window, or in
/// [`TcpConn::write_bytes`] on a full send buffer, would hold up its
/// shard, and if that is the station's too, the acks that make room
/// with it. Room made runs this again.
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
