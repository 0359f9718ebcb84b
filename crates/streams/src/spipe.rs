//! Pipes built from streams.
//!
//! "Asynchronous communications channels such as pipes, TCP
//! conversations, Datakit conversations, and RS232 lines are implemented
//! using streams" (§2.4). A pipe is the degenerate case: two streams
//! whose device ends are cross-connected, so what one end writes moves
//! down its stream and up the peer's.

use crate::block::{Block, BlockKind};
use crate::module::{ModuleCtx, StreamModule};
use crate::queue::Hook;
use crate::stream::Stream;
use crate::Result;
use plan9_ninep::fcall::MAX_MSG;
use plan9_ninep::server::Served;
use plan9_ninep::transport::MsgSink;
use plan9_ninep::{errstr, NineError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The device end of one side of a pipe: everything put down is fed up
/// the peer stream, fixed when the pipe is made.
struct PipeDev {
    peer: Weak<Stream>,
}

impl StreamModule for PipeDev {
    fn name(&self) -> &str {
        "pipe"
    }

    fn put_down(&self, _ctx: &ModuleCtx, b: Block) -> Result<()> {
        match self.peer.upgrade() {
            Some(peer) => match b.kind {
                BlockKind::Data | BlockKind::Hangup => peer.feed_up(b),
                // Control directives die at the device end, as on a real
                // pipe.
                BlockKind::Control => Ok(()),
            },
            None => Err(plan9_ninep::NineError::new(plan9_ninep::errstr::EHUNGUP)),
        }
    }

    fn put_up(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
        ctx.send_up(b)
    }

    fn close(&self, _ctx: &ModuleCtx) {
        // The last close hangs up the peer.
        if let Some(peer) = self.peer.upgrade() {
            peer.hangup_from_device();
        }
    }
}

/// Creates a connected pair of stream pipes.
///
/// Each end supports the full stream interface: delimited writes,
/// count/delimiter-bounded reads, `push`/`pop` of processing modules,
/// and hangup on destroy.
pub fn stream_pipe() -> (Arc<Stream>, Arc<Stream>) {
    let a = Stream::bare();
    let b = Stream::bare();
    a.set_device(Arc::new(PipeDev { peer: Arc::downgrade(&b) }));
    b.set_device(Arc::new(PipeDev { peer: Arc::downgrade(&a) }));
    (a, b)
}

/// Pool keys for served pipe ends, one each.
static KEYS: AtomicU64 = AtomicU64::new(0);

/// One end of a pipe as a 9P conversation, served where its requests
/// arrive: a request is a delimited write on the other end, read off
/// this end's stream without waiting, and a reply is a write down it.
/// The readiness hook fires when this end's read queue takes a block or
/// a hangup, and when a read makes room in the other end's: a reply goes
/// out at once exactly when that queue is under its limit.
pub struct PipeConn {
    end: Arc<Stream>,
    peer: Arc<Stream>,
    key: u64,
}

impl PipeConn {
    /// The conversation at `end`, whose writes `peer` reads.
    pub fn new(end: &Arc<Stream>, peer: &Arc<Stream>) -> Arc<PipeConn> {
        let key = KEYS.fetch_add(1, Ordering::Relaxed);
        Arc::new(PipeConn { end: Arc::clone(end), peer: Arc::clone(peer), key })
    }
}

/// A served pipe end as its service's reply sink.
struct PipeSink(Arc<PipeConn>);

impl MsgSink for PipeSink {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        self.0.end.write(msg).map(|_| ())
    }
    fn ready(&self, _len: usize) -> bool {
        self.0.can_send()
    }
}

impl Served for PipeConn {
    /// The message taken.
    type Held = Vec<u8>;
    fn sink(self: &Arc<Self>) -> Box<dyn MsgSink> {
        Box::new(PipeSink(Arc::clone(self)))
    }
    fn next<'a>(self: &Arc<Self>, held: &'a mut Vec<u8>) -> Result<Option<&'a [u8]>> {
        match self.end.try_read(MAX_MSG)? {
            None => Ok(None),
            Some(m) if m.is_empty() => Err(NineError::new(errstr::EHUNGUP)),
            Some(m) => {
                *held = m;
                Ok(Some(held))
            }
        }
    }
    fn conv_id(&self) -> u64 {
        self.key
    }
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        let hook: Hook = Arc::new(hook);
        self.end.set_rx_notify(Arc::clone(&hook));
        self.peer.read_q().set_room_hook(hook);
    }
    fn can_send(&self) -> bool {
        self.peer.read_q().has_room()
    }
    fn close(self: &Arc<Self>) {
        self.end.destroy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn write_one_end_read_other() {
        let (a, b) = stream_pipe();
        a.write(b"through the pipe").unwrap();
        assert_eq!(b.read(100).unwrap(), b"through the pipe");
        b.write(b"and back").unwrap();
        assert_eq!(a.read(100).unwrap(), b"and back");
    }

    #[test]
    fn delimiters_cross() {
        let (a, b) = stream_pipe();
        a.write(b"one").unwrap();
        a.write(b"two").unwrap();
        assert_eq!(b.read(100).unwrap(), b"one");
        assert_eq!(b.read(100).unwrap(), b"two");
    }

    #[test]
    fn destroy_hangs_up_peer() {
        let (a, b) = stream_pipe();
        a.write(b"last").unwrap();
        a.destroy();
        assert_eq!(b.read(100).unwrap(), b"last");
        assert_eq!(b.read(100).unwrap(), b"", "EOF after hangup");
        assert!(b.write(b"x").is_err() || b.is_hungup());
    }

    /// A module that counts the data blocks passing it each way.
    #[derive(Default)]
    struct Counting {
        down: AtomicUsize,
        up: AtomicUsize,
    }

    impl StreamModule for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn put_down(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
            if b.kind == BlockKind::Data {
                self.down.fetch_add(1, Ordering::Relaxed);
            }
            ctx.send_down(b)
        }
        fn put_up(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
            if b.kind == BlockKind::Data {
                self.up.fetch_add(1, Ordering::Relaxed);
            }
            ctx.send_up(b)
        }
    }

    #[test]
    fn modules_apply_per_side() {
        // A module pushed on one side sees only that side's traffic.
        let (a, b) = stream_pipe();
        let counting = Arc::new(Counting::default());
        a.push_module(Arc::clone(&counting) as Arc<dyn StreamModule>);
        a.write(b"counted").unwrap();
        let _ = b.read(100).unwrap();
        b.write(b"also counted upstream").unwrap();
        let _ = a.read(100).unwrap();
        assert_eq!(counting.down.load(Ordering::Relaxed), 1);
        assert_eq!(counting.up.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_served_end_hears_requests_and_room_but_not_its_own_replies() {
        let (a, b) = stream_pipe();
        let conn = PipeConn::new(&a, &b);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        conn.set_rx_notify(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let fired = || fired.load(Ordering::SeqCst);
        let mut held = Vec::new();
        assert!(conn.next(&mut held).unwrap().is_none());
        b.write(b"request").unwrap();
        assert_eq!(fired(), 1);
        assert_eq!(conn.next(&mut held).unwrap().unwrap(), b"request");
        // Replies fill the other end's queue, and fire nothing.
        let mut sink = conn.sink();
        while conn.can_send() {
            sink.sendmsg(&[7; crate::MAX_ATOMIC_WRITE]).unwrap();
        }
        assert_eq!(fired(), 1);
        // The read that takes it back under its limit does.
        b.read(crate::MAX_ATOMIC_WRITE).unwrap();
        assert!(conn.can_send());
        assert_eq!(fired(), 2);
        // So does the other end's close, and then the end is the end.
        b.destroy();
        assert!(fired() > 2);
        assert!(conn.next(&mut held).is_err());
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (a, b) = stream_pipe();
        let t = std::thread::spawn(move || b.read(100).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(30));
        a.write(b"wake up").unwrap();
        assert_eq!(t.join().unwrap(), b"wake up");
    }
}
