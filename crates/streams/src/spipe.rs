//! Pipes built from streams.
//!
//! "Asynchronous communications channels such as pipes, TCP
//! conversations, Datakit conversations, and RS232 lines are implemented
//! using streams" (§2.4). A pipe is the degenerate case: two streams
//! whose device ends are cross-connected, so what one end writes moves
//! down its stream and up the peer's.

use crate::block::{Block, BlockKind};
use crate::module::{ModuleCtx, StreamModule};
use crate::stream::Stream;
use crate::Result;
use plan9_support::sync::Mutex;
use std::sync::{Arc, Weak};

/// The device end of one side of a pipe: everything put down is fed up
/// the peer stream.
struct PipeDev {
    peer: Mutex<Weak<Stream>>,
}

impl StreamModule for PipeDev {
    fn name(&self) -> &str {
        "pipe"
    }

    fn put_down(&self, _ctx: &ModuleCtx, b: Block) -> Result<()> {
        let peer = self.peer.lock().upgrade();
        match peer {
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
        if let Some(peer) = self.peer.lock().upgrade() {
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
    let a_dev = Arc::new(PipeDev {
        peer: Mutex::named(Arc::downgrade(&b), "streams.spipe.peer"),
    });
    let b_dev = Arc::new(PipeDev {
        peer: Mutex::named(Arc::downgrade(&a), "streams.spipe.peer"),
    });
    a.set_device(a_dev);
    b.set_device(b_dev);
    (a, b)
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
    fn blocking_read_wakes_on_write() {
        let (a, b) = stream_pipe();
        let t = std::thread::spawn(move || b.read(100).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(30));
        a.write(b"wake up").unwrap();
        assert_eq!(t.join().unwrap(), b"wake up");
    }
}
