//! Transport abstractions for carrying 9P.
//!
//! 9P assumes a transport that is reliable, sequenced, and
//! delimiter-preserving (§2.1). [`MsgSink`]/[`MsgSource`] model such a
//! transport directly: one call, one message. Byte-stream transports that
//! lose delimiters (TCP) are modeled by [`ByteSink`]/[`ByteSource`] and
//! adapted with the [`crate::marshal`] module.

use crate::{NineError, Result};
use plan9_support::chan::{unbounded, Receiver, Sender};
use plan9_support::sync::{Condvar, Mutex};

/// A [`MsgSink`] shared by the senders of one connection (a client's
/// callers, a server's repliers). A sender has the sink out of the slot
/// and holds no lock while it sends, since a send may wait for the peer
/// (a full IL window): whoever sends next parks in `free`, where the
/// virtual clock can see it, and not on a mutex, where it would stop
/// the one thread the clock lets run.
pub(crate) struct SinkSlot {
    /// The sink, `None` while a sender has it out, and how many senders
    /// wait for it: a notify is a system call, made only for them.
    sink: Mutex<(Option<Box<dyn MsgSink>>, usize)>,
    free: Condvar,
}

impl SinkSlot {
    /// A slot holding `sink`.
    pub(crate) fn new(sink: Box<dyn MsgSink>) -> SinkSlot {
        SinkSlot { sink: Mutex::named((Some(sink), 0), "ninep.sink"), free: Condvar::new() }
    }

    /// Sends the message `make` comes back with, if any, having the
    /// sink to itself from before `make` decides until the message is
    /// out.
    pub(crate) fn send(&self, make: impl FnOnce() -> Option<Vec<u8>>) -> Result<()> {
        let mut slot = self.sink.lock();
        let mut sink = loop {
            if let Some(sink) = slot.0.take() {
                break sink;
            }
            slot.1 += 1;
            self.free.wait(&mut slot);
            slot.1 -= 1;
        };
        drop(slot);
        let sent = make().map_or(Ok(()), |buf| sink.sendmsg(&buf));
        let mut slot = self.sink.lock();
        slot.0 = Some(sink);
        if slot.1 > 0 {
            self.free.notify_one();
        }
        sent
    }

    /// Whether a message of `len` bytes would go out at once. A sink out
    /// with another sender is free again in a moment.
    pub(crate) fn ready(&self, len: usize) -> bool {
        self.sink.lock().0.as_ref().is_none_or(|s| s.ready(len))
    }
}

/// The sending half of a delimited, reliable, sequenced message transport.
pub trait MsgSink: Send {
    /// Sends one message; the receiver will see exactly these bytes as one
    /// unit.
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()>;

    /// Whether a message of up to `len` bytes would go out at once:
    /// `sendmsg` would not wait for the peer to make room. A sink that
    /// never waits keeps the default.
    fn ready(&self, _len: usize) -> bool {
        true
    }
}

/// The receiving half of a delimited, reliable, sequenced message
/// transport.
pub trait MsgSource: Send {
    /// Blocks for the next message; `Ok(None)` signals orderly shutdown.
    fn recvmsg(&mut self) -> Result<Option<Vec<u8>>>;
}

/// The sending half of an undelimited byte-stream transport (e.g. TCP).
pub trait ByteSink: Send {
    /// Queues bytes onto the stream; boundaries are *not* preserved.
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()>;
}

/// The receiving half of an undelimited byte-stream transport.
pub trait ByteSource: Send {
    /// Blocks for the next chunk of bytes, of arbitrary size; `Ok(None)`
    /// signals orderly shutdown.
    fn recv_some(&mut self) -> Result<Option<Vec<u8>>>;
}

/// One end of an in-memory delimited duplex pipe, useful for connecting a
/// client and server in the same process (the `mount` of a pipe to a user
/// process in §2.1).
pub struct MsgPipeEnd(MsgPipeSink, MsgPipeSource);

impl MsgPipeEnd {
    /// Creates a connected pair of pipe ends.
    pub fn pair() -> (MsgPipeEnd, MsgPipeEnd) {
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        let end = |tx, rx| MsgPipeEnd(MsgPipeSink { tx }, MsgPipeSource { rx });
        (end(atx, brx), end(btx, arx))
    }

    /// Splits this end into separate sink and source halves.
    pub fn split(self) -> (MsgPipeSink, MsgPipeSource) {
        (self.0, self.1)
    }
}

impl MsgSink for MsgPipeEnd {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        self.0.sendmsg(msg)
    }
}

impl MsgSource for MsgPipeEnd {
    fn recvmsg(&mut self) -> Result<Option<Vec<u8>>> {
        self.1.recvmsg()
    }
}

/// The sink half of a split [`MsgPipeEnd`].
pub struct MsgPipeSink {
    tx: Sender<Vec<u8>>,
}

impl MsgSink for MsgPipeSink {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        self.tx
            .send(msg.to_vec())
            .map_err(|_| NineError::new(crate::errstr::EHUNGUP))
    }
}

/// The source half of a split [`MsgPipeEnd`].
pub struct MsgPipeSource {
    rx: Receiver<Vec<u8>>,
}

impl MsgSource for MsgPipeSource {
    fn recvmsg(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.rx.recv().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_pipe_preserves_delimiters() {
        let (mut a, mut b) = MsgPipeEnd::pair();
        a.sendmsg(b"one").unwrap();
        a.sendmsg(b"two").unwrap();
        assert_eq!(b.recvmsg().unwrap().unwrap(), b"one");
        assert_eq!(b.recvmsg().unwrap().unwrap(), b"two");
    }

    #[test]
    fn msg_pipe_eof_on_drop() {
        let (a, mut b) = MsgPipeEnd::pair();
        drop(a);
        assert_eq!(b.recvmsg().unwrap(), None);
    }
}
