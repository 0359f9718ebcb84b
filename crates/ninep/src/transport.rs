//! Transport abstractions for carrying 9P.
//!
//! 9P assumes a transport that is reliable, sequenced, and
//! delimiter-preserving (§2.1). [`MsgSink`]/[`MsgSource`] model such a
//! transport directly: one call, one message. Byte-stream transports that
//! lose delimiters (TCP) are modeled by [`ByteSink`]/[`ByteSource`] and
//! adapted with the [`crate::marshal`] module.

use crate::{NineError, Result};
use plan9_support::chan::{unbounded, Receiver, Sender};

/// The sending half of a delimited, reliable, sequenced message transport.
pub trait MsgSink: Send {
    /// Sends one message; the receiver will see exactly these bytes as one
    /// unit.
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()>;

    /// Whether a message would go out at once: `sendmsg` would not
    /// wait for the peer to make room. A sink that never waits keeps
    /// the default.
    fn ready(&self) -> bool {
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
pub struct MsgPipeEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl MsgPipeEnd {
    /// Creates a connected pair of pipe ends.
    pub fn pair() -> (MsgPipeEnd, MsgPipeEnd) {
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        (
            MsgPipeEnd { tx: atx, rx: brx },
            MsgPipeEnd { tx: btx, rx: arx },
        )
    }

    /// Splits this end into separate sink and source halves.
    pub fn split(self) -> (MsgPipeSink, MsgPipeSource) {
        (MsgPipeSink { tx: self.tx }, MsgPipeSource { rx: self.rx })
    }
}

impl MsgSink for MsgPipeEnd {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        self.tx
            .send(msg.to_vec())
            .map_err(|_| NineError::new(crate::errstr::EHUNGUP))
    }
}

impl MsgSource for MsgPipeEnd {
    fn recvmsg(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.rx.recv().ok())
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

/// One end of an in-memory *byte-stream* duplex pipe that deliberately
/// destroys message boundaries, for testing the marshaling layer.
pub struct BytePipeEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// If nonzero, incoming chunks are re-sliced to at most this size, to
    /// exercise reassembly.
    pub max_chunk: usize,
    pending: Vec<u8>,
}

impl BytePipeEnd {
    /// Creates a connected pair of byte-pipe ends.
    pub fn pair() -> (BytePipeEnd, BytePipeEnd) {
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        (
            BytePipeEnd {
                tx: atx,
                rx: brx,
                max_chunk: 0,
                pending: Vec::new(),
            },
            BytePipeEnd {
                tx: btx,
                rx: arx,
                max_chunk: 0,
                pending: Vec::new(),
            },
        )
    }
}

impl ByteSink for BytePipeEnd {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| NineError::new(crate::errstr::EHUNGUP))
    }
}

impl ByteSource for BytePipeEnd {
    fn recv_some(&mut self) -> Result<Option<Vec<u8>>> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(chunk) => self.pending = chunk,
                Err(_) => return Ok(None),
            }
        }
        let n = if self.max_chunk > 0 {
            self.pending.len().min(self.max_chunk)
        } else {
            self.pending.len()
        };
        let head: Vec<u8> = self.pending.drain(..n).collect();
        Ok(Some(head))
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

    #[test]
    fn byte_pipe_rechunks() {
        let (mut a, mut b) = BytePipeEnd::pair();
        b.max_chunk = 2;
        a.send_bytes(b"hello").unwrap();
        assert_eq!(b.recv_some().unwrap().unwrap(), b"he");
        assert_eq!(b.recv_some().unwrap().unwrap(), b"ll");
        assert_eq!(b.recv_some().unwrap().unwrap(), b"o");
    }
}
