//! 9P over IL and TCP: the transport adaptors, and what
//! [`serve_on_shard`](plan9_ninep::server::serve_on_shard) needs of each
//! conversation. Kept out of `il.rs` and `tcp.rs` so that those files
//! stay the protocols alone, as the paper counts them (§3).
//!
//! The two differ here in the one thing the paper says they do (§2.1):
//! IL preserves delimiters, so a 9P message is an IL message and
//! nothing is marshaled; TCP does not, so a request is taken off the
//! stream by `ninep::marshal`'s [`Deframer`] and a reply goes out
//! behind the length prefix [`marshal::frame`] puts on it.

use crate::il::{IlConn, TryRecv};
use crate::tcp::{TcpConn, SEGMENT_SITE};
use plan9_ninep::marshal::{self, Deframer};
use plan9_ninep::server::Served;
use plan9_ninep::transport::{MsgSink, MsgSource};
use plan9_ninep::{errstr, NineError};
use std::sync::Arc;

/// An IL conversation as a 9P transport: a 9P message is an IL message.
#[derive(Clone)]
pub struct IlIo(pub Arc<IlConn>);

impl MsgSink for IlIo {
    fn sendmsg(&mut self, msg: &[u8]) -> crate::Result<()> {
        self.0.send(msg)
    }
    fn ready(&self, _len: usize) -> bool {
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
    fn ready(&self, _len: usize) -> bool {
        self.0.can_send()
    }
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
        self.shell.key()
    }
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.shell.set_hook(hook)
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
        self.shell.key()
    }
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.shell.set_hook(hook)
    }
    fn can_send(&self) -> bool {
        TcpConn::can_send(self)
    }
    fn close(self: &Arc<Self>) {
        TcpConn::close(self)
    }
}
