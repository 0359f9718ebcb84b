//! 9P over URP: URP keeps delimiters, so a 9P message is a URP message
//! and nothing is marshaled. What [`serve_on_shard`] needs of a
//! conversation, kept out of `urp.rs` so that it stays the protocol.
//!
//! [`serve_on_shard`]: plan9_ninep::server::serve_on_shard

use crate::urp::UrpConn;
use plan9_ninep::server::Served;
use plan9_ninep::transport::MsgSink;
use std::sync::Arc;

/// A URP conversation as a service's reply sink.
struct UrpIo(Arc<UrpConn>);

impl MsgSink for UrpIo {
    fn sendmsg(&mut self, msg: &[u8]) -> crate::Result<()> {
        self.0.send(msg)
    }
    /// Every cell of the reply fits in the window: a reply that does not
    /// would wait for an acknowledgment, which a pool job must not.
    fn ready(&self, len: usize) -> bool {
        self.0.can_send(len)
    }
}

impl Served for UrpConn {
    /// The message taken.
    type Held = Vec<u8>;
    fn sink(self: &Arc<Self>) -> Box<dyn MsgSink> {
        Box::new(UrpIo(Arc::clone(self)))
    }
    fn next<'a>(self: &Arc<Self>, held: &'a mut Vec<u8>) -> crate::Result<Option<&'a [u8]>> {
        let Some(m) = self.try_recv()? else { return Ok(None) };
        *held = m;
        Ok(Some(held))
    }
    fn conv_id(&self) -> u64 {
        self.shell.key()
    }
    fn set_rx_notify(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.shell.set_hook(hook)
    }
    /// A one-cell reply would go out: a longer one is placed by the
    /// sink's `ready`.
    fn can_send(&self) -> bool {
        UrpConn::can_send(self, 0)
    }
    /// At once: a pool job must not wait for the window to drain.
    fn close(self: &Arc<Self>) {
        self.hangup()
    }
}
