//! Processing modules and their context.
//!
//! "Each module has both an upstream (toward the process) and downstream
//! (toward the device) put routine. Calling the put routine of the module
//! on either end of the stream inserts data into the stream. Each module
//! calls the succeeding one to send data up or down the stream."

use crate::block::Block;
use crate::stream::StreamInner;
use crate::Result;
use std::sync::Arc;

/// A stream processing module.
///
/// Modules are shared (`Arc`) and must synchronize their own state: the
/// paper is explicit that streams provide *no implicit synchronization*.
/// Put routines run in the calling process's thread; "in most cases the
/// first put routine calls the second, the second calls the third, and so
/// on until the data is output. As a consequence, most data is output
/// without context switching."
pub trait StreamModule: Send + Sync {
    /// The name used by `push name` control messages and diagnostics.
    fn name(&self) -> &str;

    /// Handles a block moving downstream (toward the device). Forward
    /// with [`ModuleCtx::send_down`], queue locally, transform, or drop.
    fn put_down(&self, ctx: &ModuleCtx, b: Block) -> Result<()>;

    /// Handles a block moving upstream (toward the process). Forward with
    /// [`ModuleCtx::send_up`].
    fn put_up(&self, ctx: &ModuleCtx, b: Block) -> Result<()>;

    /// Called once when the module is popped off the stream or the stream
    /// is destroyed; helper processes should be told to exit here.
    fn close(&self, _ctx: &ModuleCtx) {}
}

/// The context handed to a module's put routines: its position in the
/// stream and the means to call its neighbors.
#[derive(Clone)]
pub struct ModuleCtx {
    pub(crate) inner: Arc<StreamInner>,
    pub(crate) my_id: u64,
}

impl ModuleCtx {
    /// Passes a block to the next module toward the device.
    ///
    /// Fails if this module is the device end (nothing below) or the
    /// stream has been destroyed.
    pub fn send_down(&self, b: Block) -> Result<()> {
        self.inner.put_from(self.my_id, b, Direction::Down)
    }

    /// Passes a block to the next module toward the process; from the top
    /// module this lands in the stream's read queue.
    pub fn send_up(&self, b: Block) -> Result<()> {
        self.inner.put_from(self.my_id, b, Direction::Up)
    }

    /// Whether the stream has been destroyed; helper processes poll this.
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// Direction of travel for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Toward the device.
    Down,
    /// Toward the process.
    Up,
}
