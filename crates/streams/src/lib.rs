//! Plan 9 streams (§2.4 of the paper).
//!
//! A stream is a bidirectional channel connecting a physical or
//! pseudo-device to user processes. The user processes insert and remove
//! data at one end; kernel processes acting on behalf of a device insert
//! data at the other. A stream comprises a linear list of processing
//! modules, each with an *upstream* (toward the process) and *downstream*
//! (toward the device) put routine.
//!
//! Faithful properties carried over from the paper:
//!
//! * Information is represented by [`Block`]s holding data or control
//!   directives; the last block of a write is flagged with a **delimiter**.
//! * A write of less than 32 KiB is contained in (and delivered as) a
//!   single block, which makes sub-32 KiB writes atomic.
//! * Reading terminates when the read count is reached or at the end of a
//!   delimited block; a per-stream **read lock** (the read queue's own)
//!   ensures one reader at a time sees contiguous bytes, and a reader
//!   that finds a whole delimited block takes its buffer as it is.
//! * A block goes to the next pushed module in its direction, else down
//!   to the device end or up to the read queue: a stream with nothing
//!   pushed reaches its device and its reader directly.
//! * Streams are dynamically configurable: the stream system intercepts
//!   `push name`, `pop` and `hangup` control blocks; all other control
//!   blocks are interpreted by the modules they pass through.
//! * Modules may spawn **helper kernel processes** (threads here) to field
//!   asynchronous events such as retransmission timers — the design choice
//!   the paper contrasts with Unix run-to-completion service routines.
//! * There is **no implicit synchronization**: each module synchronizes
//!   its own state, exactly as the paper warns.

pub mod block;
pub mod module;
pub mod queue;
pub mod spipe;
pub mod stream;

pub use block::{Block, BlockKind};
pub use module::{ModuleCtx, StreamModule};
pub use queue::Queue;
pub use spipe::{stream_pipe, PipeConn};
pub use stream::{ModuleRegistry, Stream, MAX_ATOMIC_WRITE};

/// Errors produced by stream operations; string-based like the rest of
/// the system.
pub type StreamError = plan9_ninep::NineError;

/// Result alias for stream operations.
pub type Result<T> = std::result::Result<T, StreamError>;
