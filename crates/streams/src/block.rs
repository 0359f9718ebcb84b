//! Blocks: the unit of information in a stream.
//!
//! "Information is represented by linked lists of kernel structures
//! called blocks. Each block contains a type, some state flags, and
//! pointers to an optional buffer. Block buffers can hold either data or
//! control information, i.e., directives to the processing modules."

use plan9_netlog::trace::{self, TraceHandle};
use plan9_netlog::Facility;
use plan9_support::time;
use std::time::Instant;

/// The type of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Ordinary data moving along the stream.
    Data,
    /// A control directive; the buffer holds an ASCII command. Commands
    /// are ASCII strings "so byte ordering is not an issue when one
    /// system controls streams in a name space implemented on another
    /// processor".
    Control,
    /// A hangup indication sent up the stream from the device end.
    Hangup,
}

/// The nettrace annotation riding on a block: which root span the
/// block's bytes belong to, and — while the block sits in a queue —
/// when it was enqueued, so the dequeue can record the residency span.
///
/// The annotation survives fragmentation: each block of a write
/// carries a clone of the handle.
#[derive(Debug, Clone)]
pub struct BlockTrace {
    /// The root span these bytes belong to.
    pub handle: TraceHandle,
    queued_at: Option<Instant>,
}

impl BlockTrace {
    /// Annotates with a root span handle.
    pub fn new(handle: TraceHandle) -> BlockTrace {
        BlockTrace {
            handle,
            queued_at: None,
        }
    }

    /// Called by `Queue::put`: stamps the enqueue time.
    pub fn note_enqueued(&mut self) {
        self.queued_at = Some(time::now());
    }

    /// Called on dequeue: records the queue-residency span.
    pub fn note_dequeued(&mut self) {
        if let Some(t0) = self.queued_at.take() {
            self.handle
                .span(Facility::Streams, "queue", t0, time::now());
        }
    }
}

/// A block moving through a stream.
#[derive(Debug, Clone)]
pub struct Block {
    /// Data or control.
    pub kind: BlockKind,
    /// True on the last block of a write: downstream modules that care
    /// about write boundaries look for this flag.
    pub delim: bool,
    /// The buffer.
    pub data: Vec<u8>,
    /// The nettrace annotation, if the writer was traced. `None` costs
    /// nothing; equality and the codecs ignore it.
    pub trace: Option<BlockTrace>,
}

/// Equality is over the payload only: the trace annotation is
/// diagnostic freight, invisible to the protocol machinery and tests.
impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.kind == other.kind && self.delim == other.delim && self.data == other.data
    }
}

impl Eq for Block {}

impl Block {
    /// A data block without a delimiter.
    pub fn data(bytes: impl Into<Vec<u8>>) -> Block {
        Block {
            kind: BlockKind::Data,
            delim: false,
            data: bytes.into(),
            trace: None,
        }
    }

    /// A data block carrying the end-of-write delimiter.
    pub fn delim(bytes: impl Into<Vec<u8>>) -> Block {
        Block {
            kind: BlockKind::Data,
            delim: true,
            data: bytes.into(),
            trace: None,
        }
    }

    /// A control block holding an ASCII command.
    pub fn control(cmd: &str) -> Block {
        Block {
            kind: BlockKind::Control,
            delim: true,
            data: cmd.as_bytes().to_vec(),
            trace: None,
        }
    }

    /// A hangup block.
    pub fn hangup() -> Block {
        Block {
            kind: BlockKind::Hangup,
            delim: true,
            data: Vec::new(),
            trace: None,
        }
    }

    /// Annotates the block with the calling thread's current trace.
    /// One thread-local read when tracing is off.
    pub fn annotate(mut self) -> Block {
        if self.trace.is_none() {
            if let Some(h) = trace::current() {
                self.trace = Some(BlockTrace::new(h));
            }
        }
        self
    }

    /// The buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_delim() {
        assert_eq!(Block::data(vec![1]).kind, BlockKind::Data);
        assert!(!Block::data(vec![1]).delim);
        assert!(Block::delim(vec![1]).delim);
        assert_eq!(Block::control("push urp").kind, BlockKind::Control);
        assert_eq!(Block::hangup().kind, BlockKind::Hangup);
    }

    #[test]
    fn empty_block() {
        let b = Block::data(Vec::new());
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn trace_annotation_is_invisible_to_equality() {
        let t = plan9_netlog::trace::Tracer::new(4);
        t.ctl("trace on").unwrap();
        let h = t.begin("write").unwrap();
        let _g = h.set_current();
        let annotated = Block::data(vec![1, 2]).annotate();
        assert!(annotated.trace.is_some());
        assert_eq!(annotated, Block::data(vec![1, 2]));
    }

    #[test]
    fn untraced_thread_annotates_nothing() {
        assert!(Block::data(vec![1]).annotate().trace.is_none());
    }
}
