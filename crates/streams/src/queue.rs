//! Queues: the buffering half of a processing-module instance.
//!
//! "An instance of a processing module is represented by a pair of
//! queues, one for each direction. The queues point to the put procedures
//! and can be used to queue information traveling along the stream."
//!
//! A queue is a bounded FIFO of [`Block`]s. The bound is in bytes and
//! provides the stream's flow control: `put` blocks when the queue is
//! full, which exerts backpressure on the writer — the same role queue
//! limits play in the Plan 9 kernel. A reader or writer that waits is
//! counted, and only a counted waiter is notified: an operation that
//! finds nobody waiting makes no system call. A queue may also carry two
//! hooks for a reader that does not wait (a 9P service fed where its
//! requests arrive), fired with the queue's lock dropped: one when a
//! block, a hangup or the close arrives, one when a dequeue takes the
//! queue back under its limit.

use crate::block::{Block, BlockKind};
use plan9_netlog::Counter;
use plan9_support::copysite::Site;
use plan9_support::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Bytes entering stream queues. Not a memcpy itself, but every block
/// queued here was allocated to cross the queue — the figure the
/// zero-copy work wants alongside the true copy sites.
static QPUT_SITE: Site = Site::new("streams.qput");

/// Default queue limit in bytes, matching the generosity of kernel
/// stream queues.
pub const DEFAULT_LIMIT: usize = 128 * 1024;

struct QueueInner {
    blocks: VecDeque<Block>,
    bytes: usize,
    closed: bool,
    hungup: bool,
    /// Readers and writers waiting: a notify is made only for them.
    readers: usize,
    writers: usize,
}

/// A readiness hook: cheap, and it must not block.
pub type Hook = Arc<dyn Fn() + Send + Sync>;

/// What a dequeue found.
pub(crate) enum Polled {
    /// The block taken off the queue.
    Block(Block),
    /// Nothing queued, and more may come.
    Empty,
    /// Nothing queued, and nothing more will come: hung up or closed.
    Ended,
}

/// A bounded, blocking FIFO of blocks.
pub struct Queue {
    inner: Mutex<QueueInner>,
    readable: Condvar,
    writable: Condvar,
    limit: usize,
    /// Fired when a block, a hangup or the close arrives.
    on_input: OnceLock<Hook>,
    /// Fired when a dequeue takes the queue back under its limit, and at
    /// the close.
    on_room: OnceLock<Hook>,
    /// Blocks ever queued through `put`.
    puts: Counter,
    /// Times a `put` had to wait on flow control.
    stalls: Counter,
    /// Times a flow-controlled putter was woken to re-check the limit.
    writer_wakes: Counter,
}

impl Default for Queue {
    fn default() -> Self {
        Queue::new(DEFAULT_LIMIT)
    }
}

impl Queue {
    /// Creates a queue bounded at `limit` bytes of buffered data.
    pub fn new(limit: usize) -> Queue {
        Queue {
            inner: Mutex::named(QueueInner {
                blocks: VecDeque::new(),
                bytes: 0,
                closed: false,
                hungup: false,
                readers: 0,
                writers: 0,
            }, "streams.queue"),
            readable: Condvar::new(),
            writable: Condvar::new(),
            limit,
            on_input: OnceLock::new(),
            on_room: OnceLock::new(),
            puts: Counter::new("queue.puts"),
            stalls: Counter::new("queue.stalls"),
            writer_wakes: Counter::new("queue.writer_wakes"),
        }
    }

    /// Blocks ever queued through [`Queue::put`].
    pub fn put_count(&self) -> u64 {
        self.puts.get()
    }

    /// Times a putter had to wait on flow control.
    pub fn stall_count(&self) -> u64 {
        self.stalls.get()
    }

    /// Times a flow-controlled putter was woken to re-check the limit.
    /// A dequeue that admits one writer should cost about one wake; a
    /// thundering herd shows up here as wakes ≫ admissions.
    pub fn writer_wake_count(&self) -> u64 {
        self.writer_wakes.get()
    }

    /// Appends a block, waiting while the queue is over its limit.
    ///
    /// Control and hangup blocks are never blocked by flow control ("the
    /// time to parse control blocks is not important, since control
    /// operations are rare" — but they must not deadlock behind data).
    pub fn put(&self, mut b: Block) -> crate::Result<()> {
        if let Some(t) = b.trace.as_mut() {
            t.note_enqueued();
        }
        let is_data = b.kind == BlockKind::Data;
        let mut inner = self.inner.lock();
        if is_data && inner.bytes >= self.limit && !inner.closed {
            self.stalls.inc();
            inner.writers += 1;
            while inner.bytes >= self.limit && !inner.closed {
                self.writable.wait(&mut inner);
                self.writer_wakes.inc();
            }
            inner.writers -= 1;
        }
        if inner.closed {
            return Err(plan9_ninep::NineError::new(plan9_ninep::errstr::EHUNGUP));
        }
        if b.kind == BlockKind::Hangup {
            inner.hungup = true;
        }
        self.puts.inc();
        QPUT_SITE.record(b.len());
        inner.bytes += b.len();
        inner.blocks.push_back(b);
        if inner.readers > 0 {
            self.readable.notify_all();
        }
        if is_data && inner.bytes < self.limit && inner.writers > 0 {
            // Admission is one-at-a-time (dequeues wake a single
            // writer); if this put left room, pass the baton to the
            // next blocked writer rather than strand it.
            self.writable.notify_one();
        }
        drop(inner);
        fire(&self.on_input);
        Ok(())
    }

    /// Removes the next block, waiting for one if `wait` is set and the
    /// queue has not ended. Writer wake-up policy: only a dequeue that
    /// crosses the buffered byte count from at-or-over the limit to
    /// under it can admit a flow-controlled putter, so only that
    /// crossing notifies — and it notifies *one* writer (admission
    /// chains through `put`), not all of them — and fires the room hook.
    pub(crate) fn poll(&self, wait: bool) -> Polled {
        let mut inner = self.inner.lock();
        loop {
            if let Some(mut b) = inner.blocks.pop_front() {
                let was = inner.bytes;
                inner.bytes -= b.len();
                let room = was >= self.limit && inner.bytes < self.limit;
                if room && inner.writers > 0 {
                    self.writable.notify_one();
                }
                drop(inner);
                if room {
                    fire(&self.on_room);
                }
                if let Some(t) = b.trace.as_mut() {
                    t.note_dequeued();
                }
                return Polled::Block(b);
            }
            if inner.closed || inner.hungup {
                return Polled::Ended;
            }
            if !wait {
                return Polled::Empty;
            }
            inner.readers += 1;
            self.readable.wait(&mut inner);
            inner.readers -= 1;
        }
    }

    /// Removes the next block, blocking until one is available.
    ///
    /// Returns `None` once the queue is drained *and* has been hung up or
    /// closed — the reader's end-of-file.
    pub fn get(&self) -> Option<Block> {
        match self.poll(true) {
            Polled::Block(b) => Some(b),
            _ => None,
        }
    }

    /// Marks the queue closed: pending data may still be read, further
    /// puts fail, blocked getters see end-of-file when drained.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        self.wake(&inner);
        drop(inner);
        fire(&self.on_input);
        fire(&self.on_room);
    }

    /// Marks the queue hung up (reads drain then see end-of-file) while
    /// still accepting puts — used when the device end goes away but data
    /// already queued should be deliverable.
    pub fn hangup(&self) {
        let mut inner = self.inner.lock();
        inner.hungup = true;
        self.wake(&inner);
        drop(inner);
        fire(&self.on_input);
    }

    /// Wakes every waiter there is.
    fn wake(&self, inner: &QueueInner) {
        if inner.readers > 0 {
            self.readable.notify_all();
        }
        if inner.writers > 0 {
            self.writable.notify_all();
        }
    }

    /// Registers the hook fired when a block, a hangup or the close
    /// arrives. A queue has one reader: a second hook is dropped.
    pub(crate) fn set_input_hook(&self, hook: Hook) {
        let _ = self.on_input.set(hook);
    }

    /// Registers the hook fired when a dequeue makes room, and at the
    /// close. A second hook is dropped.
    pub(crate) fn set_room_hook(&self, hook: Hook) {
        let _ = self.on_room.set(hook);
    }

    /// Whether a block put now would go in without waiting.
    pub(crate) fn has_room(&self) -> bool {
        let inner = self.inner.lock();
        inner.closed || inner.bytes < self.limit
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Whether a hangup has been signaled.
    pub fn is_hungup(&self) -> bool {
        let inner = self.inner.lock();
        inner.hungup || inner.closed
    }
}

fn fire(hook: &OnceLock<Hook>) {
    if let Some(hook) = hook.get() {
        hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_order() {
        let q = Queue::default();
        q.put(Block::data(vec![1])).unwrap();
        q.put(Block::data(vec![2])).unwrap();
        assert_eq!(q.get().unwrap().data, vec![1]);
        assert_eq!(q.get().unwrap().data, vec![2]);
    }

    #[test]
    fn get_blocks_until_put() {
        let q = Arc::new(Queue::default());
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.get());
        std::thread::sleep(Duration::from_millis(20));
        q.put(Block::data(vec![9])).unwrap();
        assert_eq!(t.join().unwrap().unwrap().data, vec![9]);
    }

    #[test]
    fn limit_applies_backpressure() {
        let q = Arc::new(Queue::new(10));
        q.put(Block::data(vec![0; 10])).unwrap();
        let q2 = Arc::clone(&q);
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            q2.put(Block::data(vec![1; 5])).unwrap();
            Instant::now()
        });
        std::thread::sleep(Duration::from_millis(30));
        q.get().unwrap();
        let unblocked_at = t.join().unwrap();
        assert!(unblocked_at.duration_since(start) >= Duration::from_millis(25));
    }

    #[test]
    fn counters_track_puts_and_stalls() {
        let q = Arc::new(Queue::new(10));
        q.put(Block::data(vec![0; 10])).unwrap();
        assert_eq!((q.put_count(), q.stall_count()), (1, 0));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.put(Block::data(vec![1; 5])).unwrap());
        std::thread::sleep(Duration::from_millis(30));
        q.get().unwrap();
        t.join().unwrap();
        assert_eq!((q.put_count(), q.stall_count()), (2, 1));
    }

    #[test]
    fn control_blocks_bypass_flow_control() {
        let q = Queue::new(1);
        q.put(Block::data(vec![0; 100])).unwrap();
        // A control block must not block even though the queue is full.
        q.put(Block::control("status")).unwrap();
    }

    #[test]
    fn close_gives_eof_after_drain() {
        let q = Queue::default();
        q.put(Block::data(vec![1])).unwrap();
        q.close();
        assert!(q.get().is_some());
        assert!(q.get().is_none());
        assert!(q.put(Block::data(vec![2])).is_err());
    }

    #[test]
    fn hangup_allows_drain() {
        let q = Queue::default();
        q.put(Block::data(vec![1])).unwrap();
        q.hangup();
        assert!(q.get().is_some());
        assert!(q.get().is_none());
    }

    #[test]
    fn dequeue_records_residency_span() {
        let t = plan9_netlog::trace::Tracer::new(4);
        t.ctl("trace on").unwrap();
        let h = t.begin("rpc").unwrap();
        let _g = h.set_current();
        let q = Queue::default();
        q.put(Block::data(vec![7]).annotate()).unwrap();
        q.get().unwrap();
        h.finish();
        let root = &t.roots()[0];
        assert_eq!(root.spans.len(), 1, "{root:?}");
        assert_eq!(root.spans[0].name, "queue");
    }

    #[test]
    fn dequeue_wakes_at_most_the_admissible_writers() {
        // Regression: every dequeue used to notify_all the writable
        // condvar even when bytes stayed at/over the limit — N blocked
        // putters woke, re-checked, and re-slept per block. Now a
        // dequeue notifies only on crossing below the limit, and only
        // one writer (admission chains through put).
        const PUTTERS: usize = 8;
        let q = Arc::new(Queue::new(10));
        q.put(Block::data(vec![0; 10])).unwrap();
        let threads: Vec<_> = (0..PUTTERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.put(Block::data(vec![1; 10])).unwrap())
            })
            .collect();
        while q.stall_count() < PUTTERS as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(q.writer_wake_count(), 0);
        // One dequeue frees the whole limit: exactly one putter is
        // admissible (its 10-byte block refills the queue).
        q.get().unwrap();
        while q.put_count() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Settle, then assert no herd: one admission, at most one wake.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.put_count(), 2, "exactly one putter admitted");
        assert!(
            q.writer_wake_count() <= 1,
            "a single admissible slot must wake at most one writer, woke {}",
            q.writer_wake_count()
        );
        // Drain: each dequeue admits exactly one more putter.
        for _ in 0..PUTTERS {
            q.get().unwrap();
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            q.writer_wake_count() <= PUTTERS as u64,
            "wakes ({}) must not exceed admissions ({PUTTERS})",
            q.writer_wake_count()
        );
    }
}
