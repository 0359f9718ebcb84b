//! The stream proper: a linear list of processing modules between a user
//! process and a device.

use crate::block::{Block, BlockKind};
use crate::module::{Direction, ModuleCtx, StreamModule};
use crate::queue::{Hook, Queue};
use crate::Result;
use plan9_support::sync::Mutex;
use plan9_ninep::{errstr, NineError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A write of less than this many bytes is guaranteed to be contained by
/// a single block, making it atomic with respect to concurrent writers.
pub const MAX_ATOMIC_WRITE: usize = 32 * 1024;

/// A factory for modules that can be `push`ed by name, mirroring the
/// kernel's compiled-in table of stream modules.
#[derive(Default)]
pub struct ModuleRegistry {
    makers: Mutex<HashMap<String, ModuleMaker>>,
}

/// A registered module factory, invoked on each `push`.
type ModuleMaker = Box<dyn Fn() -> Arc<dyn StreamModule> + Send + Sync>;

impl ModuleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::default())
    }

    /// Registers a module constructor under `name`.
    pub fn register<F>(&self, name: &str, maker: F)
    where
        F: Fn() -> Arc<dyn StreamModule> + Send + Sync + 'static,
    {
        self.makers
            .lock()
            .insert(name.to_string(), Box::new(maker));
    }

    /// Instantiates the module registered under `name`.
    pub fn make(&self, name: &str) -> Result<Arc<dyn StreamModule>> {
        let makers = self.makers.lock();
        match makers.get(name) {
            Some(maker) => Ok(maker()),
            None => Err(NineError::new(format!("unknown stream module: {name}"))),
        }
    }
}

struct Slot {
    id: u64,
    module: Arc<dyn StreamModule>,
}

/// The device end's id; pushed modules count from 1.
const DEVICE: u64 = 0;
/// Where the user process writes from: above the top module.
const USER: u64 = u64::MAX;

/// Shared stream state; [`Stream`] and every [`ModuleCtx`] hold an `Arc`.
///
/// One routing rule: a block goes to the next pushed module in its
/// direction, else down to the device or up to the read queue.
pub struct StreamInner {
    /// The pushed modules, top first; the device end is not among them.
    modules: Mutex<Vec<Slot>>,
    /// How many modules are pushed: changed under `modules`' lock, read
    /// without it, so that a stream with none reads no list.
    pushed: AtomicUsize,
    /// The device end, below every pushed module; set once.
    device: OnceLock<Arc<dyn StreamModule>>,
    read_q: Queue,
    closed: AtomicBool,
    next_id: AtomicU64,
    registry: Arc<ModuleRegistry>,
}

impl StreamInner {
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn ctx(self: &Arc<Self>, my_id: u64) -> ModuleCtx {
        ModuleCtx { inner: Arc::clone(self), my_id }
    }

    /// The pushed module one hop from `from` in `dir`, or `None` for the
    /// stream's end that way.
    fn next(&self, from: u64, dir: Direction) -> Result<Option<(u64, Arc<dyn StreamModule>)>> {
        if from == DEVICE && dir == Direction::Down {
            return Err(NineError::new("no device on stream"));
        }
        if matches!(from, USER | DEVICE) && self.pushed.load(Ordering::Acquire) == 0 {
            return Ok(None);
        }
        let mods = self.modules.lock();
        let pos = match from {
            USER => -1,
            DEVICE => mods.len() as isize,
            id => mods
                .iter()
                .position(|s| s.id == id)
                .ok_or_else(|| NineError::new("module no longer on stream"))? as isize,
        };
        let next = if dir == Direction::Down { pos + 1 } else { pos - 1 };
        Ok(usize::try_from(next).ok().and_then(|i| mods.get(i)).map(|s| (s.id, Arc::clone(&s.module))))
    }

    /// Routes a block from the module `from` one hop in `dir`.
    pub(crate) fn put_from(self: &Arc<Self>, from: u64, b: Block, dir: Direction) -> Result<()> {
        if self.is_closed() && b.kind == BlockKind::Data {
            return Err(NineError::new(errstr::EHUNGUP));
        }
        match (self.next(from, dir)?, dir) {
            (Some((id, module)), Direction::Down) => module.put_down(&self.ctx(id), b),
            (Some((id, module)), Direction::Up) => module.put_up(&self.ctx(id), b),
            (None, Direction::Down) => match self.device.get() {
                Some(device) => device.put_down(&self.ctx(DEVICE), b),
                None => Err(NineError::new("no device on stream")),
            },
            // Top of the stream: data lands in the read queue for the
            // user process.
            (None, Direction::Up) => {
                let hangup = b.kind == BlockKind::Hangup;
                self.read_q.put(b)?;
                if hangup {
                    self.read_q.hangup();
                }
                Ok(())
            }
        }
    }
}

/// A bidirectional channel connecting a device to user processes.
pub struct Stream {
    inner: Arc<StreamInner>,
}

impl Stream {
    /// Creates an empty stream (no modules yet) with the given registry
    /// resolving `push name` commands.
    pub fn new(registry: Arc<ModuleRegistry>) -> Arc<Stream> {
        Arc::new(Stream {
            inner: Arc::new(StreamInner {
                modules: Mutex::named(Vec::new(), "streams.stream.modules"),
                pushed: AtomicUsize::new(0),
                device: OnceLock::new(),
                read_q: Queue::default(),
                closed: AtomicBool::new(false),
                next_id: AtomicU64::new(1),
                registry,
            }),
        })
    }

    /// Creates a stream with no registry (pushes by name will fail).
    pub fn bare() -> Arc<Stream> {
        Stream::new(ModuleRegistry::new())
    }

    /// Installs the device-end module at the bottom of the stream and
    /// returns the context its helper processes should use. A stream has
    /// one device: a second is dropped.
    pub fn set_device(&self, module: Arc<dyn StreamModule>) -> ModuleCtx {
        let _ = self.inner.device.set(module);
        self.inner.ctx(DEVICE)
    }

    /// Pushes a module instance onto the top of the stream and returns
    /// its context.
    pub fn push_module(&self, module: Arc<dyn StreamModule>) -> ModuleCtx {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut mods = self.inner.modules.lock();
        mods.insert(0, Slot { id, module });
        self.inner.pushed.store(mods.len(), Ordering::Release);
        drop(mods);
        self.inner.ctx(id)
    }

    /// Pops the top module; fails if only the device end remains.
    pub fn pop_module(&self) -> Result<()> {
        let slot = {
            let mut mods = self.inner.modules.lock();
            if mods.is_empty() {
                return Err(NineError::new("no module to pop"));
            }
            let slot = mods.remove(0);
            self.inner.pushed.store(mods.len(), Ordering::Release);
            slot
        };
        slot.module.close(&self.inner.ctx(slot.id));
        Ok(())
    }

    /// Names of the modules currently on the stream, top first, the
    /// device end last.
    pub fn module_names(&self) -> Vec<String> {
        let mods = self.inner.modules.lock();
        let device = self.inner.device.get();
        mods.iter().map(|s| &s.module).chain(device).map(|m| m.name().to_string()).collect()
    }

    /// Writes user data into the stream.
    ///
    /// The data is copied into blocks of at most [`MAX_ATOMIC_WRITE`]
    /// bytes; the last block is flagged with a delimiter "to alert
    /// downstream modules that care about write boundaries". Concurrent
    /// writes are not synchronized, but the 32 KiB block size assures
    /// atomic writes for most protocols.
    pub fn write(&self, data: &[u8]) -> Result<usize> {
        if data.is_empty() {
            return self.write_block(Block::delim(Vec::new())).map(|_| 0);
        }
        let mut chunks = data.chunks(MAX_ATOMIC_WRITE).peekable();
        while let Some(chunk) = chunks.next() {
            // Every fragment of the write carries the writer's trace,
            // so the annotation survives this fragmentation.
            let b = if chunks.peek().is_none() {
                Block::delim(chunk.to_vec()).annotate()
            } else {
                Block::data(chunk.to_vec()).annotate()
            };
            self.write_block(b)?;
        }
        Ok(data.len())
    }

    /// Inserts one block at the top of the stream, moving down.
    pub fn write_block(&self, b: Block) -> Result<()> {
        if self.inner.is_closed() {
            return Err(NineError::new(errstr::EHUNGUP));
        }
        self.inner.put_from(USER, b, Direction::Down)
    }

    /// Writes a control message.
    ///
    /// The stream system intercepts and interprets `push name`, `pop` and
    /// `hangup`; any other command travels down the stream as a control
    /// block for the processing modules and device to parse.
    pub fn write_ctl(&self, cmd: &str) -> Result<()> {
        let fields: Vec<&str> = cmd.split_whitespace().collect();
        match fields.as_slice() {
            ["push", name] => {
                let module = self.inner.registry.make(name)?;
                self.push_module(module);
                Ok(())
            }
            ["pop"] => self.pop_module(),
            ["hangup"] => {
                self.hangup_from_device();
                Ok(())
            }
            _ => self.write_block(Block::control(cmd)),
        }
    }

    /// Sends a hangup message up the stream from the device end.
    pub fn hangup_from_device(&self) {
        // blocking-ok: flow control waits for room for data, never a hangup
        let _ = self.feed_up(Block::hangup());
    }

    /// Inserts a block as if the device produced it: it moves up through
    /// every module above the device end and lands in the read queue.
    ///
    /// Devices without helper-process contexts (simple simulated wires)
    /// use this as their "interrupt side".
    pub fn feed_up(&self, b: Block) -> Result<()> {
        self.inner.put_from(DEVICE, b, Direction::Up)
    }

    /// Reads user data from the top of the stream.
    ///
    /// "The read terminates when the read count is reached or when the
    /// end of a delimited block is encountered. A per stream read lock
    /// ensures only one process can read from a stream at a time and
    /// guarantees that the bytes read were contiguous bytes from the
    /// stream." The read queue's lock is that read lock: a read is one
    /// hold of it. An empty return means end-of-file (hangup).
    pub fn read(&self, count: usize) -> Result<Vec<u8>> {
        Ok(self.inner.read_q.read(count, true).unwrap_or_default())
    }

    /// [`Stream::read`] for a reader that does not wait: `None` while
    /// nothing is at hand.
    pub fn try_read(&self, count: usize) -> Result<Option<Vec<u8>>> {
        // blocking-ok: a read told not to wait returns at an empty queue
        Ok(self.inner.read_q.read(count, false))
    }

    /// Registers the stream's readiness hook, fired when its read queue
    /// takes a block or a hangup, or closes. A stream has one reader:
    /// a second hook is dropped.
    pub fn set_rx_notify(&self, hook: Hook) {
        self.inner.read_q.set_input_hook(hook);
    }

    /// The read queue, for the device that feeds it (a pipe's other
    /// end) to watch for room.
    pub(crate) fn read_q(&self) -> &Queue {
        &self.inner.read_q
    }

    /// Whether the stream has seen a hangup.
    pub fn is_hungup(&self) -> bool {
        self.inner.read_q.is_hungup() || self.inner.is_closed()
    }

    /// Destroys the stream: closes every module (device end last) and the
    /// read queue. "The last close destroys it."
    pub fn destroy(&self) {
        if self.inner.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        let slots: Vec<(u64, Arc<dyn StreamModule>)> =
            self.inner.modules.lock().iter().map(|s| (s.id, Arc::clone(&s.module))).collect();
        let device = self.inner.device.get().map(|d| (DEVICE, Arc::clone(d)));
        for (id, module) in slots.into_iter().chain(device) {
            module.close(&self.inner.ctx(id));
        }
        self.inner.read_q.close();
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        self.destroy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module that forwards everything unchanged.
    struct PassThru;

    impl StreamModule for PassThru {
        fn name(&self) -> &str {
            "passthru"
        }
        fn put_down(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
            ctx.send_down(b)
        }
        fn put_up(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
            ctx.send_up(b)
        }
    }

    /// A loopback device: everything written down comes back up.
    struct Loopback;

    impl StreamModule for Loopback {
        fn name(&self) -> &str {
            "loop"
        }
        fn put_down(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
            if b.kind == BlockKind::Data {
                ctx.send_up(b)
            } else {
                Ok(())
            }
        }
        fn put_up(&self, ctx: &ModuleCtx, b: Block) -> Result<()> {
            ctx.send_up(b)
        }
    }

    fn loop_stream() -> Arc<Stream> {
        let s = Stream::bare();
        s.set_device(Arc::new(Loopback));
        s
    }

    #[test]
    fn write_then_read_round_trips() {
        let s = loop_stream();
        s.write(b"hello").unwrap();
        assert_eq!(s.read(100).unwrap(), b"hello");
    }

    #[test]
    fn read_stops_at_delimiter() {
        let s = loop_stream();
        s.write(b"one").unwrap();
        s.write(b"two").unwrap();
        // Each write was delimited, so reads see the boundaries.
        assert_eq!(s.read(100).unwrap(), b"one");
        assert_eq!(s.read(100).unwrap(), b"two");
    }

    #[test]
    fn read_count_splits_block_and_remainder_stays() {
        let s = loop_stream();
        s.write(b"abcdef").unwrap();
        assert_eq!(s.read(2).unwrap(), b"ab");
        assert_eq!(s.read(100).unwrap(), b"cdef");
        // The largest block there is, drained a byte at a time; the
        // last read asks for more than is left and the delimiter ends it
        // short of the next write.
        let big: Vec<u8> = (0..MAX_ATOMIC_WRITE).map(|i| (i % 251) as u8).collect();
        s.write(&big).unwrap();
        s.write(b"next").unwrap();
        let mut got: Vec<u8> = (1..big.len()).map(|_| s.read(1).unwrap()[0]).collect();
        got.extend(s.read(100).unwrap());
        assert_eq!(got, big);
        assert_eq!(s.read(100).unwrap(), b"next");
    }

    #[test]
    fn large_write_split_into_blocks_single_delim() {
        let s = loop_stream();
        let data = vec![7u8; MAX_ATOMIC_WRITE * 2 + 5];
        s.write(&data).unwrap();
        let mut got = Vec::new();
        // First read drains up to the delimiter, which arrives on the
        // third block; non-delimited blocks concatenate.
        while got.len() < data.len() {
            let part = s.read(data.len()).unwrap();
            assert!(!part.is_empty());
            got.extend_from_slice(&part);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn push_pop_by_ctl() {
        let registry = ModuleRegistry::new();
        registry.register("passthru", || Arc::new(PassThru));
        let s = Stream::new(Arc::clone(&registry));
        s.set_device(Arc::new(Loopback));
        s.write_ctl("push passthru").unwrap();
        assert_eq!(s.module_names(), vec!["passthru", "loop"]);
        s.write(b"via module").unwrap();
        assert_eq!(s.read(100).unwrap(), b"via module");
        s.write_ctl("pop").unwrap();
        assert_eq!(s.module_names(), vec!["loop"]);
        assert!(s.write_ctl("pop").is_err(), "cannot pop the device end");
    }

    #[test]
    fn push_unknown_module_fails() {
        let s = loop_stream();
        assert!(s.write_ctl("push nonesuch").is_err());
    }

    #[test]
    fn hangup_gives_eof() {
        let s = loop_stream();
        s.write(b"tail").unwrap();
        s.write_ctl("hangup").unwrap();
        assert_eq!(s.read(100).unwrap(), b"tail");
        assert_eq!(s.read(100).unwrap(), b"");
        assert!(s.is_hungup());
    }

    #[test]
    fn destroy_fails_writers() {
        let s = loop_stream();
        s.destroy();
        assert!(s.write(b"x").is_err());
    }

    #[test]
    fn feed_up_reaches_reader() {
        let s = loop_stream();
        s.feed_up(Block::delim(b"from device".to_vec())).unwrap();
        assert_eq!(s.read(100).unwrap(), b"from device");
    }

    #[test]
    fn control_blocks_pass_modules_not_reader() {
        let s = loop_stream();
        s.feed_up(Block::control("status good")).unwrap();
        s.feed_up(Block::delim(b"data".to_vec())).unwrap();
        assert_eq!(s.read(100).unwrap(), b"data");
    }

    #[test]
    fn concurrent_small_writes_are_atomic() {
        let s = loop_stream();
        let mut handles = Vec::new();
        for i in 0..4u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let payload = vec![b'a' + i; 100];
                    s.write(&payload).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every read must return a homogeneous 100-byte message.
        for _ in 0..200 {
            let msg = s.read(1000).unwrap();
            assert_eq!(msg.len(), 100);
            assert!(msg.iter().all(|&b| b == msg[0]), "interleaved write");
        }
    }

    plan9_support::props! {
        fn prop_delimiters_preserved(g, cases = 64) {
            let sizes = g.vec(1..12, |g| g.usize_in(1..5000));
            let s = loop_stream();
            for (i, n) in sizes.iter().enumerate() {
                let byte = (i % 251) as u8;
                s.write(&vec![byte; *n]).unwrap();
            }
            for (i, n) in sizes.iter().enumerate() {
                let msg = s.read(*n + 10).unwrap();
                assert_eq!(msg.len(), *n);
                assert!(msg.iter().all(|&b| b == (i % 251) as u8));
            }
        }
    }
}
