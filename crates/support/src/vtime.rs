//! A deterministic discrete-event virtual clock for the whole kernel.
//!
//! Timer-driven protocols (IL's query/rexmit timers, TCP's
//! timeout-rexmit, URP's retries) make every loss sweep burn real
//! wall-clock waiting out retransmissions, and no two runs are
//! bit-identical. This module virtualises the clock instead: under
//! [`enter`], `time::now()` reads a virtual nanosecond counter and
//! every timed wait in [`sync`](crate::sync) (and therefore
//! [`chan`](crate::chan)) becomes a *timer* on this clock rather than
//! an OS timeout.
//!
//! # The single-runner rule
//!
//! The clock keeps a census of kernel processes: threads register at
//! spawn (via [`kproc`] or an explicit [`pre_register`] token) and
//! unregister when they exit. The clock is also a cooperative
//! scheduler over that census: **at most one registered thread
//! executes at a time**. Every other registered thread is either
//! *parked* (blocked in a virtual wait) or *ready* (woken, queued for
//! its turn). When the running thread parks or exits, the scheduler
//! grants the CPU to the next ready thread, FIFO; when nothing is
//! ready, it jumps the clock to the earliest pending timer deadline
//! and wakes that waiter (ties broken by registration order). This is
//! the classic sequential discrete-event simulation rule, and the
//! serialization is what makes a seeded run replayable: the execution
//! order is a pure function of the program and the timer deadlines,
//! never of OS scheduling.
//!
//! Newly spawned kprocs do not run immediately: they queue at a gate
//! and are admitted in *spawn order* (the order their census slots
//! were reserved), so a burst of spawns admits its children
//! identically on every run no matter how the OS staggers the actual
//! thread starts. While a reserved slot has yet to arrive at the gate,
//! grants and timer jumps are held — a child racing through `clone`
//! can never lose its place in the sequence.
//!
//! Joining a kproc is a virtual event too: [`KprocHandle::join`] parks
//! on the clock until the kproc's body signals completion, so the
//! joiner re-enters the sequence at a deterministic point. Only a raw
//! OS join is invisible to the scheduler — wrap those (and any other
//! unobservable blocking) in [`block_external`].
//!
//! # Lock ordering
//!
//! The clock's internal locks are raw `std` locks (leaf locks,
//! invisible to lockdep, never held across user code): the clock state
//! lock, and one tiny state lock per [`Parker`]. The ordering is
//! `user mutex → clock state → parker`; condvar wait queues are popped
//! *before* the clock lock is taken, so the two are never nested. The
//! real-time path never touches any of this — one relaxed atomic load
//! distinguishes the modes.
//!
//! # Escape hatches
//!
//! [`block_external`] temporarily removes the calling thread from the
//! census around operations the clock cannot see (joining a non-kproc
//! OS thread, real I/O), re-entering through the gate on the way out.
//! [`time::real_now`](crate::time::real_now) reads the real monotonic
//! clock for wall-time measurements in bench harnesses.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Process-global flag: true while a virtual clock is installed. The
/// real-time fast path is this one load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The clock *era*: bumped at every install and uninstall. Long-lived
/// service threads (the [`pool`](crate::pool) shard workers, the
/// [`wheel`](crate::wheel) thread) record the era they were spawned in
/// and exit when it changes, so a thread spawned under one clock
/// regime can never service work under another — a real-mode worker
/// surviving into a virtual run would be an alien thread the
/// single-runner rule cannot see.
static ERA: AtomicU64 = AtomicU64::new(0);

/// The current clock era. Spawn-era mismatch is the retirement signal
/// for pooled service threads.
pub fn era() -> u64 {
    ERA.load(Ordering::Acquire)
}

/// Bumps the era and retires every pooled service thread spawned under
/// the previous one (notify, then join). Called at both clock
/// transitions, always in real-time mode from the worker's point of
/// view of the join.
fn retire_services() {
    ERA.fetch_add(1, Ordering::AcqRel);
    crate::wheel::retire();
    crate::pool::retire();
}

/// The installed clock, if any. A plain leaf lock: held only for a
/// clone.
static CLOCK: StdMutex<Option<Arc<VirtualClock>>> = StdMutex::new(None);

/// Serializes virtual runs: true from [`enter`] until the end of the
/// [`VtGuard`]'s drop. Waited on in real time — a second `enter` (two
/// tests of one binary, say) queues here instead of trampling the
/// installed clock.
static BUSY: (StdMutex<bool>, StdCondvar) = (StdMutex::new(false), StdCondvar::new());

fn plock<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the installed virtual clock, or `None` in real-time mode.
pub fn active() -> Option<Arc<VirtualClock>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    plock(&CLOCK).clone()
}

/// True while a virtual clock is installed.
pub fn is_virtual() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// A thread parked in a virtual wait. Shared between the parked thread,
/// the condvar's wait queue, and the clock's timer heap; whoever wakes
/// it first wins, later wakers see `woken` and move on.
pub struct Parker {
    id: u64,
    /// Whether this thread is in the census (registered with `clock`).
    /// Census threads need a scheduler grant on top of the wake; alien
    /// threads are just notified.
    counted: bool,
    /// Whether the wait has a deadline; defunct teardown reports timed
    /// waits as timed out and untimed ones as notified.
    timed: bool,
    clock: Arc<VirtualClock>,
    state: StdMutex<ParkState>,
    cv: StdCondvar,
}

struct ParkState {
    /// The wait's condition fired (a notify, a timer, or teardown).
    woken: bool,
    timed_out: bool,
    /// The scheduler handed this thread the CPU. Census threads block
    /// until woken *and* granted; only one grant is outstanding at a
    /// time.
    granted: bool,
}

impl Parker {
    pub(crate) fn id(&self) -> u64 {
        self.id
    }
}

/// An entry in the timer heap: min-ordered by (deadline, registration
/// sequence) so the wake order at equal deadlines is deterministic.
struct TimerEntry {
    deadline_ns: u64,
    seq: u64,
    parker: Arc<Parker>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ns == other.deadline_ns && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline (lowest seq on ties) on top.
        (other.deadline_ns, other.seq).cmp(&(self.deadline_ns, self.seq))
    }
}

struct ClockState {
    /// Threads in the census.
    registered: usize,
    /// Census threads currently granted the CPU (0 or 1 in steady
    /// state; the counters saturate rather than assert so teardown
    /// races stay harmless).
    running: usize,
    /// Census slots reserved by `pre_register` whose threads have yet
    /// to arrive at the gate. Grants and timer jumps are held while any
    /// are outstanding.
    pending: usize,
    /// Next parker id; also the deterministic tie-break and spawn-order
    /// sequence.
    next_id: u64,
    /// Woken census threads awaiting their grant, in wake order.
    ready: VecDeque<Arc<Parker>>,
    /// Gate arrivals (new kprocs, `block_external` returns) not yet
    /// admitted to `ready`; flushed in spawn-sequence order once no
    /// slots are pending.
    arrivals: Vec<Arc<Parker>>,
    timers: BinaryHeap<TimerEntry>,
    /// Every currently-parked parker, by id, so teardown can wake them.
    waiting: HashMap<u64, Arc<Parker>>,
    /// Set at uninstall: no further parks, grants, or advances.
    defunct: bool,
    /// How many times the clock has jumped forward.
    advances: u64,
}

/// The discrete-event virtual clock. Install with [`enter`]; read
/// through [`time::now`](crate::time::now).
pub struct VirtualClock {
    /// Real instant at install; virtual instants are `epoch + now_ns`,
    /// so every `Instant` in the program stays a plain `std` instant
    /// and existing deadline fields need no type changes.
    epoch: Instant,
    now_ns: AtomicU64,
    state: StdMutex<ClockState>,
}

impl VirtualClock {
    fn new() -> VirtualClock {
        VirtualClock {
            epoch: Instant::now(),
            now_ns: AtomicU64::new(0),
            state: StdMutex::new(ClockState {
                registered: 0,
                running: 0,
                pending: 0,
                next_id: 0,
                ready: VecDeque::new(),
                arrivals: Vec::new(),
                timers: BinaryHeap::new(),
                waiting: HashMap::new(),
                defunct: false,
                advances: 0,
            }),
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> Instant {
        self.epoch + Duration::from_nanos(self.now_ns.load(Ordering::Acquire))
    }

    /// Virtual time elapsed since the clock was installed.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.now_ns.load(Ordering::Acquire))
    }

    /// How many times the clock has jumped to a timer deadline.
    pub fn advances(&self) -> u64 {
        plock(&self.state).advances
    }

    /// Census snapshot: (registered, parked).
    pub fn census(&self) -> (usize, usize) {
        let st = plock(&self.state);
        let parked = st.waiting.values().filter(|p| p.counted).count();
        (st.registered, parked)
    }

    fn to_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sleeps for `d` of virtual time (a pure timer park). A zero
    /// duration is a deterministic yield: the caller re-queues behind
    /// every already-ready thread.
    pub fn sleep(self: &Arc<Self>, d: Duration) {
        let deadline = self.now() + d;
        let p = self.park_begin(Some(deadline));
        self.park_wait(&p);
    }

    /// Registers a parker for the calling thread, moving it from
    /// running to parked and arming a timer if `deadline` is set. Must
    /// be called *before* releasing the lock whose condvar the caller
    /// is waiting on — the parker must be discoverable by a notifier
    /// the instant the lock is free.
    pub(crate) fn park_begin(self: &Arc<Self>, deadline: Option<Instant>) -> Arc<Parker> {
        let counted = REG.with(|r| {
            r.borrow()
                .as_ref()
                .is_some_and(|t| Arc::ptr_eq(&t.clock, self))
        });
        let mut st = plock(&self.state);
        let id = st.next_id;
        st.next_id += 1;
        let parker = Arc::new(Parker {
            id,
            counted,
            timed: deadline.is_some(),
            clock: Arc::clone(self),
            state: StdMutex::new(ParkState {
                woken: false,
                timed_out: false,
                granted: false,
            }),
            cv: StdCondvar::new(),
        });
        if st.defunct {
            // The clock was torn down concurrently: hand back a
            // pre-woken parker (one spurious wake, caller re-checks).
            {
                let mut ps = plock(&parker.state);
                ps.woken = true;
                ps.timed_out = parker.timed;
                ps.granted = true;
            }
            return parker;
        }
        if counted {
            // The caller gives up the CPU; the dispatch below hands it
            // to the next ready thread or advances the clock.
            st.running = st.running.saturating_sub(1);
        }
        st.waiting.insert(id, Arc::clone(&parker));
        if let Some(d) = deadline {
            let dns = self.to_ns(d);
            if dns <= self.now_ns.load(Ordering::Acquire) {
                // Already-past deadline: an immediate timeout, never an
                // OS wait — the thread just re-queues for its grant.
                wake_locked(&mut st, &parker, true);
            } else {
                st.timers.push(TimerEntry {
                    deadline_ns: dns,
                    seq: id,
                    parker: Arc::clone(&parker),
                });
            }
        }
        self.dispatch(&mut st);
        parker
    }

    /// Blocks the calling thread until its parker is woken — and, for
    /// census threads, granted the CPU. Returns whether the wake was a
    /// timeout.
    pub(crate) fn park_wait(&self, p: &Parker) -> bool {
        let mut ps = plock(&p.state);
        while !ps.woken || (p.counted && !ps.granted) {
            ps = p.cv.wait(ps).unwrap_or_else(PoisonError::into_inner);
        }
        ps.timed_out
    }

    /// Wakes `p` as a notification (not a timeout). Returns false if it
    /// was already woken (the notify should be retried on another
    /// parker).
    pub(crate) fn wake_notified(p: &Arc<Parker>) -> bool {
        let clock = &p.clock;
        let mut st = plock(&clock.state);
        let fresh = wake_locked(&mut st, p, false);
        if fresh {
            clock.dispatch(&mut st);
        }
        fresh
    }

    /// The scheduler: if no census thread holds the CPU and every
    /// reserved slot has arrived, admit gate arrivals (in spawn order),
    /// grant the next ready thread, or — when nothing is ready — jump
    /// the clock to the earliest timer deadline and wake that waiter.
    fn dispatch(&self, st: &mut ClockState) {
        if st.defunct || st.running > 0 || st.pending > 0 {
            return;
        }
        loop {
            if !st.arrivals.is_empty() {
                // Spawn-sequence order, not OS thread-start order.
                st.arrivals.sort_by_key(|p| p.id);
                let admitted: Vec<Arc<Parker>> = st.arrivals.drain(..).collect();
                st.ready.extend(admitted);
            }
            if let Some(p) = st.ready.pop_front() {
                st.running += 1;
                {
                    let mut ps = plock(&p.state);
                    ps.granted = true;
                }
                p.cv.notify_one();
                return;
            }
            // Quiescent: every census thread is parked and none is
            // queued. Jump to the earliest timer.
            let Some(entry) = st.timers.pop() else {
                // No timers either. An external thread may still
                // notify; if not, this is a genuine deadlock and the
                // usual debugging applies.
                return;
            };
            if plock(&entry.parker.state).woken {
                // Stale: this parker was already notified; its heap
                // entry just hadn't been collected.
                continue;
            }
            let now = self.now_ns.load(Ordering::Acquire);
            if entry.deadline_ns > now {
                self.now_ns.store(entry.deadline_ns, Ordering::Release);
                st.advances += 1;
            }
            let counted = entry.parker.counted;
            wake_locked(st, &entry.parker, true);
            if !counted {
                // An alien waiter was notified directly; it re-enters
                // the clock (or not) on its own schedule.
                return;
            }
            // A census waiter: it is now at the head of `ready`, and
            // the loop grants it.
        }
    }

    /// Reserves a census slot for a thread about to be spawned; the
    /// returned sequence fixes its admission order at the gate.
    fn reserve(&self) -> u64 {
        let mut st = plock(&self.state);
        st.registered += 1;
        st.pending += 1;
        let seq = st.next_id;
        st.next_id += 1;
        seq
    }

    /// Releases a reserved slot whose thread never arrived (failed
    /// spawn, unadopted token).
    fn release_slot(&self) {
        let mut st = plock(&self.state);
        st.registered = st.registered.saturating_sub(1);
        st.pending = st.pending.saturating_sub(1);
        self.dispatch(&mut st);
    }

    /// Removes an exiting (running) thread from the census and hands
    /// the CPU on.
    fn unregister_running(&self) {
        let mut st = plock(&self.state);
        st.registered = st.registered.saturating_sub(1);
        st.running = st.running.saturating_sub(1);
        self.dispatch(&mut st);
    }

    /// Queues the calling thread at the gate under sequence `seq` and
    /// blocks until the scheduler grants it the CPU. `from_pending`
    /// marks arrivals that consume a reserved slot.
    fn gate_in(self: &Arc<Self>, seq: u64, from_pending: bool) {
        let parker = {
            let mut st = plock(&self.state);
            if from_pending {
                st.pending = st.pending.saturating_sub(1);
            }
            if st.defunct {
                return;
            }
            let parker = Arc::new(Parker {
                id: seq,
                counted: true,
                timed: false,
                clock: Arc::clone(self),
                state: StdMutex::new(ParkState {
                    // Not waiting for any condition — only for the
                    // grant.
                    woken: true,
                    timed_out: false,
                    granted: false,
                }),
                cv: StdCondvar::new(),
            });
            st.arrivals.push(Arc::clone(&parker));
            self.dispatch(&mut st);
            parker
        };
        self.park_wait(&parker);
    }
}

/// Wakes `p` under the clock lock: flips its flag and removes it from
/// the waiting map. A census parker is queued for its scheduler grant;
/// an alien (or teardown-era) parker is signalled directly. Returns
/// false if it was already woken.
fn wake_locked(st: &mut ClockState, p: &Arc<Parker>, timed_out: bool) -> bool {
    let mut ps = plock(&p.state);
    if ps.woken {
        return false;
    }
    ps.woken = true;
    ps.timed_out = timed_out;
    if st.defunct || !p.counted {
        ps.granted = true;
        drop(ps);
        st.waiting.remove(&p.id);
        p.cv.notify_one();
    } else {
        drop(ps);
        st.waiting.remove(&p.id);
        st.ready.push_back(Arc::clone(p));
    }
    true
}

thread_local! {
    static REG: std::cell::RefCell<Option<ThreadReg>> =
        const { std::cell::RefCell::new(None) };
}

/// Census membership for the owning thread; dropping it (at thread
/// exit, via TLS destruction) unregisters.
struct ThreadReg {
    clock: Arc<VirtualClock>,
}

impl Drop for ThreadReg {
    fn drop(&mut self) {
        self.clock.unregister_running();
    }
}

/// A census slot reserved by the spawning thread, to be adopted by the
/// child. Reserving *before* the spawn closes the gap where the parent
/// continues (and possibly quiesces the system) while the child has not
/// yet registered itself — and fixes the child's admission order at the
/// gate. If the token is dropped unadopted (spawn failed), the slot is
/// released.
pub struct KprocToken {
    clock: Option<Arc<VirtualClock>>,
    seq: u64,
}

/// Reserves a census slot for a thread about to be spawned. Returns an
/// inert token in real-time mode.
pub fn pre_register() -> KprocToken {
    match active() {
        Some(c) => {
            let seq = c.reserve();
            KprocToken { clock: Some(c), seq }
        }
        None => KprocToken { clock: None, seq: 0 },
    }
}

impl KprocToken {
    /// Adopts the reserved slot for the calling thread (call first
    /// thing in the spawned closure) and blocks until the scheduler
    /// admits it.
    pub fn adopt(mut self) {
        if let Some(c) = self.clock.take() {
            let seq = self.seq;
            let duplicate = REG.with(|r| {
                let mut r = r.borrow_mut();
                if r.as_ref().is_some_and(|t| Arc::ptr_eq(&t.clock, &c)) {
                    true
                } else {
                    // Replacing a registration on an older clock drops
                    // it (unregistering there) first.
                    *r = Some(ThreadReg { clock: Arc::clone(&c) });
                    false
                }
            });
            if duplicate {
                // Already registered: release the duplicate slot.
                c.release_slot();
            } else {
                c.gate_in(seq, true);
            }
        }
    }
}

impl Drop for KprocToken {
    fn drop(&mut self) {
        if let Some(c) = self.clock.take() {
            c.release_slot();
        }
    }
}

/// The completion flag a kproc raises as its body returns; kept apart
/// from the OS `JoinHandle` so joins can wait on the virtual clock.
type DoneFlag = Arc<(crate::sync::Mutex<bool>, crate::sync::Condvar)>;

/// A handle to a kernel process spawned with [`kproc`].
pub struct KprocHandle<T> {
    inner: std::thread::JoinHandle<T>,
    done: DoneFlag,
}

impl<T> KprocHandle<T> {
    /// True once the kproc's OS thread has finished.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Waits for the kproc to finish and returns its result.
    ///
    /// Under a virtual clock this is a *virtual* event: the caller
    /// parks on the clock until the kproc's body signals completion,
    /// so the join re-enters the deterministic sequence — unlike a raw
    /// OS join, which the scheduler cannot see. The trailing OS-thread
    /// reap is a bounded real wait: by the time the joiner is granted
    /// the CPU the kproc has already left the census, so the reap
    /// never depends on virtual progress.
    pub fn join(self) -> std::thread::Result<T> {
        {
            let (flag, cv) = &*self.done;
            let mut done = flag.lock();
            while !*done {
                cv.wait(&mut done);
            }
        }
        self.inner.join()
    }
}

/// Spawns a named kernel process registered with the virtual-time
/// census. In real-time mode this is exactly a named `std` thread
/// spawn. All kernel helper threads go through here so the clock's
/// scheduler sees every runnable thread.
pub fn kproc<T, F>(name: &str, f: F) -> std::io::Result<KprocHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let token = pre_register();
    let done: DoneFlag = Arc::new((crate::sync::Mutex::new(false), crate::sync::Condvar::new()));
    let done2 = Arc::clone(&done);
    let inner = std::thread::Builder::new().name(name.to_string()).spawn(move || {
        // Raised on every exit path — a panicking kproc must still wake
        // joiners parked on the virtual clock. The guard drops before
        // TLS destructors, so the census sees: signal, then unregister.
        struct Signal(DoneFlag);
        impl Drop for Signal {
            fn drop(&mut self) {
                *self.0 .0.lock() = true;
                self.0 .1.notify_all();
            }
        }
        token.adopt();
        let _signal = Signal(done2);
        f()
    })?;
    Ok(KprocHandle { inner, done })
}

/// Runs `f` with the calling thread removed from the census: use around
/// operations the clock cannot observe (joining a non-kproc OS thread,
/// blocking I/O), which would otherwise stall virtual time by holding
/// the CPU forever. Re-enters through the scheduler gate on the way
/// out, panic-safe. A no-op when the thread is unregistered or the
/// clock is real.
///
/// Note the re-entry point in the virtual sequence depends on when `f`
/// returns in *real* time; inside a deterministic scenario, prefer
/// [`KprocHandle::join`], which needs no escape hatch.
pub fn block_external<R>(f: impl FnOnce() -> R) -> R {
    struct Rereg(Option<Arc<VirtualClock>>);
    impl Drop for Rereg {
        fn drop(&mut self) {
            if let Some(c) = self.0.take() {
                let seq = {
                    let mut st = plock(&c.state);
                    st.registered += 1;
                    let seq = st.next_id;
                    st.next_id += 1;
                    seq
                };
                REG.with(|r| *r.borrow_mut() = Some(ThreadReg { clock: Arc::clone(&c) }));
                c.gate_in(seq, false);
            }
        }
    }
    let guard = Rereg(REG.with(|r| r.borrow_mut().take()).map(|t| {
        let c = Arc::clone(&t.clock);
        drop(t); // unregisters (and may advance the clock)
        c
    }));
    let out = f();
    drop(guard);
    out
}

/// A guard for an installed virtual clock; dropping it uninstalls the
/// clock and wakes every remaining waiter (timed waits report timeout,
/// untimed ones a notification) so the system can wind down in real
/// time.
pub struct VtGuard {
    clock: Arc<VirtualClock>,
}

impl VtGuard {
    /// The installed clock (for elapsed/advance readings).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }
}

/// Installs a fresh virtual clock process-wide and registers the
/// calling thread with its census (holding the CPU grant). Virtual
/// runs are process-global and must not overlap: while another
/// thread's clock is installed this waits, in real time, for its guard
/// to drop. Panics when called from inside a virtual run, which would
/// wait for itself.
pub fn enter() -> VtGuard {
    assert!(
        REG.with(|r| r.borrow().is_none()),
        "vtime: enter() from a thread already inside a virtual run"
    );
    {
        let mut busy = plock(&BUSY.0);
        while *busy {
            busy = BUSY.1.wait(busy).unwrap_or_else(PoisonError::into_inner);
        }
        *busy = true;
    }
    // Retire real-mode pool/wheel service threads first: they were
    // spawned outside any census and would keep draining work (as
    // invisible aliens) once the clock is live. Fresh workers respawn
    // lazily inside the census on the next submit/schedule.
    retire_services();
    let clock = Arc::new(VirtualClock::new());
    *plock(&CLOCK) = Some(Arc::clone(&clock));
    ACTIVE.store(true, Ordering::Release);
    {
        let mut st = plock(&clock.state);
        st.registered += 1;
        st.running += 1;
    }
    REG.with(|r| *r.borrow_mut() = Some(ThreadReg { clock: Arc::clone(&clock) }));
    // Sweep the transition window: between the retire above and the
    // install, a straggling real-mode thread (an in-flight close
    // handshake, a frame still on the wheel) may have called
    // schedule/submit and lazily spawned a worker stamped with the new
    // era — a real thread the census cannot see, which would service
    // virtual-era timers nondeterministically. Bump the era once more
    // and join any such worker; the virtual era's workers respawn
    // lazily inside the census on the next schedule/submit.
    retire_services();
    VtGuard { clock }
}

impl Drop for VtGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        *plock(&CLOCK) = None;
        // Mark defunct before releasing the installer's census slot so
        // the unregister cannot fire a final grant mid-teardown.
        {
            let mut st = plock(&self.clock.state);
            st.defunct = true;
        }
        REG.with(|r| {
            let mut r = r.borrow_mut();
            if r.as_ref().is_some_and(|t| Arc::ptr_eq(&t.clock, &self.clock)) {
                *r = None; // drops the ThreadReg, unregistering
            }
        });
        // Wake everything still parked or queued; new waits take the
        // real path.
        let mut st = plock(&self.clock.state);
        let waiting: Vec<Arc<Parker>> = st.waiting.values().cloned().collect();
        for p in waiting {
            let timed_out = p.timed;
            wake_locked(&mut st, &p, timed_out);
        }
        let mut stranded: Vec<Arc<Parker>> = st.ready.drain(..).collect();
        stranded.append(&mut st.arrivals);
        for p in stranded {
            {
                let mut ps = plock(&p.state);
                ps.woken = true;
                ps.granted = true;
            }
            p.cv.notify_one();
        }
        st.timers.clear();
        drop(st);
        // Retire the census-era pool/wheel workers: the wakes above
        // released them from their parks, the era bump makes their
        // loops exit, and the joins below run in real time (the clock
        // is already uninstalled).
        retire_services();
        *plock(&BUSY.0) = false;
        BUSY.1.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Installing the global clock is reserved for dedicated integration
    // test binaries (tests/vtime.rs); in-crate tests only exercise the
    // pieces that need no global state.

    #[test]
    fn timer_heap_orders_by_deadline_then_seq() {
        let clock = Arc::new(VirtualClock::new());
        let mk = |seq: u64| {
            Arc::new(Parker {
                id: seq,
                counted: false,
                timed: true,
                clock: Arc::clone(&clock),
                state: StdMutex::new(ParkState {
                    woken: false,
                    timed_out: false,
                    granted: false,
                }),
                cv: StdCondvar::new(),
            })
        };
        let mut heap = BinaryHeap::new();
        for (at, seq) in [(50u64, 2u64), (10, 5), (50, 1), (10, 3)] {
            heap.push(TimerEntry {
                deadline_ns: at,
                seq,
                parker: mk(seq),
            });
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.deadline_ns, e.seq))
            .collect();
        assert_eq!(order, vec![(10, 3), (10, 5), (50, 1), (50, 2)]);
    }

    #[test]
    fn unadopted_token_releases_its_slot() {
        // With no clock installed the token is inert.
        let t = pre_register();
        drop(t);
        assert!(active().is_none());
    }

    #[test]
    fn block_external_is_noop_when_unregistered() {
        assert_eq!(block_external(|| 7), 7);
    }
}
