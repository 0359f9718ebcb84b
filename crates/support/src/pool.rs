//! A sharded worker pool: the kernel's soft-interrupt service threads.
//!
//! Thread-per-kproc hot paths (one timer thread per IL/TCP
//! conversation, one rx loop per machine) cap a simulated fabric at a
//! few hundred machines. This pool replaces them with a fixed set of
//! shards; producers [`submit`] short service closures keyed by
//! conversation (or station) id. A shard is a FIFO and a `running`
//! flag, not a thread: up to [`NSHARDS`] interchangeable workers take
//! ready shards off one ready list and drain them. Worker-thread count
//! is O(shards) = O(cores), never O(conversations), and same-key jobs
//! are serialized for free because a key always maps to the same shard
//! and a shard is drained by one worker at a time.
//!
//! # Run to completion
//!
//! A `submit` from outside the pool that readies an idle shard wakes a
//! parked worker (or makes one). A `submit` made *from inside a pool
//! job* to an idle shard wakes nobody: the submitting worker keeps that
//! one shard as its next and drains it as soon as its current shard is
//! empty, so a frame's delivery, the conversation service it readies
//! and the reply frame's delivery run back to back on one thread, as
//! protocol input runs behind one software interrupt. A second shard
//! readied by the same job goes on the ready list and wakes a worker,
//! so a broadcast still fans out. This is a rule, not a setting: the
//! worker is about to go idle, and waking another to do what it can do
//! next is a context switch that buys nothing.
//!
//! # Clock eras
//!
//! Workers are spawned lazily through [`vtime::kproc`](crate::vtime::kproc)
//! when a shard is readied and none is idle, stamped with the current
//! [`vtime::era`](crate::vtime::era). At every clock transition
//! ([`vtime::enter`](crate::vtime::enter) and guard drop) the era bumps
//! and [`retire`] joins the old era's workers, so a real-mode worker
//! never services jobs inside a deterministic run (it would be an alien
//! thread the single-runner census cannot serialize) and a census
//! worker never outlives its clock. Jobs queued across a transition
//! stay queued and are drained by the next era's workers, in order.
//!
//! # Lock order
//!
//! The shard lock (`support.pool.shard`) is never held while a job
//! runs, so `inet.il.conn → support.pool.shard` (a conn submitting its
//! own service) and `job takes inet.il.conn` (the worker, lock
//! released) cannot form a cycle. Below it is only the ready list's
//! lock (`support.pool.ready`), a leaf, taken by the submit that
//! readies a shard. Lockdep checks this in debug builds like any other
//! named class.
//!
//! # Job discipline
//!
//! Jobs must be short and must not block on virtual time: [`retire`]
//! joins workers during clock transitions, so a job parked on the
//! (defunct or not-yet-installed) clock would wedge the transition —
//! and a parked worker holds up its shard and the one it kept as its
//! next. Protocol service routines — drain a queue, send an ack,
//! retransmit — all fit.

use crate::sync::{Condvar, Mutex};
use crate::vtime;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shard count, and the most workers there will be: fixed so a key's
/// shard never changes across clock eras (a remap would let two
/// workers interleave one conversation's jobs). Eight matches the
/// small-multiprocessor regime the paper's CPU servers ran.
pub const NSHARDS: usize = 8;

/// A job that is run once, or one its owner queues again and again (a
/// conversation's service routine) and so does not allocate anew.
enum Job {
    Once(Box<dyn FnOnce() + Send + 'static>),
    Shared(Arc<dyn Fn() + Send + Sync + 'static>),
}

struct ShardState {
    jobs: VecDeque<Job>,
    /// On the ready list, kept by a worker as its next, or being
    /// drained: whoever queues the first job of a shard that is none
    /// of these readies it.
    running: bool,
}

struct Shard {
    state: Mutex<ShardState>,
}

static SHARDS: [Shard; NSHARDS] = [const {
    let idle = ShardState { jobs: VecDeque::new(), running: false };
    Shard { state: Mutex::named(idle, "support.pool.shard") }
}; NSHARDS];

struct Ready {
    list: VecDeque<usize>,
    /// Workers parked with nothing to take.
    idle: usize,
    /// Each worker's spawn era and the handle [`retire`] joins.
    workers: Vec<(u64, vtime::KprocHandle<()>)>,
}

struct Sched {
    ready: Mutex<Ready>,
    wake: Condvar,
}

const EMPTY: Ready = Ready { list: VecDeque::new(), idle: 0, workers: Vec::new() };

static SCHED: Sched =
    Sched { ready: Mutex::named(EMPTY, "support.pool.ready"), wake: Condvar::new() };

thread_local! {
    /// On a worker: the shard it readied from inside a job and keeps
    /// to drain next, if any. `None` off the pool.
    static NEXT: Cell<Option<Option<usize>>> = const { Cell::new(None) };
}

/// Map a conversation/station key to its shard index.
pub fn shard_of(key: u64) -> usize {
    (key % NSHARDS as u64) as usize
}

/// Per-shard submission counters, process-global like the shards
/// themselves. Observers (netlog's `pool` facility) snapshot these and
/// report deltas, so cumulative lifetime values never leak into a
/// deterministic run's report.
static SUBMITTED: [AtomicU64; NSHARDS] = [const { AtomicU64::new(0) }; NSHARDS];
static INLINE_RUN: [AtomicU64; NSHARDS] = [const { AtomicU64::new(0) }; NSHARDS];

/// A snapshot of the pool's counters: jobs enqueued per shard, jobs
/// run inline on the submitter (worker-spawn failure fallback), and
/// the instantaneous queue depth per shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs enqueued to each shard, cumulative.
    pub submitted: [u64; NSHARDS],
    /// Jobs run inline because no worker could be spawned.
    pub inline_run: [u64; NSHARDS],
    /// Jobs currently queued on each shard.
    pub depth: [u64; NSHARDS],
}

/// Snapshots the pool counters (diagnostics; see netlog's `pool`
/// facility for the rendered form).
pub fn stats() -> PoolStats {
    let mut s = PoolStats::default();
    for i in 0..NSHARDS {
        s.submitted[i] = SUBMITTED[i].load(Ordering::Relaxed);
        s.inline_run[i] = INLINE_RUN[i].load(Ordering::Relaxed);
        s.depth[i] = SHARDS[i].state.lock().jobs.len() as u64;
    }
    s
}

/// Enqueues `job` on the shard for `key`, readying the shard if it was
/// idle. Jobs with the same key run FIFO, one at a time. Fails only if
/// there is no worker and none can be spawned — the caller (e.g. a dial
/// path) should surface that as an error rather than panic.
pub fn submit(key: u64, job: impl FnOnce() + Send + 'static) -> io::Result<()> {
    enqueue(shard_of(key), Job::Once(Box::new(job))).map_err(|(e, _)| e)
}

/// [`submit`] for a job its owner submits over and over: queueing it
/// costs no allocation.
pub fn submit_shared(key: u64, job: Arc<dyn Fn() + Send + Sync>) -> io::Result<()> {
    enqueue(shard_of(key), Job::Shared(job)).map_err(|(e, _)| e)
}

/// Like [`submit`], but on worker-spawn failure runs `job` inline on
/// the calling thread instead of dropping it. For callers (the timer
/// wheel) where a late callback beats a lost one.
pub fn submit_or_run(key: u64, job: impl FnOnce() + Send + 'static) {
    let idx = shard_of(key);
    if let Err((_, job)) = enqueue(idx, Job::Once(Box::new(job))) {
        INLINE_RUN[idx].fetch_add(1, Ordering::Relaxed);
        run(job);
    }
}

fn run(job: Job) {
    match job {
        Job::Once(f) => f(),
        Job::Shared(f) => f(),
    }
}

fn enqueue(idx: usize, job: Job) -> Result<(), (io::Error, Job)> {
    let mut sh = SHARDS[idx].state.lock();
    if !sh.running {
        if let Err(e) = ready(idx) {
            return Err((e, job));
        }
        sh.running = true;
    }
    sh.jobs.push_back(job);
    drop(sh);
    SUBMITTED[idx].fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Number of jobs currently queued across all shards (diagnostics).
pub fn backlog() -> usize {
    SHARDS.iter().map(|s| s.state.lock().jobs.len()).sum()
}

/// Finds shard `idx`, idle until now, a worker. A worker readying it
/// from inside a job keeps it for itself, once; any other caller puts
/// it on the ready list and wakes a parked worker, or if none is parked
/// and fewer than [`NSHARDS`] of this era are live, may spawn one.
/// Called under the shard's lock, which is safe across the spawn:
/// under vtime the child gates until the spawner parks, by which point
/// the lock is free; in real mode the child just blocks briefly on it.
fn ready(idx: usize) -> io::Result<()> {
    if NEXT.get() == Some(None) {
        NEXT.set(Some(Some(idx)));
        return Ok(());
    }
    let era = vtime::era();
    let mut s = SCHED.ready.lock();
    let live = s.workers.iter().filter(|w| w.0 == era).count();
    // With none parked, each worker at work comes to the list as its
    // shard empties. Another is made only to have two — one that is
    // held up must not hold up the pool — or when as many shards are
    // already waiting as there are workers to come for them: a caller
    // that is quicker to ask again than its worker was to park does not
    // make a thread.
    if s.idle == 0 && live < NSHARDS && (live < 2 || s.list.len() >= live) {
        // blocking-ok: the closure runs on the spawned worker kproc,
        // not in the caller's context; checked: likewise, a panic
        // there unwinds the worker, not the caller
        match vtime::kproc("pool-worker", move || worker_loop(era)) {
            Ok(h) => s.workers.push((era, h)),
            // A live worker will come to it.
            Err(e) if live == 0 => return Err(e),
            Err(_) => {}
        }
    }
    s.list.push_back(idx);
    drop(s);
    SCHED.wake.notify_one();
    Ok(())
}

fn worker_loop(my_era: u64) {
    NEXT.set(Some(None));
    while let Some(idx) = take(my_era) {
        let mut sh = SHARDS[idx].state.lock();
        // Once the era has changed, what is queued is the next era's.
        while vtime::era() == my_era {
            let Some(job) = sh.jobs.pop_front() else { break };
            drop(sh);
            run(job);
            sh = SHARDS[idx].state.lock();
        }
        sh.running = false;
    }
}

/// The next shard for a worker to drain: the one it kept, else the
/// ready list's first, parking until there is one. `None` once the era
/// has changed and nothing is left that counts on this worker.
fn take(my_era: u64) -> Option<usize> {
    if let Some(idx) = NEXT.replace(Some(None)).flatten() {
        return Some(idx);
    }
    let mut s = SCHED.ready.lock();
    loop {
        if let Some(idx) = s.list.pop_front() {
            return Some(idx);
        }
        if vtime::era() != my_era {
            return None;
        }
        s.idle += 1;
        SCHED.wake.wait(&mut s);
        s.idle -= 1;
    }
}

/// Joins every worker from a previous era, then readies again the
/// shards they left jobs on. Called by [`vtime`](crate::vtime) at clock
/// transitions, after the era bump; the join always runs in real-time
/// mode (the clock is either not yet installed or already uninstalled),
/// so it cannot park on a virtual clock.
pub(crate) fn retire() {
    let era = vtime::era();
    let old: Vec<_> = SCHED.ready.lock().workers.extract_if(.., |w| w.0 != era).collect();
    SCHED.wake.notify_all();
    for (_, h) in old {
        let _ = h.join();
    }
    for (idx, shard) in SHARDS.iter().enumerate() {
        let mut sh = shard.state.lock();
        if !sh.running && !sh.jobs.is_empty() {
            sh.running = ready(idx).is_ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn same_key_jobs_run_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        const N: usize = 64;
        for i in 0..N {
            let log = Arc::clone(&log);
            let done = Arc::clone(&done);
            submit(7, move || {
                log.lock().push(i);
                let (cnt, cv) = &*done;
                *cnt.lock() += 1;
                cv.notify_all();
            })
            .expect("submit");
        }
        let (cnt, cv) = &*done;
        let mut g = cnt.lock();
        while *g < N {
            cv.wait(&mut g);
        }
        drop(g);
        let got = log.lock().clone();
        let want: Vec<usize> = (0..N).collect();
        assert_eq!(got, want, "shard must drain FIFO");
    }

    #[test]
    fn keys_spread_over_fixed_shards() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000u64 {
            seen.insert(shard_of(k));
            assert_eq!(shard_of(k), shard_of(k), "stable mapping");
        }
        assert_eq!(seen.len(), NSHARDS);
    }

    #[test]
    fn submit_counts_down_even_across_shards() {
        let hits = Arc::new(AtomicUsize::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        const N: usize = 100;
        for k in 0..N as u64 {
            let hits = Arc::clone(&hits);
            let done = Arc::clone(&done);
            submit(k, move || {
                hits.fetch_add(1, Ordering::SeqCst);
                let (cnt, cv) = &*done;
                *cnt.lock() += 1;
                cv.notify_all();
            })
            .expect("submit");
        }
        let (cnt, cv) = &*done;
        let mut g = cnt.lock();
        while *g < N {
            cv.wait(&mut g);
        }
        assert_eq!(hits.load(Ordering::SeqCst), N);
    }
}
