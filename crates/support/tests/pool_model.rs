//! The worker pool against a reference model: whatever is submitted,
//! from outside the pool or from inside its jobs, on the real clock or
//! a virtual one, across a clock transition or not, every job runs
//! once, a key's jobs run in the order they were submitted, no two jobs
//! of a shard run at once, and nothing is left queued. And the one rule
//! the scheduler adds to a FIFO per shard: an idle shard readied from
//! inside a job is drained by the thread that readied it, a second one
//! by another; one readied by a thread outside the pool that holds no
//! lock is drained by that thread before its submit returns, and by a
//! worker when it holds one.
//!
//! One test, in a binary of its own: the pool is the process's, a
//! virtual run retires its workers and the timer wheel's, and the model
//! counts on shards being idle when it says so. (Hence not beside the
//! pool's unit tests: those share a binary with the wheel's and the
//! channels', which run on the real clock and would be stranded.)

use plan9_support::check::Gen;
use plan9_support::pool::{self, NSHARDS};
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::{time, vtime};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

const KEYS: usize = 12;

/// Keys below this are the test thread's, submitted from outside the
/// pool; the rest are its jobs'. The two share shards 0 to 3.
const OUTSIDE: usize = KEYS / 2;

/// A job to submit, and the jobs it submits from inside the pool.
struct Plan {
    key: usize,
    /// Through `submit_or_run` rather than `submit`.
    or_run: bool,
    inner: Vec<Plan>,
}

fn plan(g: &mut Gen, depth: usize) -> Plan {
    let inner = if depth < 2 { g.vec(0..4 - depth, |g| plan(g, depth + 1)) } else { Vec::new() };
    let key = if depth == 0 { g.usize_in(0..OUTSIDE) } else { g.usize_in(OUTSIDE..KEYS) };
    Plan { key, or_run: g.bool(), inner }
}

#[derive(Default)]
struct Model {
    /// Per key, how many jobs have been submitted: the count is the
    /// job's place in the order. A key of the jobs' has its lock held
    /// across the submit; one of the test thread's has no other
    /// submitter, and is submitted holding no lock.
    submitted: [Mutex<usize>; KEYS],
    /// Per key, the places of the jobs that have run, as they ran.
    ran: [Mutex<Vec<usize>>; KEYS],
    /// Per shard, whether one of its jobs is running.
    busy: [AtomicBool; NSHARDS],
    overlaps: AtomicUsize,
    /// Jobs submitted and not yet finished.
    outstanding: Mutex<usize>,
    done: Condvar,
}

impl Model {
    fn submit(self: &Arc<Self>, p: Plan) {
        let mut place = self.submitted[p.key].lock();
        let (m, key, seq) = (Arc::clone(self), p.key, *place);
        *place += 1;
        if key < OUTSIDE {
            drop(place);
        }
        *self.outstanding.lock() += 1;
        let or_run = p.or_run;
        let job = move || m.run(key, seq, p.inner);
        if or_run {
            pool::submit_or_run(key as u64, job);
        } else {
            pool::submit(key as u64, job).expect("submit");
        }
    }

    fn run(self: &Arc<Self>, key: usize, seq: usize, inner: Vec<Plan>) {
        let shard = pool::shard_of(key as u64);
        if self.busy[shard].swap(true, Ordering::SeqCst) {
            self.overlaps.fetch_add(1, Ordering::SeqCst);
        }
        self.ran[key].lock().push(seq);
        inner.into_iter().for_each(|p| self.submit(p));
        self.busy[shard].store(false, Ordering::SeqCst);
        *self.outstanding.lock() -= 1;
        self.done.notify_all();
    }

    /// Waits for every job submitted so far, and those they submit, to
    /// have run: a minute, of whichever clock is installed, is for ever.
    fn quiesce(&self) {
        let deadline = time::now() + Duration::from_secs(60);
        let mut left = self.outstanding.lock();
        while *left > 0 {
            let depth = pool::stats().depth;
            assert!(time::now() < deadline, "{} jobs never ran; queued {depth:?}", *left);
            self.done.wait_for(&mut left, Duration::from_millis(200));
        }
    }
}

/// Who ran the three jobs of [`kept_and_handed_on`].
#[derive(Default)]
struct Ran {
    first: Mutex<Option<ThreadId>>,
    second: Mutex<Option<ThreadId>>,
    second_ran: Condvar,
}

/// A job on shard 0 readies shards 1 and 2, both idle, and does not
/// return until the second one's job has run. Returns the threads of
/// the job itself, the first job it submitted and the second.
fn kept_and_handed_on() -> [ThreadId; 3] {
    let ran = Arc::new(Ran::default());
    let (tx, rx) = plan9_support::chan::unbounded();
    let r = Arc::clone(&ran);
    pool::submit(0, move || {
        let (r1, r2) = (Arc::clone(&r), Arc::clone(&r));
        pool::submit(1, move || *r1.first.lock() = Some(std::thread::current().id())).unwrap();
        pool::submit(2, move || {
            *r2.second.lock() = Some(std::thread::current().id());
            r2.second_ran.notify_all();
        })
        .unwrap();
        let mut second = r.second.lock();
        while second.is_none() {
            r.second_ran.wait(&mut second);
        }
        tx.send(std::thread::current().id()).unwrap();
    })
    .unwrap();
    let submitter = rx.recv_timeout(Duration::from_secs(60)).expect("the second shard found no worker");
    let deadline = time::now() + Duration::from_secs(60);
    while ran.first.lock().is_none() {
        assert!(time::now() < deadline, "the shard the worker kept was never drained");
        time::sleep(Duration::from_millis(1));
    }
    let (first, second) = (ran.first.lock().unwrap(), ran.second.lock().unwrap());
    [submitter, first, second]
}

/// Where a job ran: on the submitting thread or not, and the name of
/// the thread.
type Runner = (bool, String);

/// Waits for `slot` to be filled by a job.
fn ran<T: Clone>(slot: &Mutex<Option<T>>) -> T {
    let deadline = time::now() + Duration::from_secs(60);
    loop {
        let filled = slot.lock().clone();
        if let Some(v) = filled {
            return v;
        }
        assert!(time::now() < deadline, "a submitted job never ran");
        time::sleep(Duration::from_millis(1));
    }
}

fn runner(me: ThreadId) -> Runner {
    let t = std::thread::current();
    (t.id() == me, t.name().unwrap_or("").to_string())
}

/// Submits a job to `key` from this thread, holding a lock or not.
/// Returns where it ran, and whether it had when the submit returned.
fn submitted_from_here(key: u64, holding: bool) -> (Runner, bool) {
    let (lock, slot) = (Mutex::new(()), Arc::new(Mutex::new(None)));
    let held = holding.then(|| lock.lock());
    let (s, me) = (Arc::clone(&slot), std::thread::current().id());
    pool::submit(key, move || *s.lock() = Some(runner(me))).unwrap();
    let at_once = slot.lock().is_some();
    drop(held);
    (ran(&slot), at_once)
}

/// A job run by its submitter submits another to an idle shard, which
/// runs on the same thread, once the first has returned: the list of
/// who ran, in order, as the submit returned.
fn kept_by_the_submitter() -> Vec<(&'static str, Runner)> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let (l, me) = (Arc::clone(&log), std::thread::current().id());
    pool::submit(4, move || {
        let inner = Arc::clone(&l);
        pool::submit(5, move || inner.lock().push(("inner", runner(me)))).unwrap();
        l.lock().push(("outer", runner(me)));
    })
    .unwrap();
    let got = log.lock().clone();
    got
}

/// A job run by its submitter changes the clock's era, as a virtual run
/// beginning and ending does, with a second job queued behind it on its
/// shard. The submitter's drain stops at the change; the second job is
/// readied again and runs on a worker of the new era. `None` when the
/// first job found its shard busy and ran on a worker.
fn readied_again_after_an_era_change() -> Option<Runner> {
    let (slot, on_me) = (Arc::new(Mutex::new(None)), Arc::new(Mutex::new(false)));
    let (s, o, me) = (Arc::clone(&slot), Arc::clone(&on_me), std::thread::current().id());
    pool::submit(6, move || {
        pool::submit(6, move || *s.lock() = Some(runner(me))).unwrap();
        // A worker would join itself in the era's change.
        if runner(me).0 {
            *o.lock() = true;
            drop(vtime::enter());
        }
    })
    .unwrap();
    let second = ran(&slot);
    let mine = *on_me.lock();
    mine.then_some(second)
}

/// Gives the workers of the model's run a moment to let go of their
/// shards, and `check` a few tries: only the pool sees a worker between
/// a shard's last job and letting go of it, which on the real clock is
/// where one may still be when the last job has been counted.
fn within_tries(mut check: impl FnMut() -> bool) -> bool {
    (0..3).any(|_| {
        time::sleep(Duration::from_millis(5));
        check()
    })
}

fn case(g: &mut Gen) {
    // On a virtual clock the submitter holds the processor until it
    // waits, so everything its jobs hand on is still queued at a
    // transition; on the real clock the workers run beside it.
    let mut clock = g.bool().then(vtime::enter);
    let transition = g.bool();
    let m = Arc::new(Model::default());
    let plans = g.vec(1..40, |g| plan(g, 0));
    let half = plans.len() / 2;
    for (i, p) in plans.into_iter().enumerate() {
        if transition && i == half {
            // Off the clock and on again, or on and off: either way the
            // era changes, twice over, under queued jobs.
            match clock.take() {
                Some(vt) => drop(vt),
                None => drop(vtime::enter()),
            }
        }
        m.submit(p);
    }
    m.quiesce();
    for (key, ran) in m.ran.iter().enumerate() {
        let n = *m.submitted[key].lock();
        assert_eq!(*ran.lock(), (0..n).collect::<Vec<_>>(), "key {key}: each job once, in order");
    }
    assert_eq!(m.overlaps.load(Ordering::SeqCst), 0, "two jobs of one shard ran at once");
    assert_eq!(pool::stats().depth, [0; NSHARDS]);
    let kept = within_tries(|| {
        let [submitter, first, second] = kept_and_handed_on();
        assert_ne!(second, submitter, "the second shard a job readies is another worker's");
        first == submitter
    });
    assert!(kept, "the first shard a job readies is its worker's next");
    let here = within_tries(|| submitted_from_here(3, false) == ((true, here_name()), true));
    assert!(here, "a submitter holding no lock runs what it readied before the submit returns");
    let ((on_me, name), _) = submitted_from_here(3, true);
    assert!(!on_me && name == "pool-worker", "a submitter holding a lock ran a job on {name}");
    let here = (true, here_name());
    let kept = within_tries(|| kept_by_the_submitter() == [("outer", here.clone()), ("inner", here.clone())]);
    assert!(kept, "a submit inside a job run by its submitter is kept for after the job");
    drop(clock);
    let again = within_tries(|| {
        readied_again_after_an_era_change().inspect(|(on_me, name)| {
            assert!(!on_me && name == "pool-worker", "what was left at the era's change ran on {name}");
        })
        .is_some()
    });
    assert!(again, "the submitter never drained its own shard");
    assert_eq!(pool::stats().depth, [0; NSHARDS]);
}

fn here_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

plan9_support::props! {
    fn prop_pool_is_a_fifo_per_key_that_runs_to_completion(g, cases = 60) {
        case(g);
    }
}
