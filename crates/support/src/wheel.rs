//! The shared timer wheel: one thread arms every protocol timer.
//!
//! IL and TCP used to spawn a polling `il-timer`/`tcp-timer` kproc per
//! conversation — 10k conversations meant 10k threads, each waking
//! every few milliseconds whether or not anything was due. The wheel
//! inverts that: conversations [`schedule`] a deadline callback keyed
//! by conversation id, a single wheel thread sleeps until the
//! *earliest* deadline (a virtual park under vtime, so an idle fabric
//! generates zero clock ticks), and due callbacks are dispatched to
//! the [`pool`](crate::pool) shard for their key, which serializes all
//! of a conversation's service work.
//!
//! Deadlines are kept in a `BTreeMap` ordered by `(deadline, seq)`:
//! firing order at equal deadlines is insertion order, deterministic
//! under the virtual clock. [`cancel`] is O(log n) by [`TimerId`].
//!
//! The wheel thread is era-stamped and retired at clock transitions
//! exactly like the pool workers (see [`pool`](crate::pool) for the
//! rationale); pending timers survive a transition and re-arm the next
//! era's wheel thread on the following [`schedule`].
//!
//! Lock order: `support.wheel` is a leaf. Due entries are collected
//! under the lock but *fired* after it is released, so a callback may
//! freely take conversation locks and re-schedule.

use crate::sync::{Condvar, Mutex};
use crate::time;
use crate::vtime;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

type Callback = Box<dyn FnOnce() + Send + 'static>;

/// Identifies a scheduled timer for [`cancel`]. The pair is the map
/// key: the deadline plus a global sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    deadline: Instant,
    seq: u64,
}

impl TimerId {
    /// The instant this timer is armed to fire at.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

struct Entry {
    /// Pool shard key (conversation id): the callback runs on this
    /// key's shard so it serializes with the conversation's other
    /// service jobs.
    key: u64,
    cb: Callback,
}

struct WheelState {
    timers: BTreeMap<(Instant, u64), Entry>,
    next_seq: u64,
    worker: Option<(u64, vtime::KprocHandle<()>)>,
}

struct Wheel {
    state: Mutex<WheelState>,
    cv: Condvar,
}

fn wheel() -> &'static Wheel {
    static WHEEL: OnceLock<Wheel> = OnceLock::new();
    WHEEL.get_or_init(|| Wheel {
        state: Mutex::named(
            WheelState { timers: BTreeMap::new(), next_seq: 0, worker: None },
            "support.wheel",
        ),
        cv: Condvar::new(),
    })
}

/// Arms a callback to fire at `deadline`, dispatched to the pool shard
/// for `key`. Returns a [`TimerId`] for [`cancel`]. Fails only if the
/// wheel thread needed spawning and the spawn failed — dial/announce
/// paths surface that as a connection error.
pub fn schedule(
    key: u64,
    deadline: Instant,
    cb: impl FnOnce() + Send + 'static,
) -> io::Result<TimerId> {
    let w = wheel();
    let mut st = w.state.lock();
    ensure_worker(&mut st)?;
    let seq = st.next_seq;
    st.next_seq += 1;
    let earliest_before = st.timers.keys().next().copied();
    st.timers.insert((deadline, seq), Entry { key, cb: Box::new(cb) });
    let is_new_earliest = earliest_before.is_none_or(|k| (deadline, seq) < k);
    drop(st);
    SCHEDULED.fetch_add(1, Ordering::Relaxed);
    if is_new_earliest {
        // The wheel thread is parked until the old earliest deadline;
        // an earlier arrival must re-aim its sleep.
        w.cv.notify_all();
    }
    Ok(TimerId { deadline, seq })
}

/// Disarms a timer. Returns false if it already fired (or was
/// cancelled); the callback may still be running on its shard.
pub fn cancel(id: TimerId) -> bool {
    let hit = wheel().state.lock().timers.remove(&(id.deadline, id.seq)).is_some();
    if hit {
        CANCELLED.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// Aims an owner's one entry on the wheel at `want` ("a helper kernel
/// process awakens periodically to perform any necessary
/// retransmissions" — §2.4, as one wheel for every conversation). Never
/// extends an armed timer: it may already be in flight, an early fire
/// just re-evaluates and re-arms, and a missing one would wedge its
/// owner. `None` cancels. `fire` makes the callback, which runs on the
/// shard of `key`: only an entry scheduled anew needs one, so an aim
/// that leaves the entry as it is costs no more than a look at it. The
/// spawn error (the wheel or pool thread could not start) propagates so
/// dial and announce fail loudly.
pub fn rearm<F: FnOnce() + Send + 'static>(
    timer: &mut Option<TimerId>,
    key: u64,
    want: Option<Instant>,
    fire: impl FnOnce() -> F,
) -> io::Result<()> {
    if let Some(id) = *timer {
        if want.is_some_and(|w| id.deadline() <= w) {
            return Ok(());
        }
        cancel(id);
        *timer = None;
    }
    if let Some(want) = want {
        *timer = Some(schedule(key, want, fire())?);
    }
    Ok(())
}

/// Number of armed timers (diagnostics).
pub fn armed() -> usize {
    wheel().state.lock().timers.len()
}

/// Lifetime wheel counters, process-global like the wheel itself.
/// Observers snapshot and report deltas (see netlog's `pool` facility).
static SCHEDULED: AtomicU64 = AtomicU64::new(0);
static FIRED: AtomicU64 = AtomicU64::new(0);
static CANCELLED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the wheel's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Timers armed over the wheel's lifetime.
    pub scheduled: u64,
    /// Timers whose callbacks were dispatched.
    pub fired: u64,
    /// Timers disarmed before firing.
    pub cancelled: u64,
    /// Timers currently armed.
    pub armed: u64,
}

/// Snapshots the wheel counters (diagnostics).
pub fn stats() -> WheelStats {
    WheelStats {
        scheduled: SCHEDULED.load(Ordering::Relaxed),
        fired: FIRED.load(Ordering::Relaxed),
        cancelled: CANCELLED.load(Ordering::Relaxed),
        armed: armed() as u64,
    }
}

fn ensure_worker(st: &mut WheelState) -> io::Result<()> {
    let era = vtime::era();
    match &st.worker {
        Some((e, _)) if *e == era => Ok(()),
        _ => {
            // blocking-ok: the closure runs on the spawned timer-wheel
            // kproc, not in the caller's context; checked: likewise,
            // a panic there unwinds the wheel kproc, not the caller
            let handle = vtime::kproc("timer-wheel", move || wheel_loop(era))?;
            st.worker = Some((era, handle));
            Ok(())
        }
    }
}

fn wheel_loop(my_era: u64) {
    let w = wheel();
    let mut st = w.state.lock();
    loop {
        if vtime::era() != my_era {
            return;
        }
        let now = time::now();
        // Collect everything due, in (deadline, seq) order, then fire
        // with the lock released so callbacks can take conversation
        // locks and re-schedule.
        let mut due: Vec<Entry> = Vec::new();
        while let Some((&(d, s), _)) = st.timers.iter().next() {
            if d > now {
                break;
            }
            due.push(st.timers.remove(&(d, s)).expect("due timer present"));
        }
        if !due.is_empty() {
            drop(st);
            FIRED.fetch_add(due.len() as u64, Ordering::Relaxed);
            for e in due {
                // Per-conversation ordering: the callback runs on the
                // key's pool shard. If the pool can't spawn its
                // worker, fire inline — a late ack beats a lost one.
                crate::pool::submit_or_run(e.key, e.cb);
            }
            st = w.state.lock();
            continue;
        }
        match st.timers.keys().next().copied() {
            Some((d, _)) => {
                let _ = w.cv.wait_until(&mut st, d);
            }
            None => w.cv.wait(&mut st),
        }
    }
}

/// Joins a previous era's wheel thread; see
/// [`pool::retire`](crate::pool) for the transition protocol.
pub(crate) fn retire() {
    let era = vtime::era();
    let handle = {
        let mut st = wheel().state.lock();
        match &st.worker {
            Some((e, _)) if *e != era => st.worker.take().map(|(_, h)| h),
            _ => None,
        }
    };
    wheel().cv.notify_all();
    if let Some(h) = handle {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fires_in_deadline_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let base = time::now() + Duration::from_millis(30);
        // Insert out of order; equal deadlines must fire in insert
        // order. Same key ⇒ same shard ⇒ the pool preserves FIFO.
        for (label, dt) in [(2u32, 10u64), (0, 0), (3, 10), (1, 0)] {
            let log = Arc::clone(&log);
            let done = Arc::clone(&done);
            schedule(42, base + Duration::from_millis(dt), move || {
                log.lock().push(label);
                let (cnt, cv) = &*done;
                *cnt.lock() += 1;
                cv.notify_all();
            })
            .expect("schedule");
        }
        let (cnt, cv) = &*done;
        let mut g = cnt.lock();
        while *g < 4 {
            cv.wait(&mut g);
        }
        drop(g);
        let got = log.lock().clone();
        // (0ms: labels 0 then 1 by insert order), (10ms: 2 then 3).
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cancel_prevents_fire() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let id = schedule(1, time::now() + Duration::from_millis(40), move || {
            h2.fetch_add(1, Ordering::SeqCst);
        })
        .expect("schedule");
        assert!(cancel(id), "fresh timer cancels");
        assert!(!cancel(id), "second cancel reports gone");
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "cancelled timer must not fire");
    }

    #[test]
    fn an_armed_timer_is_never_extended() {
        let far = time::now() + Duration::from_secs(3600);
        let mut timer = None;
        rearm(&mut timer, 7, Some(far), || || {}).unwrap();
        let armed = timer.expect("armed");
        assert_eq!(armed.deadline(), far);
        // Later or equal: the armed entry stays as it is.
        rearm(&mut timer, 7, Some(far + Duration::from_secs(1)), || || {}).unwrap();
        rearm(&mut timer, 7, Some(far), || || {}).unwrap();
        assert_eq!(timer, Some(armed));
        // Earlier: the old entry is cancelled and a new one scheduled.
        let near = far - Duration::from_secs(1);
        rearm(&mut timer, 7, Some(near), || || {}).unwrap();
        assert_eq!(timer.expect("re-armed").deadline(), near);
        assert!(!cancel(armed), "the old entry was already cancelled");
        rearm(&mut timer, 7, None, || || {}).unwrap();
    }

    #[test]
    fn wanting_nothing_cancels_the_timer() {
        let mut timer = None;
        rearm(&mut timer, 7, None, || || {}).unwrap();
        assert_eq!(timer, None);
        rearm(&mut timer, 7, Some(time::now() + Duration::from_secs(3600)), || || {}).unwrap();
        let armed = timer.expect("armed");
        rearm(&mut timer, 7, None, || || {}).unwrap();
        assert_eq!(timer, None);
        assert!(!cancel(armed), "the entry was already cancelled");
    }

    #[test]
    fn earlier_insert_reaims_the_sleep() {
        let done = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let d1 = Arc::clone(&done);
        schedule(5, time::now() + Duration::from_millis(500), move || {
            let (log, cv) = &*d1;
            log.lock().push("late");
            cv.notify_all();
        })
        .expect("late");
        let d2 = Arc::clone(&done);
        let t0 = time::real_now();
        schedule(5, time::now() + Duration::from_millis(20), move || {
            let (log, cv) = &*d2;
            log.lock().push("early");
            cv.notify_all();
        })
        .expect("early");
        let (log, cv) = &*done;
        let mut g = log.lock();
        while g.is_empty() {
            cv.wait(&mut g);
        }
        assert_eq!(g[0], "early");
        assert!(
            t0.elapsed() < Duration::from_millis(450),
            "the wheel must re-aim at the earlier deadline, not sleep out the late one"
        );
    }
}
