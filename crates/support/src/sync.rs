//! No-poison lock primitives over `std::sync`.
//!
//! The kernel-style code in this workspace treats a panic while holding
//! a lock as fatal to the invariants anyway, so poisoning is noise:
//! `lock()` returns the guard directly, recovering the inner state if a
//! previous holder panicked. Two types, as the kernel uses them:
//!
//! - [`Mutex::lock`] → guard, no `Result`
//! - [`Condvar::wait`] takes `&mut MutexGuard` instead of consuming it
//! - [`Condvar::wait_until`] returns a [`WaitTimeoutResult`]
//!
//! A notify is a system call only when a thread waits: see [`Condvar`].
//!
//! Locks built with [`Mutex::named`] additionally participate in
//! [`lockdep`](crate::lockdep) order checking in debug builds; in
//! release builds `named` is exactly `new` and the checking machinery
//! does not exist in the binary.
//!
//! Every lock, named or not, is counted while held: [`held`] is how many
//! the calling thread holds, one thread-local add per acquire and per
//! release, and a condition wait gives its lock back to the count while
//! it sleeps.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::vtime::{self, Parker, VirtualClock};

#[cfg(debug_assertions)]
use crate::lockdep::{self, ClassId, LockClass};
#[cfg(debug_assertions)]
use std::panic::Location;

thread_local! {
    static HELD: Cell<usize> = const { Cell::new(0) };
}

/// How many locks of this module (and [`Hold`]s) the calling thread
/// holds. The worker pool runs a job on the thread that submits it only
/// when this is 0, so that the job takes no lock under one of the
/// submitter's.
#[inline]
pub fn held() -> usize {
    HELD.with(Cell::get)
}

#[inline]
fn count(by: isize) {
    HELD.with(|h| h.set(h.get().wrapping_add_signed(by)));
}

/// Something that is not a lock but is waited for like one — a resource
/// taken out of its slot, which the next user parks for — counted by
/// [`held`] from [`hold`] until this drops.
pub struct Hold(PhantomData<*const ()>);

/// Counts the calling thread as holding one more lock until the
/// returned [`Hold`] drops.
pub fn hold() -> Hold {
    count(1);
    Hold(PhantomData)
}

impl Drop for Hold {
    fn drop(&mut self) {
        count(-1);
    }
}

/// A mutual-exclusion lock whose guard is returned without a poison
/// `Result`.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    dep: Option<LockClass>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(debug_assertions)]
            dep: None,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Creates a mutex belonging to the lockdep class `name`. Many
    /// locks may share one name — every stream queue is one class —
    /// and debug builds verify a consistent acquisition order across
    /// all named classes. In release builds this is exactly [`Mutex::new`].
    pub const fn named(value: T, name: &'static str) -> Mutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = name;
        Mutex {
            #[cfg(debug_assertions)]
            dep: Some(LockClass::new(name)),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Counts an acquisition made at `site`: under the lock's class, or
    /// at the site if it has none.
    #[cfg(debug_assertions)]
    fn dep(&self, site: &'static Location<'static>) -> Dep {
        match &self.dep {
            Some(class) => Dep::Class(class.id()),
            None => Dep::Site(site),
        }
    }

    /// Acquires the lock, blocking until it is free.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let dep = self.dep(Location::caller());
        #[cfg(debug_assertions)]
        dep.acquire();
        count(1);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            raw: &self.inner,
            #[cfg(debug_assertions)]
            dep,
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        count(1);
        #[cfg(debug_assertions)]
        let dep = self.dep(Location::caller());
        #[cfg(debug_assertions)]
        match dep {
            Dep::Class(c) => lockdep::acquire_try(c),
            Dep::Site(site) => lockdep::acquire_site(site),
        }
        Some(MutexGuard {
            inner: Some(inner),
            raw: &self.inner,
            #[cfg(debug_assertions)]
            dep,
        })
    }
}

/// What lockdep knows a held lock by: its class, or for an unnamed lock
/// the line that took it.
#[cfg(debug_assertions)]
#[derive(Clone, Copy)]
enum Dep {
    Class(ClassId),
    Site(&'static Location<'static>),
}

#[cfg(debug_assertions)]
impl Dep {
    /// A blocking acquisition, or a condition wait taking the lock again.
    fn acquire(self) {
        match self {
            Dep::Class(c) => lockdep::acquire(c),
            Dep::Site(site) => lockdep::acquire_site(site),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// The guard returned by [`Mutex::lock`].
///
/// The inner `std` guard lives in an `Option` so [`Condvar::wait`] can
/// move it out and back while the caller keeps borrowing this wrapper;
/// `raw` points back at the lock itself so a virtual-time wait can drop
/// the lock entirely and re-acquire it after the clock wakes it.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    raw: &'a std::sync::Mutex<T>,
    #[cfg(debug_assertions)]
    dep: Dep,
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// The lock is let go, by the guard's drop or a condition wait:
    /// [`held`] and lockdep see it released.
    fn released(&self) {
        count(-1);
        #[cfg(debug_assertions)]
        if let Dep::Class(c) = self.dep {
            lockdep::release(c);
        }
    }

    /// A condition wait takes the lock again.
    fn retaken(&self) {
        count(1);
        #[cfg(debug_assertions)]
        self.dep.acquire();
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.released();
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // checked: None only inside a wait on this same thread, which
        // cannot overlap a deref of the guard
        self.inner.as_ref().expect("guard stolen during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // checked: None only inside a wait on this same thread, which
        // cannot overlap a deref of the guard
        self.inner.as_mut().expect("guard stolen during wait")
    }
}

/// Whether a timed condition wait gave up before being notified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable paired with [`Mutex`] guards by `&mut`
/// reference, so waiting does not consume the guard binding.
///
/// A notify makes the OS call only when a thread is in an OS wait on
/// this condition variable: a waiter counts itself while it still holds
/// the caller's mutex and uncounts itself once it has the mutex back, so
/// a notify that finds the count at zero has nobody to wake. That holds
/// under one invariant, which every caller keeps: **a notifier changes
/// the condition under the mutex its waiters hold** (or takes that mutex
/// after the change, before it notifies). The notify itself may come
/// before or after the guard drops. A waiter then either saw the change
/// when it tested the condition, or was counted before the notifier took
/// the mutex.
///
/// Under an installed [`vtime`] clock, waits park on the virtual clock
/// instead of the OS condvar: the waiter queues a [`Parker`] (still
/// holding the user lock, so a racing notify cannot miss it), drops the
/// lock, and blocks until a notify or a virtual-timer wake. The parker
/// queue is not even allocated until the first virtual wait.
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads in an OS wait on `inner`.
    waiters: AtomicUsize,
    /// Virtual waiters, in arrival order. `OnceLock` keeps `new` const
    /// and the real-time footprint at one pointer.
    vq: OnceLock<std::sync::Mutex<VecDeque<Arc<Parker>>>>,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
            vq: OnceLock::new(),
        }
    }

    fn vq(&self) -> &std::sync::Mutex<VecDeque<Arc<Parker>>> {
        self.vq.get_or_init(|| std::sync::Mutex::new(VecDeque::new()))
    }

    /// Parks the calling thread on the virtual clock: registers a
    /// parker (timer armed if `deadline` is set) *before* releasing the
    /// user lock, waits for a wake, re-acquires. Returns whether the
    /// wake was a timeout.
    fn vwait<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        clock: &Arc<VirtualClock>,
        deadline: Option<Instant>,
    ) -> bool {
        let parker = clock.park_begin(deadline);
        self.vq()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(Arc::clone(&parker));
        // Only now release the user lock: a notifier must be able to
        // find the parker the instant the lock is free.
        let raw = guard.raw;
        // checked: a live guard always carries its lock outside a wait
        let g = guard.inner.take().expect("guard stolen during wait");
        guard.released();
        drop(g);
        let timed_out = clock.park_wait(&parker);
        {
            // A timer or teardown wake leaves our queue entry behind;
            // collect it so notifiers don't trip over it.
            let mut q = self.vq().lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = q.iter().position(|p| p.id() == parker.id()) {
                q.remove(pos);
            }
        }
        guard.retaken();
        guard.inner = Some(raw.lock().unwrap_or_else(PoisonError::into_inner));
        timed_out
    }

    /// Waits on the OS condvar, for at most `timeout` if one is given,
    /// counted in `waiters` from before the lock is given back until it
    /// is retaken. Returns whether the wait timed out.
    fn os_wait<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Option<Duration>) -> bool {
        // checked: a live guard always carries its lock outside a wait
        let g = guard.inner.take().expect("guard stolen during wait");
        // Relaxed is enough: the increment is ordered before the lock's
        // release, and a notifier reads the count after taking the lock.
        self.waiters.fetch_add(1, Ordering::Relaxed);
        // The lock is parked while asleep: lockdep must see it released
        // here and re-acquired on wakeup, or held-stack accounting and
        // ordering both go wrong.
        guard.released();
        let (g, timed_out) = match timeout {
            None => (self.inner.wait(g).unwrap_or_else(PoisonError::into_inner), false),
            Some(t) => {
                let (g, r) = self.inner.wait_timeout(g, t).unwrap_or_else(PoisonError::into_inner);
                (g, r.timed_out())
            }
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.retaken();
        guard.inner = Some(g);
        timed_out
    }

    /// Blocks until notified, releasing the guard's lock while asleep.
    /// Spurious wakeups are possible; callers loop on their condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(clock) = vtime::active() {
            self.vwait(guard, &clock, None);
        } else {
            self.os_wait(guard, None);
        }
    }

    /// Blocks until notified or `deadline` passes; reports which. A
    /// deadline at or before the current time reports timeout
    /// immediately, without touching the OS condvar — so virtual waits
    /// with stale deadlines can never block.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timed_out = match vtime::active() {
            Some(clock) if deadline <= clock.now() => true,
            Some(clock) => self.vwait(guard, &clock, Some(deadline)),
            None => {
                let now = Instant::now();
                deadline <= now || self.os_wait(guard, Some(deadline - now))
            }
        };
        WaitTimeoutResult { timed_out }
    }

    /// Whether a thread is in an OS wait on this condition variable.
    fn has_os_waiter(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) > 0
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if let Some(q) = self.vq.get() {
            // Pop until one wake sticks: entries whose parkers a timer
            // already woke are stale and must not absorb the notify.
            loop {
                let p = q.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
                match p {
                    None => break,
                    Some(p) => {
                        if VirtualClock::wake_notified(&p) {
                            break;
                        }
                    }
                }
            }
        }
        if self.has_os_waiter() {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(q) = self.vq.get() {
            let drained: Vec<Arc<Parker>> = q
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drain(..)
                .collect();
            for p in drained {
                let _ = VirtualClock::wake_notified(&p);
            }
        }
        if self.has_os_waiter() {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_survives_poisoning_panic() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A poisoned std mutex would now error; ours just hands the
        // state back.
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        assert!(h.join().unwrap());
    }

    #[test]
    fn held_counts_the_guards_alive() {
        let (m, n) = (Mutex::new(()), Mutex::new(()));
        assert_eq!(held(), 0);
        let g = m.lock();
        assert_eq!(held(), 1);
        assert!(m.try_lock().is_none());
        assert_eq!(held(), 1, "a failed try_lock holds nothing");
        let o = n.lock();
        assert_eq!(held(), 2);
        drop((g, o));
        assert_eq!(held(), 0);
        let (t, o, h) = (m.try_lock().unwrap(), n.lock(), hold());
        assert_eq!(held(), 3);
        drop((t, o, h));
        assert_eq!(held(), 0);
    }

    #[test]
    fn a_condition_wait_gives_its_lock_back_to_the_count() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let outer = Mutex::new(());
            let _outer = outer.lock();
            let mut ready = m.lock();
            let r = cv.wait_until(&mut ready, Instant::now() + Duration::from_millis(1));
            let after_timed = held();
            while !*ready {
                cv.wait(&mut ready);
            }
            let after = held();
            drop(ready);
            (r.timed_out(), after_timed, after, held())
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        assert_eq!(waiter.join().unwrap(), (true, 2, 2, 1));
        assert_eq!(held(), 0);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(r.timed_out());
        // Past deadlines report timeout immediately.
        let r = cv.wait_until(&mut g, Instant::now() - Duration::from_millis(1));
        assert!(r.timed_out());
    }
}
