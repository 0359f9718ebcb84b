//! How a protocol core is driven. A core (IL's and TCP's in
//! `plan9-inet`, URP's in `plan9-datakit`) is a conversation's state and
//! its one [`Core::step`], `State::step(&mut self, Input, Now) ->
//! Actions`: it holds no lock and reads no clock of its own, and what it
//! sends is an [`Out`] its shell sends once the conversation lock is
//! dropped.
//!
//! [`Shell`] is the one driver of all three. Each input is one hold of
//! the conversation's lock, and goes: lock → step → aim → drop →
//! perform. In the hold the core steps and the conversation's one
//! timer-wheel entry is aimed where the step says (the entry's id is
//! part of what the lock guards). After the drop the shell performs:
//! it wakes readers and writers and fires the readiness hook, before
//! or after the protocol's own part ([`Conv::perform`]: encoding and
//! sending, counters and events, the hand-off to a listener) as the
//! step's [`Wake`] says.

use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::{time, wheel};
use std::io;
use std::sync::{Arc, OnceLock};

/// The time types, for the protocol cores: they take the time they are
/// given and never read the clock ([`crate::time`]) themselves.
pub use std::time::{Duration, Instant};

/// The time a protocol core's step is given: an instant, or the
/// shell's clock, read the first time the step needs the time and the
/// same for the rest of it. A clock read costs about as much as a step
/// (~50 ns), and most segments need none.
#[derive(Clone, Copy, Debug)]
pub enum Now {
    /// This instant.
    At(Instant),
    /// This clock, when the step first asks.
    Clock(fn() -> Instant),
}

impl Now {
    /// The instant, the clock read now if it has not been yet. Inlined
    /// across crates: the cores that call it are in other crates, on
    /// every segment's path.
    #[inline]
    pub fn get(&mut self) -> Instant {
        let t = match *self {
            Now::At(t) => t,
            Now::Clock(read_clock) => read_clock(),
        };
        *self = Now::At(t);
        t
    }
}

/// What a protocol core's step sends, in order: the first inline and
/// any more in a vector, so that a step sending at most one allocates
/// nothing.
#[derive(Debug)]
pub struct Out<T> {
    first: Option<T>,
    more: Vec<T>,
}

impl<T> Default for Out<T> {
    fn default() -> Out<T> {
        Out { first: None, more: Vec::new() }
    }
}

impl<T> Out<T> {
    /// Adds one after the rest.
    pub fn push(&mut self, t: T) {
        match self.first {
            None => self.first = Some(t),
            Some(_) => self.more.push(t),
        }
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Each, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.more)
    }
}

impl<T> IntoIterator for Out<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.more)
    }
}

/// A protocol's pure core, as its [`Shell`] drives it: a conversation's
/// state, what happens to it, and what a step asks of the shell.
pub trait Core: Sized + 'static {
    /// What happens to a conversation; it may borrow what came in.
    type Input<'a>;
    /// What a step asks of the shell.
    type Actions;
    /// The lockdep class of a conversation's lock.
    const CLASS: &'static str;
    /// The input the timer's firing is.
    const TIMER: Self::Input<'static>;
    /// How many pool shards after the conversation's own its timer
    /// fires on.
    const TIMER_SHARD: u64 = 0;
    /// Applies one input at the time `now` gives, read once if at all.
    /// Nothing else changes a conversation's state.
    fn step(&mut self, input: Self::Input<'_>, now: Now) -> Self::Actions;
    /// Where the step aims the timer: `None` leaves it be, `Some(None)`
    /// disarms it.
    fn aim(acts: &Self::Actions) -> Option<Option<Instant>>;
    /// Whom the step wakes, and when.
    fn wake(acts: &Self::Actions) -> Wake;
}

/// Whom a step wakes, in this order: the part of performing a step the
/// shell does for every protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wake {
    /// Readers, and a dialer waiting for its handshake.
    pub readable: bool,
    /// Writers waiting for room.
    pub writable: bool,
    /// The readiness hook of a conversation served where its requests
    /// arrive.
    pub hook: bool,
    /// After the protocol's own part (its segments leave), not before.
    pub after: bool,
}

/// A conversation a [`Shell`] drives: the protocol's own part of
/// performing a step.
pub trait Conv: Send + Sync + Sized + 'static {
    /// The core its shell drives.
    type Core: Core;
    /// What performing a step comes to.
    type Done;
    fn shell(&self) -> &Shell<Self::Core>;
    /// Does what a step asked, the lock dropped: [`Shell::perform`]
    /// around what the protocol does itself.
    fn perform(self: &Arc<Self>, acts: <Self::Core as Core>::Actions) -> Self::Done;
}

/// What the conversation lock guards: the core's state, and the one
/// timer-wheel entry, aimed at its earliest deadline.
pub struct Held<C: Core> {
    pub st: C,
    timer: Option<wheel::TimerId>,
}

/// Which waiters [`Shell::wait`] joins.
#[derive(Clone, Copy, Debug)]
pub enum On {
    Readable,
    Writable,
}

/// The driver of a core: the conversation's lock, its timer-wheel
/// entry, its waiters and its readiness hook.
pub struct Shell<C: Core> {
    conv: Mutex<Held<C>>,
    readable: Condvar,
    writable: Condvar,
    /// A reader that does not wait registers this (`Served`): it fires,
    /// with no lock held, when the step says there is work.
    hook: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// The pool key the conversation's service is sharded by; its timer
    /// fires on the one `Core::TIMER_SHARD` after it.
    key: u64,
}

impl<C: Core> Shell<C> {
    /// A shell around `st`, served on the pool key `key`.
    pub fn new(st: C, key: u64) -> Shell<C> {
        Shell {
            conv: Mutex::named(Held { st, timer: None }, C::CLASS),
            readable: Condvar::new(),
            writable: Condvar::new(),
            hook: OnceLock::new(),
            key,
        }
    }

    /// The pool key of the conversation's service.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Registers the readiness hook. A conversation has one reader: a
    /// hook registered after the first is dropped.
    pub fn set_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.hook.set(Box::new(hook));
    }

    /// Takes the lock, to look at the state.
    pub fn lock(&self) -> MutexGuard<'_, Held<C>> {
        self.conv.lock()
    }

    /// One input, in the caller's hold of the lock: the core steps, and
    /// the timer is aimed where it says before the lock drops. The aim
    /// fails only when the wheel's thread cannot start.
    pub fn step<O: Conv<Core = C>>(&self, o: &Arc<O>, held: &mut Held<C>, input: C::Input<'_>) -> (C::Actions, io::Result<()>) {
        let acts = held.st.step(input, Now::Clock(time::now));
        let Some(at) = C::aim(&acts) else { return (acts, Ok(())) };
        let armed = wheel::rearm(&mut held.timer, self.key.wrapping_add(C::TIMER_SHARD), at, || {
            let o = Arc::downgrade(o);
            move || {
                if let Some(o) = o.upgrade() {
                    o.shell().fire(&o);
                }
            }
        });
        (acts, armed)
    }

    /// One input in a hold of its own, and what it asks for done.
    pub fn run<O: Conv<Core = C>>(&self, o: &Arc<O>, input: C::Input<'_>) -> O::Done {
        let acts = self.step(o, &mut self.conv.lock(), input).0;
        o.perform(acts)
    }

    /// The timer's firing, run on the conversation's pool shard: its
    /// entry is gone.
    fn fire<O: Conv<Core = C>>(&self, o: &Arc<O>) {
        let mut held = self.conv.lock();
        held.timer = None;
        let acts = self.step(o, &mut held, C::TIMER).0;
        drop(held);
        let _ = o.perform(acts);
    }

    /// Waits among the `on` waiters for `yields` to make something of the
    /// state, in the hold it was tried in; it is tried again each time
    /// the wait ends. A wait with a deadline (`until`) ends at it, and
    /// past it at once: `yields` must then give up itself.
    pub fn wait<T>(&self, on: On, until: Option<Instant>, mut yields: impl FnMut(&mut Held<C>) -> Option<T>) -> T {
        let mut held = self.conv.lock();
        loop {
            if let Some(got) = yields(&mut held) {
                return got;
            }
            match until {
                Some(at) => {
                    self.waiters(on).wait_until(&mut held, at);
                }
                None => self.waiters(on).wait(&mut held),
            }
        }
    }

    fn waiters(&self, on: On) -> &Condvar {
        match on {
            On::Readable => &self.readable,
            On::Writable => &self.writable,
        }
    }

    /// Does what a step asked, the lock dropped: the wakes, before the
    /// protocol's own part `own` or after it, as the step says.
    pub fn perform<T>(&self, acts: &C::Actions, own: impl FnOnce() -> T) -> T {
        let wake = C::wake(acts);
        if !wake.after {
            self.wake(wake);
        }
        let done = own();
        if wake.after {
            self.wake(wake);
        }
        done
    }

    fn wake(&self, wake: Wake) {
        if wake.readable {
            self.readable.notify_all();
        }
        if wake.writable {
            self.writable.notify_all();
        }
        if wake.hook {
            if let Some(hook) = self.hook.get() {
                hook();
            }
        }
    }
}
