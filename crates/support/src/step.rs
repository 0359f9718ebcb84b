//! What a protocol core's step is given and what it gives back. A core
//! (IL's and TCP's in `plan9-inet`, URP's in `plan9-datakit`) is
//! `step(&mut State, Input, Now) -> Actions`: it holds no lock and reads
//! no clock of its own, and what it sends is an [`Out`] its shell sends
//! once the conversation lock is dropped.

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
