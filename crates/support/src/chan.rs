//! Multi-producer multi-consumer channels over a mutex-protected deque.
//!
//! The surface mirrors the slice of `crossbeam::channel` the workspace
//! uses: [`bounded`]/[`unbounded`] constructors, cloneable [`Sender`]s
//! and [`Receiver`]s (both `Send + Sync`, so they can live behind an
//! `Arc` field), blocking `send`/`recv`, `try_send`/`try_recv`, and
//! `recv_timeout`. Disconnection follows the usual rule: receivers
//! drain what remains after the last sender drops, senders fail once
//! the last receiver is gone.
//!
//! Channels are built on [`sync`](crate::sync) rather than raw `std`
//! locks so every blocking channel wait is visible to the
//! [`vtime`](crate::vtime) census: a thread blocked in `recv` counts as
//! parked, and `recv_timeout` deadlines become virtual timers.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{Condvar, Mutex, MutexGuard};

/// Sending on a channel with no receivers left; returns the message.
pub struct SendError<T>(pub T);

/// A non-blocking send that could not complete.
pub enum TrySendError<T> {
    /// The bounded queue is at capacity.
    Full(T),
    /// No receivers are left.
    Disconnected(T),
}

/// Receiving on an empty channel with no senders left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// A non-blocking receive that produced nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty.
    Empty,
    /// The queue is empty and no senders are left.
    Disconnected,
}

/// A timed receive that produced nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first.
    Timeout,
    /// The queue is empty and no senders are left.
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("TrySendError::Disconnected(..)"),
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    /// `None` means unbounded.
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock()
    }
}

/// The sending half of a channel. Cloning adds a producer.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Cloning adds a consumer.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel whose queue holds at most `cap` messages; `send`
/// blocks while it is full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_cap(Some(cap.max(1)))
}

/// Creates a channel with an unbounded queue; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_cap(None)
}

fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while a bounded queue is full. Fails only
    /// when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            match st.cap {
                Some(cap) if st.queue.len() >= cap => {
                    self.shared.not_full.wait(&mut st);
                }
                _ => {
                    st.queue.push_back(value);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
            }
        }
    }

    /// Sends without blocking; a full bounded queue refuses the message.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.shared.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = st.cap {
            if st.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        st.queue.push_back(value);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next message; fails once the queue is empty and
    /// every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.shared.not_empty.wait(&mut st);
        }
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        if let Some(v) = st.queue.pop_front() {
            self.shared.not_full.notify_one();
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Blocks for the next message until `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = crate::time::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            if self
                .shared
                .not_empty
                .wait_until(&mut st, deadline)
                .timed_out()
            {
                // One last look: a racing send may have queued a value
                // right as the deadline fired.
                return match st.queue.pop_front() {
                    Some(v) => {
                        self.shared.not_full.notify_one();
                        Ok(v)
                    }
                    None => Err(RecvTimeoutError::Timeout),
                };
            }
        }
    }

    /// How many messages are queued right now.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `tx` sends to this receiver's channel.
    pub fn is_fed_by(&self, tx: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.shared, &tx.shared)
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn drain_after_sender_drop_then_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receiver() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(h.join().unwrap());
    }

    #[test]
    fn recv_timeout_reports_timeout_then_value() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}
