//! Two players hand one turn back and forth through one `Mutex` and two
//! `Condvar`s, the shape of a stream's reader and writer. A notify
//! makes its OS call only when the count says a thread waits, so a
//! count that missed a waiter would leave both players parked.

use plan9_support::sync::{Condvar, Mutex};
use std::sync::Arc;

/// Strokes each player plays.
pub const ROUNDS: u64 = 100_000;

/// The table both players share.
pub struct Table {
    /// Whose turn it is (0 or 1), and how many strokes have been played.
    turn: Mutex<(usize, u64)>,
    /// `wake[p]` is where player `p` waits for its turn.
    wake: [Condvar; 2],
}

impl Table {
    /// A table where player 0 plays first.
    pub fn new() -> Arc<Table> {
        Arc::new(Table { turn: Mutex::new((0, 0)), wake: [Condvar::new(), Condvar::new()] })
    }

    /// Plays `rounds` strokes as player `me`: waits for its turn, hands
    /// the turn over, and notifies the other player, under the lock on
    /// even strokes and just after it on odd ones.
    pub fn play(&self, me: usize, rounds: u64) {
        for stroke in 0..rounds {
            let mut t = self.turn.lock();
            while t.0 != me {
                self.wake[me].wait(&mut t);
            }
            *t = (1 - me, t.1 + 1);
            if stroke % 2 == 0 {
                self.wake[1 - me].notify_one();
                drop(t);
            } else {
                drop(t);
                self.wake[1 - me].notify_one();
            }
        }
    }

    /// Strokes played so far by both players.
    pub fn strokes(&self) -> u64 {
        self.turn.lock().1
    }
}
