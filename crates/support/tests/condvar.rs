//! The wake-up rule of `sync::Condvar` on the real clock: a notify
//! makes the OS call only for a thread in an OS wait, and no waiter is
//! missed for it. The virtual-clock ping-pong is in `tests/vtime.rs`.

mod pingpong;

use pingpong::{Table, ROUNDS};
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::time;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Long enough for 200,000 hand-offs on a loaded machine; a lost
/// wakeup would park both players for ever.
const BOUND: Duration = Duration::from_secs(120);

#[test]
fn a_ping_pong_between_two_threads_loses_no_wakeup() {
    let table = Table::new();
    let (done_tx, done_rx) = mpsc::channel();
    let players: Vec<_> = (0..2)
        .map(|me| {
            let (table, done_tx) = (Arc::clone(&table), done_tx.clone());
            std::thread::spawn(move || {
                table.play(me, ROUNDS);
                done_tx.send(me).unwrap();
            })
        })
        .collect();
    for _ in 0..2 {
        done_rx.recv_timeout(BOUND).expect("a player is still waiting: a wakeup was lost");
    }
    players.into_iter().for_each(|p| p.join().unwrap());
    assert_eq!(table.strokes(), 2 * ROUNDS);
}

#[test]
fn a_notified_timed_wait_does_not_time_out() {
    // (waiting, ready): the waiter says it waits under the lock it
    // waits with, so the notifier that sees it is past the test.
    let pair = Arc::new((Mutex::new((false, false)), Condvar::new()));
    let p2 = Arc::clone(&pair);
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*p2;
        let start = time::now();
        let mut st = m.lock();
        st.0 = true;
        let mut results = Vec::new();
        while !st.1 {
            results.push(cv.wait_until(&mut st, start + Duration::from_secs(60)).timed_out());
        }
        (results, start.elapsed())
    });
    let (m, cv) = &*pair;
    loop {
        let mut st = m.lock();
        if st.0 {
            st.1 = true;
            cv.notify_one();
            break;
        }
        drop(st);
        std::thread::yield_now();
    }
    let (results, took) = waiter.join().unwrap();
    assert!(!results.is_empty(), "the waiter never waited");
    assert!(results.iter().all(|&t| !t), "a notified wait reported a timeout: {results:?}");
    assert!(took < Duration::from_secs(30), "the notify took {took:?} to land");
}
