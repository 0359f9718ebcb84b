//! Integration tests for the discrete-event virtual clock.
//!
//! The clock is process-global: `vtime::enter` serializes the tests,
//! and nothing here may assume the real clock outside a guard.

mod pingpong;

use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use pingpong::{Table, ROUNDS};
use plan9_support::sync::{self, Condvar, Mutex};
use plan9_support::{chan, time, vtime};

#[test]
fn sleep_advances_virtual_time_instantly() {
    let wall = time::real_now();
    let vt = vtime::enter();
    time::sleep(Duration::from_secs(3600));
    assert!(vt.clock().elapsed() >= Duration::from_secs(3600));
    assert_eq!(vt.clock().advances(), 1);
    drop(vt);
    // An hour of virtual sleep takes well under a second of real time.
    assert!(wall.elapsed() < Duration::from_secs(1));
}

#[test]
fn sleepers_wake_in_deadline_order() {
    let vt = vtime::enter();
    let order = Arc::new(StdMutex::new(Vec::new()));
    let mut handles = Vec::new();
    // Spawn in shuffled duration order; wake order must follow the
    // deadlines, not the spawn order.
    for (tag, ms) in [("c", 30u64), ("a", 10), ("d", 40), ("b", 20)] {
        let order = Arc::clone(&order);
        handles.push(
            vtime::kproc(&format!("sleeper-{tag}"), move || {
                time::sleep(Duration::from_millis(ms));
                order.lock().unwrap().push(tag);
            })
            .unwrap(),
        );
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), vec!["a", "b", "c", "d"]);
    assert_eq!(vt.clock().elapsed(), Duration::from_millis(40));
    drop(vt);
}

#[test]
fn equal_deadlines_break_ties_by_registration_order() {
    let vt = vtime::enter();
    let order = Arc::new(StdMutex::new(Vec::new()));
    // Spawned back to back: the scheduler admits kprocs in spawn
    // order no matter how the OS staggers the thread starts, so their
    // timer registration order is the spawn order.
    let mut handles = Vec::new();
    for tag in ["first", "second", "third"] {
        let order = Arc::clone(&order);
        let h = vtime::kproc(tag, move || {
            time::sleep(Duration::from_millis(5));
            order.lock().unwrap().push(tag);
        })
        .unwrap();
        handles.push(h);
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), vec!["first", "second", "third"]);
    drop(vt);
}

#[test]
fn condvar_timed_wait_becomes_virtual_timer() {
    let vt = vtime::enter();
    let m = Mutex::new(false);
    let cv = Condvar::new();
    let mut g = m.lock();
    let before = time::now();
    let r = cv.wait_until(&mut g, before + Duration::from_millis(250));
    assert!(r.timed_out());
    assert_eq!(time::now() - before, Duration::from_millis(250));
    drop(g);
    drop(vt);
}

#[test]
fn a_virtual_condition_wait_gives_its_lock_back_to_the_count() {
    let vt = vtime::enter();
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let p2 = Arc::clone(&pair);
    let waiter = vtime::kproc("waiter", move || {
        let (m, cv) = &*p2;
        let mut ready = m.lock();
        let timed_out = cv.wait_until(&mut ready, time::now() + Duration::from_millis(5)).timed_out();
        let after_timed = sync::held();
        while !*ready {
            cv.wait(&mut ready);
        }
        let after = sync::held();
        drop(ready);
        (timed_out, after_timed, after, sync::held())
    })
    .unwrap();
    time::sleep(Duration::from_millis(10));
    let (m, cv) = &*pair;
    *m.lock() = true;
    cv.notify_all();
    assert_eq!(waiter.join().unwrap(), (true, 1, 1, 0));
    assert_eq!(sync::held(), 0);
    drop(vt);
}

#[test]
fn condvar_past_deadline_returns_immediately() {
    let vt = vtime::enter();
    let m = Mutex::new(());
    let cv = Condvar::new();
    let mut g = m.lock();
    let r = cv.wait_until(&mut g, time::now() - Duration::from_millis(1));
    assert!(r.timed_out());
    assert_eq!(vt.clock().advances(), 0);
    drop(g);
    drop(vt);
}

#[test]
fn notify_beats_timer_and_leaves_time_still() {
    let vt = vtime::enter();
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let (started_tx, started_rx) = chan::unbounded::<u8>();
    let p2 = Arc::clone(&pair);
    let h = vtime::kproc("waiter", move || {
        let (m, cv) = &*p2;
        let mut ready = m.lock();
        // Announce under the lock: the notifier cannot race past the
        // flag check before this thread is parked.
        started_tx.send(1).unwrap();
        let mut timed_out = false;
        while !*ready {
            if cv
                .wait_until(&mut ready, time::now() + Duration::from_secs(60))
                .timed_out()
            {
                timed_out = true;
                break;
            }
        }
        timed_out
    })
    .unwrap();
    // Parking here hands the CPU to the waiter; once it parks in turn,
    // notify it before its 60s timer — the notify must win and the
    // clock must never advance.
    started_rx.recv().unwrap();
    {
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_one();
    }
    let timed_out = h.join().unwrap();
    assert!(!timed_out);
    assert_eq!(vt.clock().elapsed(), Duration::ZERO);
    drop(vt);
}

#[test]
fn a_ping_pong_on_the_virtual_clock_takes_no_time() {
    let vt = vtime::enter();
    let table = Table::new();
    let t2 = Arc::clone(&table);
    let pong = vtime::kproc("pong", move || t2.play(1, ROUNDS)).unwrap();
    table.play(0, ROUNDS);
    pong.join().unwrap();
    assert_eq!(table.strokes(), 2 * ROUNDS);
    assert_eq!(vt.clock().elapsed(), Duration::ZERO);
    drop(vt);
}

#[test]
fn chan_recv_timeout_rides_the_virtual_clock() {
    let vt = vtime::enter();
    let (tx, rx) = chan::unbounded::<u8>();
    let before = time::now();
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(500)),
        Err(chan::RecvTimeoutError::Timeout)
    ));
    assert_eq!(time::now() - before, Duration::from_millis(500));
    // A real send still gets through without advancing time.
    let tx2 = tx.clone();
    let h = vtime::kproc("sender", move || tx2.send(9).unwrap()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Ok(9));
    h.join().unwrap();
    drop(tx);
    drop(vt);
}

#[test]
fn ticker_and_worker_interleave_deterministically() {
    let vt = vtime::enter();
    // A 5ms ticker (like IL's timer thread) and a 12ms sleeper: the
    // clock must interleave their wakeups in deadline order.
    let log = Arc::new(StdMutex::new(Vec::new()));
    let l1 = Arc::clone(&log);
    let ticker = vtime::kproc("ticker", move || {
        for i in 0..5 {
            time::sleep(Duration::from_millis(5));
            l1.lock().unwrap().push(format!("tick{i}"));
        }
    })
    .unwrap();
    let l2 = Arc::clone(&log);
    let worker = vtime::kproc("worker", move || {
        time::sleep(Duration::from_millis(12));
        l2.lock().unwrap().push("work".to_string());
    })
    .unwrap();
    ticker.join().unwrap();
    worker.join().unwrap();
    assert_eq!(
        *log.lock().unwrap(),
        vec!["tick0", "tick1", "work", "tick2", "tick3", "tick4"]
    );
    assert_eq!(vt.clock().elapsed(), Duration::from_millis(25));
    drop(vt);
}

#[test]
fn census_counts_registered_threads() {
    let vt = vtime::enter();
    let (registered, parked) = vt.clock().census();
    assert_eq!((registered, parked), (1, 0)); // just the installer
    // The rendezvous must ride the virtual clock (an OS barrier would
    // be invisible to the scheduler): the child announces itself, then
    // parks until released.
    let (started_tx, started_rx) = chan::unbounded::<u8>();
    let (go_tx, go_rx) = chan::unbounded::<u8>();
    let h = vtime::kproc("census-child", move || {
        started_tx.send(1).unwrap();
        let _ = go_rx.recv();
    })
    .unwrap();
    started_rx.recv().unwrap();
    assert_eq!(vt.clock().census().0, 2);
    go_tx.send(1).unwrap();
    h.join().unwrap();
    assert_eq!(vt.clock().census().0, 1);
    drop(vt);
}

#[test]
fn teardown_wakes_stranded_waiters() {
    let vt = vtime::enter();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    // An *unregistered* thread (plain spawn) waits on a virtual timer;
    // dropping the clock must wake it rather than strand it.
    let h = std::thread::spawn(move || {
        let (_tx, rx) = chan::unbounded::<u8>();
        let r = rx.recv_timeout(Duration::from_secs(3600));
        done_tx.send(r).unwrap();
    });
    std::thread::sleep(Duration::from_millis(20));
    drop(vt);
    let r = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("waiter stranded after clock teardown");
    assert!(matches!(r, Err(chan::RecvTimeoutError::Timeout)));
    h.join().unwrap();
}
