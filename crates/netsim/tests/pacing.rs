//! Pacing is a deadline for a pool job: a job's send books the line and
//! returns, so it holds no shard for its frame's line time, and the
//! line still serialises what it books. An unpaced line books nothing:
//! a frame with no delay is handled as it is sent, on the sender's
//! thread, and one with a propagation delay arrives exactly that much
//! later. All run on the virtual clock.

use plan9_netsim::ether::{EtherSegment, MacAddr};
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_netsim::wire::{wire_on_medium, Medium};
use plan9_support::chan::{unbounded, Sender};
use plan9_support::pool::{self, NSHARDS};
use plan9_support::{time, vtime};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

fn mac(n: u8) -> MacAddr {
    [0x08, 0x00, 0x69, 0x02, 0x22, n]
}

#[test]
fn a_job_sending_a_burst_does_not_hold_up_its_shard() {
    let _clock = vtime::enter();
    // Two calibrated segments whose receivers' keys share a shard.
    const K: u64 = 3;
    let a = EtherSegment::new(Profiles::ether_calibrated());
    let b = EtherSegment::new(Profiles::ether_calibrated());
    let (a_tx, a_rx) = (a.attach(mac(1)), a.attach(mac(2)));
    let (b_tx, b_rx) = (b.attach(mac(1)), b.attach(mac(2)));
    a_rx.set_rx_handler(K, |_| {});
    let (seen_tx, seen) = unbounded();
    b_rx.set_rx_handler(K + NSHARDS as u64, move |_| {
        let _ = seen_tx.try_send(time::now());
    });
    let t0 = time::now();
    // Ten full frames on A, 15.6 ms of line, from a job on K's shard,
    // which its submitter drains.
    let burst = vtime::kproc("burst", move || {
        pool::submit(K, move || {
            for _ in 0..10 {
                a_tx.send(mac(2), 0x0800, &[0u8; 1500]).expect("send on A");
            }
        })
        .expect("submit")
    })
    .expect("spawn");
    b_tx.send(mac(2), 0x0800, b"").expect("send on B");
    let at = seen.recv().expect("B's frame");
    burst.join().expect("burst");
    let waited = at - t0;
    assert!(
        waited < Duration::from_millis(2),
        "B's frame arrived after {waited:?}: behind A's burst"
    );
}

#[test]
fn a_job_returns_at_once_and_the_line_still_serialises() {
    let _clock = vtime::enter();
    // 1 Mbit/s: ten frames of 1,250 bytes are 100 ms on the line.
    let profile = LinkProfile {
        bandwidth_bps: 1_000_000,
        ..LinkProfile::fast("slow", 1500)
    };
    let (tx, rx) = wire_on_medium(Medium::new(profile), 0);
    let t0 = time::now();
    pool::submit(0, move || {
        for _ in 0..10 {
            tx.send(&[0u8; 1250]).expect("send");
        }
    })
    .expect("submit");
    assert_eq!(time::now(), t0, "the job waited for the line");
    for _ in 0..10 {
        rx.recv().expect("a frame");
    }
    let last = time::now() - t0;
    assert!(
        last >= Duration::from_millis(100),
        "ten frames crossed a 100 ms line in {last:?}"
    );
}

/// An unpaced profile with a propagation delay.
fn unpaced(propagation: Duration) -> LinkProfile {
    LinkProfile { propagation, ..LinkProfile::fast("unpaced", 1514) }
}

/// Where and when a handler ran.
type Seen = (Instant, ThreadId);

fn record(tx: &Sender<Seen>) {
    let _ = tx.try_send((time::now(), thread::current().id()));
}

/// One frame on an unpaced segment and one on an unpaced wire, sent
/// from this thread at one instant: when each handler ran, and where.
/// With no delay both have run before their sends return.
fn unpaced_arrivals(propagation: Duration) -> (Instant, [Seen; 2]) {
    let seg = EtherSegment::new(unpaced(propagation));
    let (a, b) = (seg.attach(mac(1)), seg.attach(mac(2)));
    let (on_seg, from_seg) = unbounded();
    b.set_rx_handler(5, move |_| record(&on_seg));
    let (tx, rx) = wire_on_medium(Medium::new(unpaced(propagation)), 6);
    let (on_wire, from_wire) = unbounded();
    rx.set_rx_handler(move |f| {
        if f.is_some() {
            record(&on_wire)
        }
    });
    let t0 = time::now();
    a.send(mac(2), 0x0800, b"on the segment").expect("send on the segment");
    tx.send(b"on the wire").expect("send on the wire");
    assert_eq!(time::now(), t0, "an unpaced send waited");
    if propagation.is_zero() {
        let ran = [from_seg.try_recv(), from_wire.try_recv()];
        let [Ok(seg), Ok(wire)] = ran else {
            panic!("a frame due as it was sent was not handled by its send: {ran:?}")
        };
        return (t0, [seg, wire]);
    }
    let seg = from_seg.recv().expect("the segment's frame");
    let wire = from_wire.recv().expect("the wire's frame");
    (t0, [seg, wire])
}

#[test]
fn an_unpaced_frame_is_handled_as_it_is_sent_on_the_senders_thread() {
    let _clock = vtime::enter();
    let (t0, arrivals) = unpaced_arrivals(Duration::ZERO);
    let me = thread::current().id();
    for (medium, (at, on)) in ["segment", "wire"].into_iter().zip(arrivals) {
        assert_eq!(at, t0, "the {medium}'s frame arrived after its send");
        assert_eq!(on, me, "the {medium}'s frame was handled on another thread");
    }
}

#[test]
fn an_unpaced_frame_arrives_exactly_its_propagation_later() {
    let _clock = vtime::enter();
    let propagation = Duration::from_micros(1_250);
    let (t0, arrivals) = unpaced_arrivals(propagation);
    for (medium, (at, _)) in ["segment", "wire"].into_iter().zip(arrivals) {
        assert_eq!(at - t0, propagation, "the {medium}'s frame");
    }
}
