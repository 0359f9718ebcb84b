//! Pacing is a deadline for a pool job: a job's send books the line and
//! returns, so it holds no shard for its frame's line time, and the
//! line still serialises what it books. Both run on the virtual clock.

use plan9_netsim::ether::{EtherSegment, MacAddr};
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_netsim::wire::{wire_on_medium, Medium};
use plan9_support::chan::unbounded;
use plan9_support::pool::{self, NSHARDS};
use plan9_support::{time, vtime};
use std::time::Duration;

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
