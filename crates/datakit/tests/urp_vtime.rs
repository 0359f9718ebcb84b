//! URP on the calibrated Datakit line under the virtual clock: Table 1's
//! 1 MiB transfer must finish at the line's rate with nothing resent,
//! and through loss with a resend per lost cell, not per cell.
//!
//! A URP end that resends cells still crossing the line keeps the
//! virtual clock busy with duplicates, so nothing inside the run can
//! notice that the transfer stopped moving. The watchdog is a real-time
//! wait on the run's result: the hang becomes a failure instead of a
//! test that never ends.

use plan9_datakit::urp::{urp_dial, UrpListener};
use plan9_netsim::fabric::DatakitSwitch;
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_support::{time, vtime};
use std::sync::mpsc;
use std::time::Duration;

const TOTAL: usize = 1 << 20;
const WRITE: usize = 16 * 1024;
/// A write is eight full cells and a 16-byte one.
const CELLS: u64 = (TOTAL / WRITE * WRITE.div_ceil(2046)) as u64;

/// Moves `TOTAL` bytes in 16 KiB writes over a circuit paced by
/// `profile` and returns (virtual seconds, cells resent, clock advances).
fn transfer(profile: LinkProfile) -> (f64, u64, u64) {
    let _clock = vtime::enter();
    let run = vtime::kproc("urp-transfer", move || {
        let sw = DatakitSwitch::new(profile);
        let a = sw.attach("nj/astro/a").expect("attach a");
        let b = sw.attach("nj/astro/b").expect("attach b");
        let listener = UrpListener::new(b);
        let accept = vtime::kproc("urp-accept", move || listener.accept().expect("accept").0).expect("spawn");
        let tx = urp_dial(&a, "nj/astro/b!bench").expect("dial");
        let rx = accept.join().expect("accept");
        let reader = vtime::kproc("urp-reader", move || {
            let mut got = 0;
            while got < TOTAL {
                got += rx.recv().expect("eof before the last byte").len();
            }
            got
        })
        .expect("spawn");
        let t0 = time::now();
        let msg = vec![0x5a; WRITE];
        for _ in 0..TOTAL / WRITE {
            tx.send(&msg).expect("send");
        }
        assert_eq!(reader.join().expect("reader"), TOTAL);
        let secs = time::now().saturating_duration_since(t0).as_secs_f64();
        tx.close();
        (secs, tx.stats.retransmit_cells.get())
    })
    .expect("spawn");
    let (secs, resent) = run.join().expect("transfer");
    (secs, resent, vtime::active().expect("clock installed").advances())
}

/// [`transfer`] under a real-time watchdog.
fn watched(profile: LinkProfile) -> (f64, u64, u64) {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(transfer(profile));
    });
    result
        .recv_timeout(Duration::from_secs(60))
        .expect("1 MiB over calibrated URP did not finish within 60 s of real time")
}

#[test]
fn calibrated_megabyte_moves_at_line_rate_under_vtime() {
    let (secs, resent, advances) = watched(Profiles::datakit_calibrated());
    // A full cell is a 2,048-byte frame at 2.2 Mbit/s plus 480 us,
    // 7.96 ms: 4.12 s of line.
    assert_eq!(resent, 0, "a lossless line resent {resent} cells");
    assert!(secs < 4.5, "1 MiB took {secs:.3} virtual s; the line needs 4.12");
    assert!(advances < 5 * CELLS, "{advances} clock advances for {CELLS} cells");
}

#[test]
fn calibrated_megabyte_survives_loss_under_vtime() {
    for seed in 0..4 {
        let profile = Profiles::datakit_calibrated().with_loss(0.05).with_seed(seed);
        let (secs, resent, _) = watched(profile);
        // About 29 cells are lost; a go-back from each resends what
        // followed it, a window at most.
        assert!(resent < CELLS / 3, "seed {seed}: {resent} of {CELLS} cells resent");
        assert!(secs < 6.0, "seed {seed}: 1 MiB took {secs:.3} virtual s at 5 % loss");
    }
}
