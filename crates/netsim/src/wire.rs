//! The pacing engine: a unidirectional frame wire.
//!
//! A wire carries whole frames from one sender to one receiver. The
//! sender is blocked for the frame's transmission time (serializing the
//! line), the frame is delivered after the propagation delay, and the
//! configured impairments (loss, duplication, corruption, reordering)
//! are applied in flight.

use crate::profile::LinkProfile;
use plan9_netlog::Counter;
use plan9_support::chan::{unbounded, Receiver, RecvTimeoutError, Sender};
use plan9_support::sync::Mutex;
use plan9_support::rng::SmallRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use plan9_support::time;
use std::time::{Duration, Instant};

/// A frame in flight with its delivery time.
struct InFlight {
    deliver_at: Instant,
    frame: Vec<u8>,
}

/// Ground-truth frame accounting for one medium, maintained inside
/// `impair` itself so the identity
/// `delivered == sent − dropped + duplicated` holds by construction.
pub struct WireStats {
    /// Frames handed to the medium.
    pub sent: Counter,
    /// Frame copies actually put in flight.
    pub delivered: Counter,
    /// Frames dropped by the loss roll.
    pub dropped: Counter,
    /// Extra copies created by the duplication roll.
    pub duplicated: Counter,
    /// Frames with a byte flipped by the corruption roll.
    pub corrupted: Counter,
    /// Frames delayed past their successors by the reorder roll.
    pub reordered: Counter,
}

impl WireStats {
    fn new() -> WireStats {
        WireStats {
            sent: Counter::new("wire.sent"),
            delivered: Counter::new("wire.delivered"),
            dropped: Counter::new("wire.dropped"),
            duplicated: Counter::new("wire.duplicated"),
            corrupted: Counter::new("wire.corrupted"),
            reordered: Counter::new("wire.reordered"),
        }
    }

    /// The six cells, for each machine on the medium to adopt into its
    /// registry (`plan9_netlog::Registry::adopt`): the wire counts
    /// once, and every `stats` file over it shows the count.
    pub fn cells(&self) -> [&Counter; 6] {
        [&self.sent, &self.delivered, &self.dropped, &self.duplicated, &self.corrupted, &self.reordered]
    }
}

/// The shared line state (the "medium"): who is transmitting and until
/// when. Several senders may share one medium (an Ethernet segment); the
/// lock serializes them exactly as a bus does.
pub struct Medium {
    profile: LinkProfile,
    busy_until: Mutex<Instant>,
    rng: Mutex<SmallRng>,
    stats: WireStats,
    /// Administrative link state: a downed medium drops every frame
    /// (counted as sent + dropped) without consuming impairment draws,
    /// so flapping a link never reshuffles a seeded run's later
    /// decisions and the conservation identity keeps holding.
    up: AtomicBool,
}

impl Medium {
    /// Creates a medium with the given profile.
    pub fn new(profile: LinkProfile) -> Arc<Medium> {
        let seed = profile.seed;
        Arc::new(Medium {
            profile,
            busy_until: Mutex::named(time::now(), "netsim.wire.busy"),
            rng: Mutex::named(SmallRng::seed_from_u64(seed), "netsim.wire.rng"),
            stats: WireStats::new(),
            up: AtomicBool::new(true),
        })
    }

    /// Raises or cuts the link (a trunk flap, a partition). While down,
    /// frames are still paced onto the line but every one is dropped.
    pub fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::Relaxed);
    }

    /// Whether the link is administratively up.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// The profile this medium was built with.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// The medium's frame counters.
    pub fn stats(&self) -> &WireStats {
        &self.stats
    }

    /// Acquires the line for `len` payload bytes and returns the instant
    /// transmission completes. Blocks the caller for the duration — the
    /// medium is busy and so is the transmitting "hardware".
    pub fn transmit(&self, len: usize) -> Instant {
        let tx = self.profile.tx_time(len);
        let done = {
            let mut busy = self.busy_until.lock();
            let start = (*busy).max(time::now());
            *busy = start + tx;
            *busy
        };
        // Pace the sender. For sub-millisecond waits a sleep is accurate
        // enough; we re-check because sleep may undershoot.
        let mut now = time::now();
        while now < done {
            time::sleep(done - now);
            now = time::now();
        }
        done
    }

    /// Rolls the impairment dice for one frame, possibly mutating it.
    /// Returns how many copies to deliver (0 = dropped) and an extra
    /// delay for reordering.
    pub(crate) fn impair(&self, frame: &mut [u8]) -> (usize, Duration) {
        let p = &self.profile;
        self.stats.sent.inc();
        if !self.is_up() {
            // A downed link eats the frame before the impairment dice:
            // no RNG draw is consumed, so the surviving traffic of a
            // seeded run is unchanged by when the flap happened.
            self.stats.dropped.inc();
            return (0, Duration::ZERO);
        }
        if p.loss == 0.0 && p.dup == 0.0 && p.corrupt == 0.0 && p.reorder == 0.0 {
            self.stats.delivered.inc();
            return (1, Duration::ZERO);
        }
        // Roll every enabled impairment before applying any outcome: a
        // frame the loss roll drops must not consume the corrupt, dup
        // or reorder draws, or toggling one profile knob would
        // reshuffle every later decision of a seeded run.
        let (lost, corrupt_idx, dup, reorder) = {
            let mut rng = self.rng.lock();
            let lost = p.loss > 0.0 && rng.gen_bool(p.loss.min(1.0));
            let corrupt_idx = if p.corrupt > 0.0
                && rng.gen_bool(p.corrupt.min(1.0))
                && !frame.is_empty()
            {
                Some(rng.gen_range(0..frame.len()))
            } else {
                None
            };
            let dup = p.dup > 0.0 && rng.gen_bool(p.dup.min(1.0));
            let reorder = p.reorder > 0.0 && rng.gen_bool(p.reorder.min(1.0));
            (lost, corrupt_idx, dup, reorder)
        };
        if lost {
            self.stats.dropped.inc();
            return (0, Duration::ZERO);
        }
        if let Some(idx) = corrupt_idx {
            frame[idx] ^= 0xff;
            self.stats.corrupted.inc();
        }
        let copies = if dup {
            self.stats.duplicated.inc();
            2
        } else {
            1
        };
        self.stats.delivered.add(copies as u64);
        let extra = if reorder {
            self.stats.reordered.inc();
            // Delay long enough to land behind the next frame or two.
            p.tx_time(p.mtu) * 3 + p.propagation
        } else {
            Duration::ZERO
        };
        (copies, extra)
    }
}

/// The sending half of a wire.
pub struct WireTx {
    medium: Arc<Medium>,
    tx: Sender<InFlight>,
}

impl WireTx {
    /// Sends one frame, blocking for the transmission time.
    ///
    /// Frames larger than the medium's MTU are refused — fragmentation is
    /// the business of the protocol layer above.
    pub fn send(&self, frame: &[u8]) -> crate::Result<()> {
        if frame.len() > self.medium.profile.mtu {
            return Err(format!(
                "frame of {} bytes exceeds {} mtu {}",
                frame.len(),
                self.medium.profile.name,
                self.medium.profile.mtu
            ));
        }
        let cur = plan9_netlog::trace::current();
        let t0 = cur.as_ref().map(|_| time::now());
        let done = self.medium.transmit(frame.len());
        let mut f = frame.to_vec();
        let (copies, extra) = self.medium.impair(&mut f);
        let deliver_at = done + self.medium.profile.propagation + extra;
        for _ in 0..copies {
            self.tx
                .send(InFlight {
                    deliver_at,
                    frame: f.clone(),
                })
                .map_err(|_| "wire: peer gone".to_string())?;
        }
        if let (Some(h), Some(t0)) = (cur, t0) {
            // Line acquisition plus serialization: where a paced or
            // busy wire makes a traced request wait.
            h.span(
                plan9_netlog::Facility::Ether,
                &format!("wire tx {}B", frame.len()),
                t0,
                time::now(),
            );
        }
        Ok(())
    }

    /// The medium this wire transmits on.
    pub fn medium(&self) -> &Arc<Medium> {
        &self.medium
    }
}

/// What a receive attempt produced.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A frame arrived.
    Frame(Vec<u8>),
    /// The sender is gone; no more frames will ever arrive.
    Hangup,
    /// The timeout elapsed first.
    TimedOut,
}

/// The receiving half of a wire.
pub struct WireRx {
    rx: Receiver<InFlight>,
    /// A frame that arrived while waiting but is not yet due (reordering
    /// support keeps at most one).
    held: Option<InFlight>,
}

impl WireRx {
    /// Blocks for the next frame; `None` means the sender hung up.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        match self.recv_deadline(None) {
            RecvOutcome::Frame(f) => Some(f),
            _ => None,
        }
    }

    /// Waits for a frame until `timeout` elapses.
    pub fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        self.recv_deadline(Some(time::now() + timeout))
    }

    fn recv_deadline(&mut self, deadline: Option<Instant>) -> RecvOutcome {
        let inflight = match self.held.take() {
            Some(f) => f,
            None => match deadline {
                None => match self.rx.recv() {
                    Ok(f) => f,
                    Err(_) => return RecvOutcome::Hangup,
                },
                Some(d) => {
                    let now = time::now();
                    if d <= now {
                        match self.rx.try_recv() {
                            Ok(f) => f,
                            Err(_) => return RecvOutcome::TimedOut,
                        }
                    } else {
                        match self.rx.recv_timeout(d - now) {
                            Ok(f) => f,
                            Err(RecvTimeoutError::Timeout) => return RecvOutcome::TimedOut,
                            Err(RecvTimeoutError::Disconnected) => return RecvOutcome::Hangup,
                        }
                    }
                }
            },
        };
        // Honor the in-flight propagation delay.
        let now = time::now();
        if inflight.deliver_at > now {
            if let Some(d) = deadline {
                if inflight.deliver_at > d {
                    // Not due before the caller's deadline: hold it.
                    let wait = d - now;
                    time::sleep(wait);
                    self.held = Some(inflight);
                    return RecvOutcome::TimedOut;
                }
            }
            time::sleep(inflight.deliver_at - now);
        }
        RecvOutcome::Frame(inflight.frame)
    }

    /// Non-blocking poll.
    pub fn try_recv(&mut self) -> Option<Vec<u8>> {
        // blocking-ok: zero timeout — the wait deadline is already
        // past, so this returns without sleeping
        match self.recv_timeout(Duration::ZERO) {
            RecvOutcome::Frame(f) => Some(f),
            _ => None,
        }
    }
}

/// Creates a unidirectional wire with its own medium.
pub fn wire_pair(profile: LinkProfile) -> (WireTx, WireRx) {
    let medium = Medium::new(profile);
    wire_on_medium(medium)
}

/// Creates a unidirectional wire transmitting on an existing medium
/// (used by shared-bus media).
pub fn wire_on_medium(medium: Arc<Medium>) -> (WireTx, WireRx) {
    let (tx, rx) = unbounded();
    (WireTx { medium, tx }, WireRx { rx, held: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LinkProfile, Profiles};

    #[test]
    fn frames_arrive_in_order() {
        let (tx, mut rx) = wire_pair(Profiles::ether_fast());
        tx.send(b"one").unwrap();
        tx.send(b"two").unwrap();
        assert_eq!(rx.recv().unwrap(), b"one");
        assert_eq!(rx.recv().unwrap(), b"two");
    }

    #[test]
    fn hangup_when_sender_dropped() {
        let (tx, mut rx) = wire_pair(Profiles::ether_fast());
        tx.send(b"last").unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), b"last");
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn mtu_enforced() {
        let (tx, _rx) = wire_pair(Profiles::ether_fast());
        assert!(tx.send(&vec![0u8; 2000]).is_err());
    }

    #[test]
    fn pacing_throttles_throughput() {
        // 1 Mbit/s: 10 frames of 1250 bytes = 100 ms on the line.
        let profile = LinkProfile {
            bandwidth_bps: 1_000_000,
            ..LinkProfile::fast("slow", 1500)
        };
        let (tx, mut rx) = wire_pair(profile);
        let start = Instant::now();
        let h = std::thread::spawn(move || {
            for _ in 0..10 {
                tx.send(&[0u8; 1250]).unwrap();
            }
        });
        for _ in 0..10 {
            rx.recv().unwrap();
        }
        h.join().unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(95),
            "paced send finished too fast: {elapsed:?}"
        );
    }

    #[test]
    fn propagation_delays_delivery() {
        let profile = LinkProfile {
            propagation: Duration::from_millis(20),
            ..LinkProfile::fast("lagged", 1500)
        };
        let (tx, mut rx) = wire_pair(profile);
        let start = Instant::now();
        tx.send(b"x").unwrap();
        rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn loss_drops_frames() {
        let (tx, mut rx) = wire_pair(Profiles::ether_fast().with_loss(1.0));
        tx.send(b"gone").unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), RecvOutcome::TimedOut);
    }

    #[test]
    fn dup_delivers_twice() {
        let (tx, mut rx) = wire_pair(Profiles::ether_fast().with_dup(1.0));
        tx.send(b"twin").unwrap();
        assert_eq!(rx.recv().unwrap(), b"twin");
        assert_eq!(rx.recv().unwrap(), b"twin");
    }

    #[test]
    fn corrupt_flips_bytes() {
        let (tx, mut rx) = wire_pair(Profiles::ether_fast().with_corrupt(1.0));
        tx.send(b"fragile").unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got.len(), 7);
        assert_ne!(got, b"fragile");
    }

    #[test]
    fn stats_identity_holds_per_wire() {
        let profile = Profiles::ether_fast().with_loss(0.3).with_dup(0.2);
        let (tx, mut rx) = wire_pair(profile);
        for _ in 0..200 {
            tx.send(b"frame").unwrap();
        }
        let s = tx.medium().stats();
        assert_eq!(s.sent.get(), 200);
        assert_eq!(
            s.delivered.get(),
            s.sent.get() - s.dropped.get() + s.duplicated.get(),
            "delivered == sent - dropped + duplicated"
        );
        // Every delivered copy is sitting in the channel.
        let mut got = 0u64;
        while rx.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, s.delivered.get());
    }

    #[test]
    fn loss_roll_does_not_consume_other_draws() {
        // Two runs from the same seed differing only in the loss
        // probability. Each enabled impairment rolls exactly once per
        // frame, so frame i's corruption decision is the same in both
        // runs; check it on every frame that survives both.
        let run = |loss: f64| -> Vec<Option<bool>> {
            let medium = Medium::new(Profiles::ether_fast().with_loss(loss).with_corrupt(0.5));
            (0..200)
                .map(|_| {
                    let mut f = b"abcdefgh".to_vec();
                    let (copies, _) = medium.impair(&mut f);
                    if copies == 0 {
                        None
                    } else {
                        Some(f != b"abcdefgh".to_vec())
                    }
                })
                .collect()
        };
        let light = run(0.1);
        let heavy = run(0.6);
        let mut compared = 0;
        for i in 0..200 {
            if let (Some(a), Some(b)) = (light[i], heavy[i]) {
                assert_eq!(a, b, "frame {i}: corrupt decision changed with the loss knob");
                compared += 1;
            }
        }
        assert!(compared > 20, "expected surviving overlap, got {compared}");
    }

    #[test]
    fn down_link_drops_without_consuming_draws() {
        // A frame offered while the link is down must not consume any
        // impairment draws: the flapped run's surviving frames carry
        // exactly the decisions of a run that never offered the dropped
        // frames at all, and conservation holds through the flap.
        let run = |flap: bool| -> (Vec<Option<bool>>, u64, u64, u64) {
            let medium = Medium::new(Profiles::ether_fast().with_corrupt(0.5));
            let out = (0..100)
                .filter(|i| flap || !(40..60).contains(i))
                .map(|i| {
                    if flap {
                        medium.set_up(!(40..60).contains(&i));
                    }
                    let mut f = b"abcdefgh".to_vec();
                    let (copies, _) = medium.impair(&mut f);
                    if copies == 0 {
                        None
                    } else {
                        Some(f != b"abcdefgh".to_vec())
                    }
                })
                .collect();
            let s = medium.stats();
            (out, s.sent.get(), s.delivered.get(), s.dropped.get())
        };
        let (skipped, ..) = run(false);
        let (flapped, sent, delivered, dropped) = run(true);
        assert_eq!(sent, 100);
        assert_eq!(dropped, 20, "the 20 flapped frames are dropped");
        assert_eq!(delivered, sent - dropped, "conservation through the flap");
        assert_eq!(skipped.len(), 80);
        for (i, f) in flapped.iter().enumerate().take(60).skip(40) {
            assert_eq!(*f, None, "frame {i} crossed a downed link");
        }
        for (si, fi) in (0..40).zip(0..40).chain((40..80).zip(60..100)) {
            assert_eq!(
                skipped[si], flapped[fi],
                "frame {fi}: the flap consumed impairment draws"
            );
        }
    }

    #[test]
    fn timeout_returns_timedout() {
        let (_tx, mut rx) = wire_pair(Profiles::ether_fast());
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(25)),
            RecvOutcome::TimedOut
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
