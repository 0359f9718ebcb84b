//! The pacing engine: a unidirectional frame wire.
//!
//! A wire carries whole frames from one sender to one receiver. The
//! sender is blocked for the frame's transmission time (serializing the
//! line), the frame is delivered after the propagation delay, and the
//! configured impairments (loss, duplication, corruption, reordering)
//! are applied in flight.
//!
//! Every medium delivers by one rule, [`arrive`]: a frame goes to its
//! receiver's handler at its deadline, as a timer-wheel entry while the
//! deadline is ahead and as a pool job once it is due. A wire's
//! receiver is a [`WireRx`]: a handler registered on it
//! ([`WireRx::set_rx_handler`]) is handed each frame, and until there
//! is one the frames queue for a blocking receive ([`WireRx::recv`]).

use crate::profile::LinkProfile;
use plan9_netlog::Counter;
use plan9_support::rng::SmallRng;
use plan9_support::sync::{Condvar, Mutex};
use plan9_support::{pool, time, wheel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The due-frame rule, for every medium: runs `hand` — which hands a
/// frame to its receiver's handler — on the pool shard for `key` at
/// `at`: as a timer-wheel entry if `at` is still ahead (a paced medium,
/// or one with propagation delay), and as a job right away if it is
/// due, which a sender holding no lock runs itself (see [`pool`]). It
/// runs with no current trace, on whichever thread runs it. A failed
/// schedule or submit (no thread for the wheel or a worker) loses the
/// frame, as a lossy medium may.
pub(crate) fn arrive(key: u64, at: Instant, hand: impl FnOnce() + Send + 'static) {
    if at <= time::now() {
        let _ = pool::submit(key, move || untraced(hand));
    } else {
        let _ = wheel::schedule(key, at, move || untraced(hand));
    }
}

fn untraced(hand: impl FnOnce()) {
    let _untraced = plan9_netlog::trace::clear_current();
    hand()
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
    /// medium is busy and so is the transmitting "hardware". A
    /// transmitter may be a pool job (a protocol's acknowledgment or
    /// resend): this is where it waits, for every medium.
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
            // blocking-ok: the transmitter is busy while its frame is on
            // the line: one frame's serialization time, bounded by the
            // MTU, and none at all on an unpaced medium
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

/// A wire receiver's handler: each frame, then `None` once, when the
/// sender hangs up, after the last frame it sent.
type WireHandler = Arc<dyn Fn(Option<Vec<u8>>) + Send + Sync>;

/// A wire's receiving end, as its sender reaches it.
struct Port {
    /// The pool key every arrival of the wire runs on, queued or
    /// handled: one at a time, in order.
    key: u64,
    state: Mutex<PortState>,
    /// Signalled when an arrival is queued for a blocking receive.
    arrived: Condvar,
}

struct PortState {
    handler: Option<WireHandler>,
    /// Arrivals not yet taken: by a blocking receive, or by a handler
    /// registered since they came. The hangup, `None`, stays at the end.
    queue: VecDeque<Option<Vec<u8>>>,
    /// The latest deadline of a frame sent, which the hangup follows.
    last: Instant,
}

impl Port {
    fn new(key: u64) -> Arc<Port> {
        let state = PortState { handler: None, queue: VecDeque::new(), last: time::now() };
        Arc::new(Port { key, state: Mutex::named(state, "netsim.wire.port"), arrived: Condvar::new() })
    }

    /// An arrival, on the wire's key: the handler's, unless what came
    /// before it is still queued for it; else the queue's.
    fn take(&self, item: Option<Vec<u8>>) {
        let mut st = self.state.lock();
        match &st.handler {
            Some(h) if st.queue.is_empty() => {
                let h = Arc::clone(h);
                drop(st);
                h(item)
            }
            _ => {
                st.queue.push_back(item);
                self.arrived.notify_all();
            }
        }
    }

    /// Hands `h` what is queued, in order: a job on the wire's key, so
    /// no later arrival is taken before it is done.
    fn hand_queued(&self, h: &WireHandler) {
        loop {
            let Some(item) = self.state.lock().queue.pop_front() else { return };
            h(item);
        }
    }

    /// Sends `item` toward the receiver, to arrive at `at`.
    fn post(self: &Arc<Self>, at: Instant, item: Option<Vec<u8>>) {
        let mut st = self.state.lock();
        st.last = st.last.max(at);
        drop(st);
        let port = Arc::clone(self);
        arrive(self.key, at, move || port.take(item));
    }
}

/// The sending half of a wire. Dropping it hangs up: the receiver gets
/// `None` after the last frame.
pub struct WireTx {
    medium: Arc<Medium>,
    port: Arc<Port>,
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
        if copies == 2 {
            self.port.post(deliver_at, Some(f.clone()));
        }
        if copies > 0 {
            self.port.post(deliver_at, Some(f));
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

impl Drop for WireTx {
    fn drop(&mut self) {
        let at = self.port.state.lock().last.max(time::now());
        self.port.post(at, None);
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
    port: Arc<Port>,
}

impl WireRx {
    /// Blocks for the next frame; `None` means the sender hung up.
    pub fn recv(&self) -> Option<Vec<u8>> {
        match self.wait(None) {
            RecvOutcome::Frame(f) => Some(f),
            _ => None,
        }
    }

    /// Waits for a frame until `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvOutcome {
        self.wait(Some(time::now() + timeout))
    }

    /// Takes the next queued arrival, waiting for one until `deadline`.
    fn wait(&self, deadline: Option<Instant>) -> RecvOutcome {
        let mut st = self.port.state.lock();
        loop {
            match (st.queue.front(), deadline) {
                (Some(None), _) => return RecvOutcome::Hangup,
                (Some(Some(_)), _) => {
                    return st.queue.pop_front().flatten().map_or(RecvOutcome::Hangup, RecvOutcome::Frame)
                }
                (None, None) => self.port.arrived.wait(&mut st),
                (None, Some(d)) if d <= time::now() => return RecvOutcome::TimedOut,
                (None, Some(d)) => {
                    let _ = self.port.arrived.wait_until(&mut st, d);
                }
            }
        }
    }

    /// Hands every arrival to `handler` instead of queueing it, each on
    /// the wire's pool key (see [`WireRx::key`]): first what arrived
    /// before, in order, then each frame at its deadline, then the
    /// hangup. The handler must not wait (it runs as a pool job, on a
    /// worker or on the sending thread); it may transmit.
    pub fn set_rx_handler(&self, handler: impl Fn(Option<Vec<u8>>) + Send + Sync + 'static) {
        let h: WireHandler = Arc::new(handler);
        self.port.state.lock().handler = Some(Arc::clone(&h));
        let port = Arc::clone(&self.port);
        let _ = pool::submit(self.port.key, move || port.hand_queued(&h));
    }

    /// The pool key this wire's arrivals run on.
    pub fn key(&self) -> u64 {
        self.port.key
    }
}

/// Creates a unidirectional wire transmitting on an existing medium
/// (used by shared-bus media), whose arrivals run on pool key `key`.
pub fn wire_on_medium(medium: Arc<Medium>, key: u64) -> (WireTx, WireRx) {
    let port = Port::new(key);
    (WireTx { medium, port: Arc::clone(&port) }, WireRx { port })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LinkProfile, Profiles};

    fn wire_pair(profile: LinkProfile) -> (WireTx, WireRx) {
        wire_on_medium(Medium::new(profile), 0)
    }

    #[test]
    fn frames_arrive_in_order() {
        let (tx, rx) = wire_pair(Profiles::ether_fast());
        tx.send(b"one").unwrap();
        tx.send(b"two").unwrap();
        assert_eq!(rx.recv().unwrap(), b"one");
        assert_eq!(rx.recv().unwrap(), b"two");
    }

    #[test]
    fn hangup_when_sender_dropped() {
        let (tx, rx) = wire_pair(Profiles::ether_fast());
        tx.send(b"last").unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), b"last");
        assert_eq!(rx.recv(), None);
    }

    /// What a handler registered after `early` was sent is handed, in
    /// order, over a wire with `propagation`.
    fn handled_in_order(propagation: Duration) -> Vec<Option<Vec<u8>>> {
        let (tx, rx) = wire_pair(LinkProfile { propagation, ..LinkProfile::fast("lagged", 1500) });
        tx.send(b"early").unwrap();
        let (seen_tx, seen) = std::sync::mpsc::channel();
        rx.set_rx_handler(move |f| seen_tx.send(f).unwrap());
        tx.send(b"late").unwrap();
        drop(tx);
        (0..3).map(|_| seen.recv_timeout(Duration::from_secs(5)).unwrap()).collect()
    }

    #[test]
    fn a_handler_is_handed_the_earlier_frames_first_and_the_hangup_last() {
        let want = vec![Some(b"early".to_vec()), Some(b"late".to_vec()), None];
        // Unpaced, "early" is queued before the handler comes; with a
        // propagation delay it is still in flight.
        assert_eq!(handled_in_order(Duration::ZERO), want);
        assert_eq!(handled_in_order(Duration::from_millis(5)), want);
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
        let (tx, rx) = wire_pair(profile);
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
        let (tx, rx) = wire_pair(profile);
        let start = Instant::now();
        tx.send(b"x").unwrap();
        rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn loss_drops_frames() {
        let (tx, rx) = wire_pair(Profiles::ether_fast().with_loss(1.0));
        tx.send(b"gone").unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), RecvOutcome::TimedOut);
    }

    #[test]
    fn dup_delivers_twice() {
        let (tx, rx) = wire_pair(Profiles::ether_fast().with_dup(1.0));
        tx.send(b"twin").unwrap();
        assert_eq!(rx.recv().unwrap(), b"twin");
        assert_eq!(rx.recv().unwrap(), b"twin");
    }

    #[test]
    fn corrupt_flips_bytes() {
        let (tx, rx) = wire_pair(Profiles::ether_fast().with_corrupt(1.0));
        tx.send(b"fragile").unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got.len(), 7);
        assert_ne!(got, b"fragile");
    }

    #[test]
    fn stats_identity_holds_per_wire() {
        let profile = Profiles::ether_fast().with_loss(0.3).with_dup(0.2);
        let (tx, rx) = wire_pair(profile);
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
        while rx.recv_timeout(Duration::ZERO) != RecvOutcome::TimedOut {
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
        let (_tx, rx) = wire_pair(Profiles::ether_fast());
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(25)),
            RecvOutcome::TimedOut
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
