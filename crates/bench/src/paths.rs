//! The three paced paths of Table 1, each exposed as a uniform
//! send/recv pair so the measurement loop is identical.
//!
//! "We measured both latency and throughput of reading and writing
//! bytes between two processes for a number of different paths. ... The
//! latency is measured as the round trip time for a byte sent from one
//! process to another and back again. Throughput is measured using 16k
//! writes from one process to another."

use plan9_datakit::urp::{urp_dial, UrpConn, UrpListener};
use plan9_inet::il::IlConn;
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_netsim::cyclone::CycloneEnd;
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::fabric::DatakitSwitch;
use plan9_netsim::profile::LinkProfile;
use plan9_support::{time, vtime};
use std::sync::Arc;

/// A uniform message channel endpoint for measurement.
pub trait BenchChan: Send + 'static {
    /// Sends one message.
    fn send(&self, msg: &[u8]);
    /// Receives one message; panics on hangup (benchmarks own both
    /// ends).
    fn recv(&self) -> Vec<u8>;
}

impl BenchChan for Arc<IlConn> {
    fn send(&self, msg: &[u8]) {
        IlConn::send(self, msg).expect("il send");
    }
    fn recv(&self) -> Vec<u8> {
        IlConn::recv(self).expect("il recv").expect("il eof")
    }
}

impl BenchChan for Arc<UrpConn> {
    fn send(&self, msg: &[u8]) {
        UrpConn::send(self, msg).expect("urp send");
    }
    fn recv(&self) -> Vec<u8> {
        UrpConn::recv(self).expect("urp eof")
    }
}

impl BenchChan for CycloneEnd {
    fn send(&self, msg: &[u8]) {
        CycloneEnd::send(self, msg).expect("cyclone send");
    }
    fn recv(&self) -> Vec<u8> {
        CycloneEnd::recv(self).expect("cyclone eof")
    }
}

/// Builds the `IL/ether` path: real IL code over an Ethernet paced by
/// `profile`.
pub fn il_ether_path(profile: LinkProfile) -> (Arc<IlConn>, Arc<IlConn>) {
    let seg = EtherSegment::new(profile);
    let a = IpStack::new_pooled(seg.attach([8, 0, 0, 0xb, 0, 1]), IpConfig::local("10.11.0.1"));
    let b = IpStack::new_pooled(seg.attach([8, 0, 0, 0xb, 0, 2]), IpConfig::local("10.11.0.2"));
    let listener = b.il_module().listen(&b, 17008).expect("listen");
    // checked: spawn fails only on OS thread exhaustion at setup
    let t = vtime::kproc("il-accept", move || listener.accept().expect("accept")).expect("spawn");
    let ca = a
        .il_module()
        .connect(&a, b.addr(), 17008)
        .expect("connect");
    let cb = t.join().expect("join");
    // Keep the stacks alive for the life of the conns.
    std::mem::forget(a);
    std::mem::forget(b);
    (ca, cb)
}

/// Builds the `URP/Datakit` path over a switch paced by `profile`.
pub fn urp_datakit_path(profile: LinkProfile) -> (Arc<UrpConn>, Arc<UrpConn>) {
    let sw = DatakitSwitch::new(profile);
    let a = sw.attach("nj/astro/a").expect("attach a");
    let b = sw.attach("nj/astro/b").expect("attach b");
    let listener = UrpListener::new(b);
    // checked: spawn fails only on OS thread exhaustion at setup
    let t = vtime::kproc("urp-accept", move || listener.accept().expect("accept").0).expect("spawn");
    let ca = urp_dial(&a, "nj/astro/b!bench").expect("dial");
    let cb = t.join().expect("join");
    (ca, cb)
}

/// "Throughput is measured using 16k writes."
const WRITE: usize = 16 * 1024;

/// Measures a path's Table 1 cells on two fresh copies of it: MB/s over
/// `total` bytes, and the mean of `reps` round trips in milliseconds.
pub fn measure<A, B>(path: impl Fn() -> (A, B), total: usize, reps: usize) -> (f64, f64)
where
    A: BenchChan,
    B: BenchChan,
{
    let (a, b) = path();
    let mbs = measure_throughput(a, b, total);
    let (a, b) = path();
    (mbs, measure_latency(a, b, reps))
}

/// Measures one-way throughput: `total` bytes in 16 KiB writes from one
/// process to another; returns MB/s (decimal megabytes, as the paper's
/// table uses).
fn measure_throughput<A: BenchChan, B: BenchChan>(tx: A, rx: B, total: usize) -> f64 {
    // checked: spawn fails only on OS thread exhaustion at setup
    let receiver = vtime::kproc("bench-rx", move || {
        let mut got = 0usize;
        while got < total {
            got += rx.recv().len();
        }
        time::now()
    })
    .expect("spawn");
    let msg = vec![0x5au8; WRITE];
    let start = time::now();
    let mut sent = 0usize;
    while sent < total {
        let n = WRITE.min(total - sent);
        tx.send(&msg[..n]);
        sent += n;
    }
    let done = receiver.join().expect("receiver");
    let elapsed = done.saturating_duration_since(start);
    (total as f64 / 1e6) / elapsed.as_secs_f64()
}

/// Measures round-trip latency: one byte there and back, `reps` times;
/// returns the mean in milliseconds.
fn measure_latency<A: BenchChan, B: BenchChan>(near: A, far: B, reps: usize) -> f64 {
    // checked: spawn fails only on OS thread exhaustion at setup
    let echo = vtime::kproc("bench-echo", move || {
        for _ in 0..reps {
            let msg = far.recv();
            far.send(&msg);
        }
    })
    .expect("spawn");
    let start = time::now();
    for _ in 0..reps {
        near.send(&[0x42]);
        let _ = near.recv();
    }
    let elapsed = time::now().saturating_duration_since(start);
    echo.join().expect("echo");
    elapsed.as_secs_f64() * 1000.0 / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_netsim::cyclone::cyclone_link;
    use plan9_netsim::profile::Profiles;

    #[test]
    fn all_paths_carry_data_unpaced() {
        let (a, b) = il_ether_path(Profiles::ether_fast());
        BenchChan::send(&a, b"y");
        assert_eq!(BenchChan::recv(&b), b"y");
        let (a, b) = urp_datakit_path(Profiles::datakit_fast());
        BenchChan::send(&a, b"z");
        assert_eq!(BenchChan::recv(&b), b"z");
        let (a, b) = cyclone_link(Profiles::cyclone_fast());
        BenchChan::send(&a, b"w");
        assert_eq!(BenchChan::recv(&b), b"w");
    }

    #[test]
    fn throughput_and_latency_produce_sane_numbers() {
        let (mbs, ms) = measure(|| cyclone_link(Profiles::cyclone_fast()), 1 << 20, 100);
        assert!(mbs > 1.0, "an unpaced Cyclone should move >1MB/s, got {mbs}");
        assert!(ms < 10.0, "an unpaced Cyclone RTT should be <10ms, got {ms}");
    }
}
