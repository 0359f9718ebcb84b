//! The four measured paths of Table 1, each exposed as a uniform
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
use plan9_netsim::cyclone::{cyclone_link, CycloneEnd};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::fabric::DatakitSwitch;
use plan9_streams::stream_pipe;
use plan9_streams::Stream;
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_support::{time, vtime};
use std::sync::Arc;
use std::time::Duration;

/// A uniform message channel endpoint for measurement.
pub trait BenchChan: Send + 'static {
    /// Sends one message.
    fn send(&self, msg: &[u8]);
    /// Receives one message; panics on hangup (benchmarks own both
    /// ends).
    fn recv(&self) -> Vec<u8>;
}

impl BenchChan for Arc<Stream> {
    fn send(&self, msg: &[u8]) {
        self.write(msg).expect("stream write");
    }
    fn recv(&self) -> Vec<u8> {
        self.read(1 << 16).expect("stream read")
    }
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

/// Which calibration to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// 1993 hardware parameters: reproduces Table 1's numbers.
    Calibrated,
    /// No pacing: raw code-path speed on the host machine.
    Fast,
}

fn ether_profile(c: Calibration) -> LinkProfile {
    match c {
        Calibration::Calibrated => Profiles::ether_calibrated(),
        Calibration::Fast => Profiles::ether_fast(),
    }
}

fn datakit_profile(c: Calibration) -> LinkProfile {
    match c {
        Calibration::Calibrated => Profiles::datakit_calibrated(),
        Calibration::Fast => Profiles::datakit_fast(),
    }
}

fn cyclone_profile(c: Calibration) -> LinkProfile {
    match c {
        Calibration::Calibrated => Profiles::cyclone_calibrated(),
        Calibration::Fast => Profiles::cyclone_fast(),
    }
}

/// Builds the `pipes` path: a real stream pipe (§2.4 — "pipes ... are
/// implemented using streams"), so the measurement exercises the block
/// and queue machinery.
pub fn pipes_path() -> (Arc<Stream>, Arc<Stream>) {
    stream_pipe()
}

/// Builds the `IL/ether` path: real IL code over the (possibly paced)
/// Ethernet.
pub fn il_ether_path(c: Calibration) -> (Arc<IlConn>, Arc<IlConn>) {
    let seg = EtherSegment::new(ether_profile(c));
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

/// Builds the `URP/Datakit` path.
pub fn urp_datakit_path(c: Calibration) -> (Arc<UrpConn>, Arc<UrpConn>) {
    let sw = DatakitSwitch::new(datakit_profile(c));
    let a = sw.attach("nj/astro/a").expect("attach a");
    let b = sw.attach("nj/astro/b").expect("attach b");
    let listener = UrpListener::new(b);
    // checked: spawn fails only on OS thread exhaustion at setup
    let t = vtime::kproc("urp-accept", move || listener.accept().expect("accept").0).expect("spawn");
    let ca = urp_dial(&a, "nj/astro/b!bench").expect("dial");
    let cb = t.join().expect("join");
    (ca, cb)
}

/// Builds the `Cyclone` path.
pub fn cyclone_path(c: Calibration) -> (CycloneEnd, CycloneEnd) {
    cyclone_link(cyclone_profile(c))
}

/// Measures one-way throughput: `total` bytes in 16 KiB writes from one
/// process to another; returns MB/s (decimal megabytes, as the paper's
/// table uses).
pub fn measure_throughput<A, B>(tx: A, rx: B, total: usize, write_size: usize) -> f64
where
    A: BenchChan,
    B: BenchChan,
{
    // checked: spawn fails only on OS thread exhaustion at setup
    let receiver = vtime::kproc("bench-rx", move || {
        let mut got = 0usize;
        while got < total {
            got += rx.recv().len();
        }
        time::now()
    })
    .expect("spawn");
    let msg = vec![0x5au8; write_size];
    let start = time::now();
    let mut sent = 0usize;
    while sent < total {
        let n = write_size.min(total - sent);
        tx.send(&msg[..n]);
        sent += n;
    }
    let done = receiver.join().expect("receiver");
    let elapsed = done.saturating_duration_since(start);
    (total as f64 / 1e6) / elapsed.as_secs_f64()
}

/// Measures round-trip latency: one byte there and back, `reps` times;
/// returns the mean in milliseconds.
pub fn measure_latency<A, B>(near: A, far: B, reps: usize) -> f64
where
    A: BenchChan,
    B: BenchChan,
{
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

/// A small settle pause between path setups (ARP, handshakes).
pub fn settle() {
    time::sleep(Duration::from_millis(50));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paths_carry_data_unpaced() {
        let (a, b) = pipes_path();
        BenchChan::send(&a, b"x");
        assert_eq!(BenchChan::recv(&b), b"x");
        let (a, b) = il_ether_path(Calibration::Fast);
        BenchChan::send(&a, b"y");
        assert_eq!(BenchChan::recv(&b), b"y");
        let (a, b) = urp_datakit_path(Calibration::Fast);
        BenchChan::send(&a, b"z");
        assert_eq!(BenchChan::recv(&b), b"z");
        let (a, b) = cyclone_path(Calibration::Fast);
        BenchChan::send(&a, b"w");
        assert_eq!(BenchChan::recv(&b), b"w");
    }

    #[test]
    fn throughput_and_latency_produce_sane_numbers() {
        let (a, b) = pipes_path();
        let mbs = measure_throughput(a, b, 1 << 20, 16 * 1024);
        assert!(mbs > 1.0, "pipes should move >1MB/s, got {mbs}");
        let (a, b) = pipes_path();
        let ms = measure_latency(a, b, 100);
        assert!(ms < 10.0, "pipe RTT should be <10ms, got {ms}");
    }
}
