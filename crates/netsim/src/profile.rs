//! Link calibration profiles.
//!
//! A [`LinkProfile`] captures everything the pacing engine needs to make
//! a simulated medium behave like a particular piece of 1993 hardware.
//! The numbers in [`Profiles::calibrated`] are derived from the paper:
//!
//! * Ethernet: 10 Mbit/s raw; the paper's IL/ether path moved 1.02 MB/s
//!   of the 1.25 MB/s raw medium, with a 1.42 ms one-byte round trip —
//!   most of that round trip is protocol processing on 25 MHz MIPS, which
//!   we charge as a per-frame overhead.
//! * Datakit: URP moved 0.22 MB/s with a 1.75 ms round trip; the line is
//!   modeled near T1-class speed with store-and-forward switch latency.
//! * Cyclone: 125 Mbit/s fiber, but end-to-end throughput was 3.2 MB/s —
//!   limited by VME bus copies, which we model as a reduced effective
//!   bandwidth plus a small per-frame staging cost.
//! * Pipes are not a medium: a pipe is a stream, memory-bound and unpaced
//!   (the paper's 8.15 MB/s is simply what a 25 MHz MIPS could copy), so
//!   what it costs is real CPU, not a profile.

use std::time::Duration;

/// The workspace-wide default impairment seed (stable across builds so
/// recorded bench numbers stay comparable).
pub const DEFAULT_SEED: u64 = 0x9fc0de;

/// Parameters of one direction of a simulated link.
#[derive(Debug, Clone)]
pub struct LinkProfile {
    /// Human-readable name for stats files and reports.
    pub name: &'static str,
    /// Line rate in bits per second; `0` means unpaced (memory speed).
    pub bandwidth_bps: u64,
    /// One-way propagation (and switching) delay.
    pub propagation: Duration,
    /// Fixed cost charged per frame, modeling era-appropriate protocol
    /// and interrupt processing.
    pub per_frame: Duration,
    /// Extra bytes charged to each frame on the wire (preamble, headers
    /// below the simulated layer).
    pub frame_overhead: usize,
    /// Largest frame the medium will carry.
    pub mtu: usize,
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a frame is delivered twice.
    pub dup: f64,
    /// Probability a frame has a byte corrupted in flight.
    pub corrupt: f64,
    /// Probability a frame is delayed past its successor (reordering).
    pub reorder: f64,
    /// Seed for the medium's impairment RNG: two runs of the same
    /// scenario with the same seed draw identical loss/dup/corrupt/
    /// reorder decisions.
    pub seed: u64,
}

impl LinkProfile {
    /// An unpaced, perfectly reliable link — the unit-test medium.
    pub fn fast(name: &'static str, mtu: usize) -> LinkProfile {
        LinkProfile {
            name,
            bandwidth_bps: 0,
            propagation: Duration::ZERO,
            per_frame: Duration::ZERO,
            frame_overhead: 0,
            mtu,
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            seed: DEFAULT_SEED,
        }
    }

    /// Returns a copy with the given frame-loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkProfile {
        self.loss = loss;
        self
    }

    /// Returns a copy with the given duplication probability.
    pub fn with_dup(mut self, dup: f64) -> LinkProfile {
        self.dup = dup;
        self
    }

    /// Returns a copy with the given corruption probability.
    pub fn with_corrupt(mut self, corrupt: f64) -> LinkProfile {
        self.corrupt = corrupt;
        self
    }

    /// Returns a copy with the given reorder probability.
    pub fn with_reorder(mut self, reorder: f64) -> LinkProfile {
        self.reorder = reorder;
        self
    }

    /// Returns a copy seeding the impairment RNG with `seed`.
    pub fn with_seed(mut self, seed: u64) -> LinkProfile {
        self.seed = seed;
        self
    }

    /// Whether the line takes time to send a frame: it has a finite
    /// rate or a per-frame cost. An unpaced line is off as it is sent.
    pub fn paced(&self) -> bool {
        self.bandwidth_bps > 0 || self.per_frame > Duration::ZERO
    }

    /// The time the line is busy transmitting `len` payload bytes.
    pub fn tx_time(&self, len: usize) -> Duration {
        let mut t = self.per_frame;
        let bits = ((len + self.frame_overhead) * 8) as u64;
        // bandwidth 0 means "infinitely fast": no serialization term.
        if let Some(ns) = bits.saturating_mul(1_000_000_000).checked_div(self.bandwidth_bps) {
            t += Duration::from_nanos(ns);
        }
        t
    }
}

/// The named profile sets used by benchmarks and machine assembly.
pub struct Profiles;

impl Profiles {
    /// 10 Mbit/s shared Ethernet with 1993-class processing costs.
    pub fn ether_calibrated() -> LinkProfile {
        LinkProfile {
            name: "ether10",
            bandwidth_bps: 10_000_000,
            propagation: Duration::from_micros(120),
            per_frame: Duration::from_micros(320),
            frame_overhead: 38, // preamble + FCS + interframe gap
            mtu: 1514,
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            seed: DEFAULT_SEED,
        }
    }

    /// An unpaced Ethernet for tests.
    pub fn ether_fast() -> LinkProfile {
        LinkProfile::fast("ether", 1514)
    }

    /// Datakit line through the switch: T1-class with store-and-forward
    /// latency and per-cell overhead.
    pub fn datakit_calibrated() -> LinkProfile {
        LinkProfile {
            name: "datakit",
            bandwidth_bps: 2_200_000,
            propagation: Duration::from_micros(200),
            per_frame: Duration::from_micros(480),
            frame_overhead: 8,
            mtu: 2048,
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            seed: DEFAULT_SEED,
        }
    }

    /// An unpaced Datakit for tests.
    pub fn datakit_fast() -> LinkProfile {
        LinkProfile::fast("datakit", 2048)
    }

    /// Cyclone fiber link: 125 Mbit/s on the fiber but end-to-end limited
    /// by VME copies to roughly 30 Mbit/s effective.
    pub fn cyclone_calibrated() -> LinkProfile {
        LinkProfile {
            name: "cyclone",
            bandwidth_bps: 30_000_000,
            propagation: Duration::from_micros(10),
            per_frame: Duration::from_micros(150),
            frame_overhead: 8,
            mtu: 16 * 1024,
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            seed: DEFAULT_SEED,
        }
    }

    /// An unpaced Cyclone for tests.
    pub fn cyclone_fast() -> LinkProfile {
        LinkProfile::fast("cyclone", 16 * 1024)
    }

    /// A serial line at the given baud rate (10 bits per byte with start
    /// and stop bits).
    pub fn uart(baud: u32) -> LinkProfile {
        LinkProfile {
            name: "eia",
            bandwidth_bps: baud as u64,
            propagation: Duration::from_micros(1),
            per_frame: Duration::ZERO,
            frame_overhead: 0,
            mtu: 1,
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            seed: DEFAULT_SEED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_zero_when_unpaced() {
        let p = LinkProfile::fast("x", 1500);
        assert_eq!(p.tx_time(1500), Duration::ZERO);
    }

    #[test]
    fn tx_time_scales_with_length() {
        let p = Profiles::ether_calibrated();
        let t1 = p.tx_time(100);
        let t2 = p.tx_time(1400);
        assert!(t2 > t1);
        // 1400+38 bytes at 10 Mbit/s is ~1.15 ms plus per-frame cost.
        let expect = p.per_frame + Duration::from_micros((1438 * 8) / 10);
        let diff = t2.abs_diff(expect);
        assert!(diff < Duration::from_micros(5), "t2={t2:?} expect={expect:?}");
    }

    #[test]
    fn impairment_builders() {
        let p = Profiles::ether_fast().with_loss(0.1).with_dup(0.2);
        assert_eq!(p.loss, 0.1);
        assert_eq!(p.dup, 0.2);
    }
}
