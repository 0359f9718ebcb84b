//! The workspace's only clock.
//!
//! Kernel-path code must be deterministic and simulator-friendly, so
//! reading a clock is a support-layer privilege — `plan9-check`
//! enforces the boundary for both clocks:
//!
//! - **Monotonic time** comes from [`now`]/[`sleep`], which route
//!   through the pluggable clock in [`vtime`](crate::vtime): the real
//!   monotonic clock by default, the discrete-event virtual clock when
//!   one is installed. Kernel crates never call `Instant::now()` or
//!   `thread::sleep` directly.
//! - **Wall-clock time** (`SystemTime`) is read only here, for the rare
//!   wall-derived value (initial sequence numbers, file timestamps).
//!
//! [`real_now`] is the sanctioned escape hatch for measuring real
//! elapsed wall time (bench harnesses timing a virtual run).

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The current monotonic instant on the kernel's clock: virtual when a
/// [`vtime`](crate::vtime) clock is installed, `Instant::now()`
/// otherwise. The real path costs one relaxed atomic load over a bare
/// `Instant::now()`.
pub fn now() -> Instant {
    match crate::vtime::active() {
        Some(clock) => clock.now(),
        None => Instant::now(),
    }
}

/// Sleeps for `d` on the kernel's clock: a virtual-timer park under
/// [`vtime`](crate::vtime), a real `thread::sleep` otherwise.
pub fn sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    match crate::vtime::active() {
        Some(clock) => clock.sleep(d),
        None => std::thread::sleep(d),
    }
}

/// The real monotonic clock, regardless of any installed virtual
/// clock: for measuring actual wall time (e.g. a bench harness timing
/// how fast a virtual sweep replays).
pub fn real_now() -> Instant {
    Instant::now()
}

/// The sub-second nanoseconds of the current wall-clock time: the
/// traditional cheap entropy for a 4.4BSD-style initial sequence
/// number. Under a virtual clock this derives from virtual elapsed
/// time instead, so a seeded run draws the same sequence numbers every
/// replay.
pub fn unix_subsec_nanos() -> u32 {
    match crate::vtime::active() {
        Some(clock) => (clock.elapsed().as_nanos() % 1_000_000_000) as u32,
        None => SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .subsec_nanos(),
    }
}

/// Converts a `SystemTime` (e.g. a file's mtime) to whole seconds since
/// the Unix epoch (0 for times before it).
pub fn to_unix_seconds(t: SystemTime) -> u64 {
    t.duration_since(UNIX_EPOCH).unwrap_or_default().as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_is_past_2020() {
        assert!(to_unix_seconds(SystemTime::now()) > 1_577_836_800);
    }

    /// This binary never installs a virtual clock, so `now`/`sleep`
    /// are the real ones.
    #[test]
    fn real_mode_sleep_takes_real_time() {
        assert!(!crate::vtime::is_virtual());
        let t0 = now();
        sleep(Duration::from_millis(5));
        assert!(now() - t0 >= Duration::from_millis(5));
    }

    #[test]
    fn subsec_nanos_in_range() {
        assert!(unix_subsec_nanos() < 1_000_000_000);
    }
}
