//! The `/net/log/series` sampler: deterministic time-series snapshots
//! of a machine's metric registry.
//!
//! A running series re-arms itself on the timer wheel at exact
//! multiples of its interval from a base instant (`base + k*interval`,
//! never `now + interval`), so samples land at exact virtual instants
//! and never drift. Each sample stores what *changed* since the last
//! one — counter and histogram deltas, gauge values when they moved —
//! in a bounded ring, and the whole ring renders as ASCII. Under the
//! virtual clock two same-seed runs render byte-identical series,
//! which is what lets a fabric-wide dashboard diff cities instead of
//! eyeballing them.
//!
//! Before each sample the sampler mirrors the process-wide cells into
//! the registry ([`crate::Registry::refresh`]), so a series captures
//! pool-shard occupancy, timer churn and copies alongside the protocol
//! counters.
//!
//! Configuration rides the `/net/log/ctl` file (see
//! [`ctl`]): `series interval 250ms`, `series retention 512`,
//! `series start`, `series stop`, `series clear`.

use crate::{NetLog, SampledValue};
use plan9_support::sync::Mutex;
use plan9_support::{time, wheel};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// All series samplers share one wheel shard key: sampling is cheap,
/// and a fixed key keeps callback ordering deterministic.
const SERIES_KEY: u64 = 0x5e51_e500;

/// Default sampling interval.
const DEFAULT_INTERVAL: Duration = Duration::from_millis(100);

/// Default ring retention, in samples.
const DEFAULT_RETENTION: usize = 256;

/// One snapshot instant: the rendered deltas at `base + k*interval`.
#[derive(Clone, Debug)]
pub struct Sample {
    /// 1-based sample index.
    pub k: u64,
    /// Scheduled offset from the series base, microseconds — always
    /// exactly `k * interval`.
    pub at_us: u64,
    /// Offset at which the wheel actually ran the sampler; equals
    /// `at_us` under the virtual clock (asserted by the vtime tests).
    pub fired_us: u64,
    /// Rendered delta lines (`name +delta`, `name =value`, …).
    pub lines: Vec<String>,
}

struct SeriesState {
    interval: Duration,
    retention: usize,
    running: bool,
    /// Bumped on every start; stale wheel callbacks check it and bail.
    epoch: u64,
    base: Option<Instant>,
    next_k: u64,
    timer: Option<wheel::TimerId>,
    prev: Vec<(String, SampledValue)>,
    ring: VecDeque<Sample>,
}

/// The per-machine time-series sampler; one lives in every [`NetLog`].
pub struct Series {
    state: Mutex<SeriesState>,
}

impl Default for Series {
    fn default() -> Series {
        Series {
            state: Mutex::named(
                SeriesState {
                    interval: DEFAULT_INTERVAL,
                    retention: DEFAULT_RETENTION,
                    running: false,
                    epoch: 0,
                    base: None,
                    next_k: 1,
                    timer: None,
                    prev: Vec::new(),
                    ring: VecDeque::new(),
                },
                "netlog.series",
            ),
        }
    }
}

/// Starts sampling `nl`'s registry. The base instant is now; the first
/// sample lands exactly one interval later. No-op if already running.
pub fn start(nl: &Arc<NetLog>) -> Result<(), String> {
    nl.registry.refresh();
    let mut st = nl.series.state.lock();
    if st.running {
        return Ok(());
    }
    let base = time::now();
    st.running = true;
    st.epoch += 1;
    st.base = Some(base);
    st.next_k = 1;
    st.ring.clear();
    st.prev = nl.registry.sample();
    let epoch = st.epoch;
    let interval = st.interval;
    st.timer = Some(arm(nl, base + interval, epoch)?);
    Ok(())
}

fn arm(nl: &Arc<NetLog>, at: Instant, epoch: u64) -> Result<wheel::TimerId, String> {
    let w: Weak<NetLog> = Arc::downgrade(nl);
    wheel::schedule(SERIES_KEY, at, move || {
        if let Some(nl) = w.upgrade() {
            tick(&nl, epoch);
        }
    })
    .map_err(|e| format!("series: {e}"))
}

fn tick(nl: &Arc<NetLog>, epoch: u64) {
    let now = time::now();
    let cur = nl.registry.refresh().sample();
    let mut st = nl.series.state.lock();
    if !st.running || st.epoch != epoch {
        return;
    }
    let Some(base) = st.base else { return };
    let k = st.next_k;
    let at_us = k * st.interval.as_micros() as u64;
    let fired_us = now.saturating_duration_since(base).as_micros() as u64;
    let lines = delta_lines(&st.prev, &cur);
    st.prev = cur;
    st.ring.push_back(Sample {
        k,
        at_us,
        fired_us,
        lines,
    });
    while st.ring.len() > st.retention {
        st.ring.pop_front();
    }
    st.next_k = k + 1;
    let next = base + Duration::from_micros(st.interval.as_micros() as u64 * (k + 1));
    match arm(nl, next, epoch) {
        Ok(id) => st.timer = Some(id),
        Err(_) => {
            // Wheel refused (shutting down): stop cleanly.
            st.running = false;
            st.timer = None;
        }
    }
}

/// Renders what changed between two registry samples, name-sorted
/// (both inputs are). Counters and histogram count/sum render as
/// `+delta`, gauges as `=value`; unchanged metrics emit nothing. The
/// one delta: a series sample is this, and so is any report of what a
/// run added to cells that outlive it.
pub fn delta_lines(prev: &[(String, SampledValue)], cur: &[(String, SampledValue)]) -> Vec<String> {
    let mut out = Vec::new();
    for (name, v) in cur {
        let old = prev
            .binary_search_by(|p| p.0.as_str().cmp(name.as_str()))
            .ok()
            .map(|i| prev[i].1);
        match (*v, old) {
            (SampledValue::Counter(n), old) => {
                let o = match old {
                    Some(SampledValue::Counter(o)) => o,
                    _ => 0,
                };
                if n != o {
                    out.push(format!("{name} +{}", n.wrapping_sub(o)));
                }
            }
            (SampledValue::Gauge(n), old) => {
                let changed = !matches!(old, Some(SampledValue::Gauge(o)) if o == n);
                if changed {
                    out.push(format!("{name} ={n}"));
                }
            }
            (SampledValue::Histogram { count, sum_us }, old) => {
                let (oc, os) = match old {
                    Some(SampledValue::Histogram { count, sum_us }) => (count, sum_us),
                    _ => (0, 0),
                };
                if count != oc {
                    out.push(format!(
                        "{name} count +{} sum +{}us",
                        count.wrapping_sub(oc),
                        sum_us.wrapping_sub(os)
                    ));
                }
            }
        }
    }
    out
}

impl Series {
    /// Stops sampling, cancelling the armed timer. The ring is kept.
    pub fn stop(&self) {
        let mut st = self.state.lock();
        st.running = false;
        st.epoch += 1;
        if let Some(id) = st.timer.take() {
            wheel::cancel(id);
        }
    }

    /// Drops all buffered samples.
    pub fn clear(&self) {
        self.state.lock().ring.clear();
    }

    /// Sets the sampling interval. Only legal while stopped: a series
    /// mixes intervals badly and the alignment guarantee would lie.
    pub fn set_interval(&self, d: Duration) -> Result<(), String> {
        if d.is_zero() {
            return Err("series: interval must be positive".to_string());
        }
        let mut st = self.state.lock();
        if st.running {
            return Err("series: stop before changing interval".to_string());
        }
        st.interval = d;
        Ok(())
    }

    /// Sets how many samples the ring retains.
    pub fn set_retention(&self, n: usize) -> Result<(), String> {
        if n == 0 {
            return Err("series: retention must be positive".to_string());
        }
        let mut st = self.state.lock();
        st.retention = n;
        while st.ring.len() > n {
            st.ring.pop_front();
        }
        Ok(())
    }

    /// A snapshot of the buffered samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        self.state.lock().ring.iter().cloned().collect()
    }

    /// Renders the series as ASCII: a header line, then each sample as
    /// `sample <k> t=<offset>us` followed by its delta lines.
    pub fn render(&self) -> String {
        let st = self.state.lock();
        let mut out = format!(
            "series interval={}us retention={} samples={}\n",
            st.interval.as_micros(),
            st.retention,
            st.ring.len()
        );
        for s in st.ring.iter() {
            out.push_str(&format!("sample {} t={}us\n", s.k, s.at_us));
            for l in &s.lines {
                out.push_str(l);
                out.push('\n');
            }
        }
        out
    }
}

/// Handles a `series ...` ctl write against `nl`'s sampler:
///
/// ```text
/// series start            # begin sampling (base = now)
/// series stop             # stop; ring kept for reading
/// series clear            # drop buffered samples
/// series interval 250ms   # set interval (us/ms/s; while stopped)
/// series retention 512    # ring size in samples
/// ```
pub fn ctl(nl: &Arc<NetLog>, text: &str) -> Result<(), String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["series", "start"] => start(nl),
        ["series", "stop"] => {
            nl.series.stop();
            Ok(())
        }
        ["series", "clear"] => {
            nl.series.clear();
            Ok(())
        }
        ["series", "interval", d] => nl.series.set_interval(parse_duration(d)?),
        ["series", "retention", n] => nl.series.set_retention(
            n.parse()
                .map_err(|_| format!("series: bad retention {n}"))?,
        ),
        _ => Err(format!("series: unknown ctl {}", text.trim())),
    }
}

/// Parses `<n>us`, `<n>ms` or `<n>s` (the scenario DSL's suffixes).
fn parse_duration(w: &str) -> Result<Duration, String> {
    let (digits, mult) = if let Some(d) = w.strip_suffix("us") {
        (d, 1u64)
    } else if let Some(d) = w.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = w.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        return Err(format!("series: bad duration {w} (want us/ms/s)"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("series: bad duration {w}"))?;
    Ok(Duration::from_micros(n * mult))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctl_parses_and_rejects() {
        let nl = NetLog::new();
        assert!(ctl(&nl, "series interval 50ms").is_ok());
        assert!(ctl(&nl, "series retention 8").is_ok());
        assert!(ctl(&nl, "series interval 0ms").is_err());
        assert!(ctl(&nl, "series retention 0").is_err());
        assert!(ctl(&nl, "series interval fast").is_err());
        assert!(ctl(&nl, "series frobnicate").is_err());
        assert!(ctl(&nl, "series").is_err());
    }

    #[test]
    fn interval_locked_while_running() {
        let nl = NetLog::new();
        ctl(&nl, "series start").expect("start");
        assert!(nl.series.set_interval(Duration::from_millis(10)).is_err());
        nl.series.stop();
        assert!(nl.series.set_interval(Duration::from_millis(10)).is_ok());
    }

    #[test]
    fn delta_lines_skip_unchanged() {
        let prev = vec![
            ("a.count".to_string(), SampledValue::Counter(5)),
            ("b.depth".to_string(), SampledValue::Gauge(2)),
            (
                "c.rtt".to_string(),
                SampledValue::Histogram {
                    count: 1,
                    sum_us: 10,
                },
            ),
        ];
        let cur = vec![
            ("a.count".to_string(), SampledValue::Counter(9)),
            ("b.depth".to_string(), SampledValue::Gauge(2)),
            (
                "c.rtt".to_string(),
                SampledValue::Histogram {
                    count: 3,
                    sum_us: 40,
                },
            ),
            ("d.new".to_string(), SampledValue::Counter(7)),
        ];
        let lines = delta_lines(&prev, &cur);
        assert_eq!(
            lines,
            vec![
                "a.count +4".to_string(),
                "c.rtt count +2 sum +30us".to_string(),
                "d.new +7".to_string(),
            ]
        );
    }

    #[test]
    fn render_shape_is_stable() {
        let nl = NetLog::new();
        let text = nl.series.render();
        assert!(text.starts_with("series interval=100000us retention=256 samples=0\n"));
    }
}
