//! `plan9-netlog` — the kernel's instrumentation subsystem.
//!
//! Plan 9 exposes network diagnostics the same way it exposes the
//! network itself: as files. The LANCE device tree has a per-connection
//! `stats` file, every protocol directory can report itself in ASCII,
//! and the `netlog` device (`/net/log`) carries a running commentary of
//! protocol events filtered by a facility mask set with ctl writes such
//! as `set il tcp` and `clear`.
//!
//! This crate is the shared machinery behind all of that:
//!
//! * [`Counter`] / [`Gauge`] — named `AtomicU64` cells, cloneable
//!   handles, zero allocation on the hot path.
//! * [`Histogram`] — fixed log2-bucket latency histograms (one atomic
//!   per bucket) for RTTs and RPC round trips.
//! * [`Registry`] — the one name → metric table of a machine, and
//!   [`Registry::render`] the one renderer: every `stats` file under
//!   `/net`, `/net/log/{stats,copy}`, each series sample and the
//!   scenario report's pool block is `name value` lines of it.
//! * [`Facility`] / [`EventLog`] — a bounded ring of protocol events
//!   guarded by an atomic per-facility enable mask; disabled facilities
//!   cost one relaxed load per event site. The ring is the one record
//!   of an event: a traced one carries its root's id, and
//!   [`trace::Tracer::render`] lists it under that root.
//!
//! Nothing here performs I/O; the file-system surface (`/net/log`,
//! `stats` files) lives in `plan9-core`, which simply renders these
//! types on demand.

pub mod series;
pub mod trace;

use plan9_support::copysite::CopySnapshot;
use plan9_support::sync::Mutex;
use plan9_support::{pool, wheel};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::TraceHandle;

/// A named monotonically increasing counter. Clones share the cell.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

struct CounterInner {
    name: String,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new(name: &str) -> Counter {
        Counter {
            inner: Arc::new(CounterInner {
                name: name.to_string(),
                value: AtomicU64::new(0),
            }),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to a total counted elsewhere
    /// ([`Registry::refresh`]'s mirrors of the process-wide cells):
    /// never lowers it, so two refreshes that race cannot make a
    /// sample read less than the one before.
    fn set(&self, total: u64) {
        self.inner.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name(), self.get())
    }
}

/// A named gauge: a value that can move both ways.
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<CounterInner>,
}

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new(name: &str) -> Gauge {
        Gauge {
            inner: Arc::new(CounterInner {
                name: name.to_string(),
                value: AtomicU64::new(0),
            }),
        }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Sets the value outright.
    pub fn set(&self, v: u64) {
        self.inner.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut cur = self.inner.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.inner.value.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `b` counts samples in
/// `[2^b, 2^(b+1))` microseconds (bucket 0 also takes zero).
const HIST_BUCKETS: usize = 40;

/// A fixed-bucket log2 latency histogram. Recording is one atomic add;
/// no allocation, no lock.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    name: String,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram. Samples are microseconds.
    pub fn new(name: &str) -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                name: name.to_string(),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    fn bucket_of(us: u64) -> usize {
        if us <= 1 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.inner.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(us, Ordering::Relaxed);
    }

    /// Records a duration sample.
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Renders the histogram as ASCII lines:
    /// a `name count <n> avg <us>us` header followed by one
    /// `name <lo>-<hi>us <count>` line per occupied bucket.
    pub fn render(&self) -> String {
        let count = self.count();
        let avg = self.sum_us().checked_div(count).unwrap_or(0);
        let mut out = format!("{} count {} avg {}us\n", self.name(), count, avg);
        for (b, cell) in self.inner.buckets.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let lo = if b == 0 { 0 } else { 1u64 << b };
            let hi = 1u64 << (b + 1);
            out.push_str(&format!("{} {}-{}us {}\n", self.name(), lo, hi, n));
        }
        out
    }
}

/// A point-in-time, kind-tagged reading of one metric, as returned by
/// [`Registry::sample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampledValue {
    /// A counter's cumulative value.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(u64),
    /// A histogram's cumulative count and sum.
    Histogram {
        /// Samples recorded so far.
        count: u64,
        /// Sum of all samples, microseconds.
        sum_us: u64,
    },
}

/// One metric slot in a [`Registry`].
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name → metric table. `counter("il.tx")` hands every caller the
/// same cell, so independent modules can share counts by name, and
/// [`Registry::render`] reports them as sorted `name value` lines.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind — that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new(name)))
        {
            Metric::Counter(c) => c.clone(),
            // checked: as for a gauge below; `refresh` asks on a timer
            // for the names it alone registers
            _ => panic!("netlog: {name} is not a counter"),
        }
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new(name)))
        {
            Metric::Gauge(g) => g.clone(),
            // checked: metric kind is fixed at first registration; a
            // mismatch is a programming error caught in tests
            _ => panic!("netlog: {name} is not a gauge"),
        }
    }

    /// Gets or creates the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(name)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("netlog: {name} is not a histogram"),
        }
    }

    /// Enters a counter made elsewhere, under its own name: a cell
    /// several tables share (a wire counts once, and every machine on
    /// it shows the count).
    pub fn adopt(&self, c: &Counter) {
        self.metrics.lock().insert(c.name().to_string(), Metric::Counter(c.clone()));
    }

    /// Mirrors the process-wide cells into this table: each pool
    /// shard's depth (a gauge) and jobs, the timer wheel's armed count
    /// (a gauge) and churn, and every copy site's bytes and calls.
    /// Whoever samples or renders the whole table does it through
    /// this, so a machine's series and `/net/log/stats` carry scheduler
    /// pressure and copies beside its protocol counters.
    pub fn refresh(&self) -> &Registry {
        let p = pool::stats();
        for i in 0..pool::NSHARDS {
            self.gauge(&format!("pool.shard{i}.depth")).set(p.depth[i]);
            self.counter(&format!("pool.shard{i}.inline")).set(p.inline_run[i]);
            self.counter(&format!("pool.shard{i}.submitted")).set(p.submitted[i]);
        }
        let w = wheel::stats();
        self.gauge("pool.wheel.armed").set(w.armed);
        self.counter("pool.wheel.cancelled").set(w.cancelled);
        self.counter("pool.wheel.fired").set(w.fired);
        self.counter("pool.wheel.scheduled").set(w.scheduled);
        for site in CopySnapshot::default().delta() {
            self.counter(&format!("copy.{}.bytes", site.name)).set(site.bytes);
            self.counter(&format!("copy.{}.calls", site.name)).set(site.calls);
        }
        self
    }

    /// Reads every metric's current value, kind-tagged and sorted by
    /// name — the raw material for the time-series sampler, which
    /// diffs successive samples (see [`series`]).
    pub fn sample(&self) -> Vec<(String, SampledValue)> {
        let m = self.metrics.lock();
        m.iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => SampledValue::Counter(c.get()),
                    Metric::Gauge(g) => SampledValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampledValue::Histogram {
                        count: h.count(),
                        sum_us: h.sum_us(),
                    },
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Renders the metrics whose names start with one of `prefixes`
    /// (all of them, given none) as ASCII, sorted by name: `name value`
    /// for counters and gauges, the multi-line bucket listing for
    /// histograms. What every `stats` file serves.
    pub fn render(&self, prefixes: &[&str]) -> String {
        let m = self.metrics.lock();
        let mut out = String::new();
        let shown = |name: &str| prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p));
        for (name, metric) in m.iter().filter(|(name, _)| shown(name)) {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{} {}\n", name, c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{} {}\n", name, g.get())),
                Metric::Histogram(h) => out.push_str(&h.render()),
            }
        }
        out
    }
}

/// The event-log facilities, mirroring Plan 9's netlog flag names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Facility {
    Il,
    Tcp,
    Udp,
    Arp,
    Ether,
    NineP,
    Streams,
    Ip,
    /// The worker pool and timer wheel (shard saturation, inline
    /// fallbacks, wheel churn) — the soft-interrupt layer's own
    /// commentary; see [`Registry::refresh`].
    Pool,
}

impl Facility {
    /// All facilities, in ctl-listing order.
    pub const ALL: [Facility; 9] = [
        Facility::Il,
        Facility::Tcp,
        Facility::Udp,
        Facility::Arp,
        Facility::Ether,
        Facility::NineP,
        Facility::Streams,
        Facility::Ip,
        Facility::Pool,
    ];

    /// The facility's bit in the enable mask.
    pub fn bit(self) -> u64 {
        1 << (self as u64)
    }

    /// The ctl name of the facility.
    pub fn name(self) -> &'static str {
        match self {
            Facility::Il => "il",
            Facility::Tcp => "tcp",
            Facility::Udp => "udp",
            Facility::Arp => "arp",
            Facility::Ether => "ether",
            Facility::NineP => "9p",
            Facility::Streams => "streams",
            Facility::Ip => "ip",
            Facility::Pool => "pool",
        }
    }

    /// Parses a ctl facility name.
    pub fn parse(s: &str) -> Option<Facility> {
        Facility::ALL.iter().copied().find(|f| f.name() == s)
    }
}

/// One logged event: the only record of it. A traced request's events
/// carry its root's id, and `/net/trace/data` reads them from here.
#[derive(Clone, Debug)]
pub struct Event {
    /// Which facility produced the event.
    pub facility: Facility,
    /// The event text (one line, no trailing newline).
    pub msg: String,
    /// The id of the trace root the event happened for, if any.
    pub trace: Option<u64>,
    /// When it happened, on the kernel's clock.
    pub at: Instant,
}

/// Default ring capacity: enough to hold a burst of recovery traffic
/// without growing, small enough that a forgotten `set` is harmless.
const DEFAULT_EVENT_CAP: usize = 4096;

/// A bounded ring of protocol events behind an atomic facility mask.
///
/// The mask check is the hot path: `log` with a disabled facility is a
/// single relaxed load and the message closure is never run. Enabled
/// events take the ring lock and may evict the oldest entry.
///
/// Configuration is plain ASCII, exactly Plan 9's netlog ctl language:
///
/// ```text
/// set il tcp     # enable the il and tcp facilities
/// clear tcp      # disable tcp, leave il
/// clear          # disable everything and flush the ring
/// ```
pub struct EventLog {
    mask: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
    cap: usize,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new(DEFAULT_EVENT_CAP)
    }
}

impl EventLog {
    /// Creates an event log holding at most `cap` events.
    pub fn new(cap: usize) -> EventLog {
        EventLog {
            mask: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Is this facility currently being logged? Cheap; call before
    /// building an expensive message.
    pub fn enabled(&self, f: Facility) -> bool {
        self.mask.load(Ordering::Relaxed) & f.bit() != 0
    }

    /// Logs one event if `f` is enabled, tagged with the trace root it
    /// belongs to. The closure only runs when it is, so disabled
    /// facilities pay one atomic load and nothing else.
    pub fn log<F: FnOnce() -> String>(&self, f: Facility, trace: Option<&TraceHandle>, msg: F) {
        if !self.enabled(f) {
            return;
        }
        let ev = Event {
            facility: f,
            msg: msg(),
            trace: trace.map(TraceHandle::id),
            at: plan9_support::time::now(),
        };
        let mut ring = self.ring.lock();
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Handles one ctl write (`set fac...`, `clear [fac...]`).
    pub fn ctl(&self, text: &str) -> Result<(), String> {
        let mut words = text.split_whitespace();
        let verb = words.next().ok_or_else(|| "netlog: empty ctl".to_string())?;
        let facs: Vec<&str> = words.collect();
        match verb {
            "set" => {
                if facs.is_empty() {
                    return Err("netlog: set needs a facility".to_string());
                }
                let mut bits = 0;
                for w in &facs {
                    let f = Facility::parse(w)
                        .ok_or_else(|| format!("netlog: unknown facility {w}"))?;
                    bits |= f.bit();
                }
                self.mask.fetch_or(bits, Ordering::Relaxed);
                Ok(())
            }
            "clear" => {
                if facs.is_empty() {
                    // Bare clear: stop logging everything, flush the ring.
                    self.mask.store(0, Ordering::Relaxed);
                    self.ring.lock().clear();
                    return Ok(());
                }
                let mut bits = 0;
                for w in &facs {
                    let f = Facility::parse(w)
                        .ok_or_else(|| format!("netlog: unknown facility {w}"))?;
                    bits |= f.bit();
                }
                self.mask.fetch_and(!bits, Ordering::Relaxed);
                Ok(())
            }
            other => Err(format!("netlog: unknown ctl {other}")),
        }
    }

    /// The current mask rendered as ctl words (`set il tcp` state), for
    /// reading back the ctl file.
    pub fn mask_line(&self) -> String {
        let mask = self.mask.load(Ordering::Relaxed);
        let names: Vec<&str> = Facility::ALL
            .iter()
            .filter(|f| mask & f.bit() != 0)
            .map(|f| f.name())
            .collect();
        if names.is_empty() {
            "set\n".to_string()
        } else {
            format!("set {}\n", names.join(" "))
        }
    }

    /// A snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the buffered events as `facility: message` lines, the
    /// format `/net/log/data` serves; a traced event ends `(trace <id>)`,
    /// the root it is listed under in `/net/trace/data`.
    pub fn render(&self) -> String {
        let ring = self.ring.lock();
        let mut out = String::new();
        for ev in ring.iter() {
            out.push_str(&format!("{}: {}", ev.facility.name(), ev.msg));
            if let Some(id) = ev.trace {
                out.push_str(&format!(" (trace {id})"));
            }
            out.push('\n');
        }
        out
    }
}

/// Everything one simulated machine's kernel carries for
/// instrumentation: a metric registry plus the netlog event ring.
#[derive(Default)]
pub struct NetLog {
    /// The machine-wide metric table.
    pub registry: Registry,
    /// The `/net/log` event ring.
    pub events: EventLog,
    /// The `/net/log/series` time-series sampler.
    pub series: series::Series,
}

impl NetLog {
    /// Creates an empty instrumentation block.
    pub fn new() -> Arc<NetLog> {
        Arc::new(NetLog::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_shares() {
        let c = Counter::new("x");
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new("depth");
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates at zero");
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new("rtt");
        h.record_us(0);
        h.record_us(1);
        h.record_us(2);
        h.record_us(3);
        h.record_us(1000);
        assert_eq!(h.count(), 5);
        let r = h.render();
        assert!(r.contains("rtt count 5"), "{r}");
        assert!(r.contains("rtt 0-2us 2"), "{r}");
        assert!(r.contains("rtt 2-4us 2"), "{r}");
        assert!(r.contains("rtt 512-1024us 1"), "{r}");
    }

    #[test]
    fn histogram_huge_sample_clamps() {
        let h = Histogram::new("t");
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_get_or_create_shares() {
        let r = Registry::new();
        let a = r.counter("il.tx");
        let b = r.counter("il.tx");
        a.inc();
        assert_eq!(b.get(), 1);
        r.gauge("q.depth").set(3);
        r.histogram("rtt").record_us(5);
        let text = r.render(&[]);
        assert!(text.contains("il.tx 1\n"), "{text}");
        assert!(text.contains("q.depth 3\n"), "{text}");
        assert!(text.contains("rtt count 1"), "{text}");
        assert_eq!(r.render(&["il.", "q."]), "il.tx 1\nq.depth 3\n");
    }

    #[test]
    fn an_adopted_counter_is_the_cell_its_maker_counts_in() {
        let wire = Counter::new("wire.sent");
        let (a, b) = (Registry::new(), Registry::new());
        a.adopt(&wire);
        b.adopt(&wire);
        wire.add(3);
        assert_eq!(a.render(&["wire."]), "wire.sent 3\n");
        assert_eq!(b.counter("wire.sent").get(), 3);
    }

    #[test]
    fn refresh_mirrors_pool_wheel_and_copy_sites() {
        let _ = plan9_support::buf::Bytes::copy_from_slice(b"copied");
        let r = Registry::new();
        let names: Vec<String> = r.refresh().sample().into_iter().map(|(n, _)| n).collect();
        for i in 0..pool::NSHARDS {
            for what in ["depth", "inline", "submitted"] {
                assert!(names.contains(&format!("pool.shard{i}.{what}")), "{names:?}");
            }
        }
        for name in ["pool.wheel.armed", "pool.wheel.scheduled", "copy.buf.from_slice.bytes"] {
            assert!(names.iter().any(|n| n == name), "{names:?}");
        }
        // Mirrored totals are counters: a series shows what was added.
        let before = r.sample();
        let _ = plan9_support::buf::Bytes::copy_from_slice(b"again");
        let lines = series::delta_lines(&before, &r.refresh().sample());
        assert!(lines.iter().any(|l| l.starts_with("copy.buf.from_slice.calls +")), "{lines:?}");
    }

    #[test]
    fn registry_renders_sorted() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").add(2);
        let text = r.render(&[]);
        let za = text.find("zeta").unwrap();
        let al = text.find("alpha").unwrap();
        assert!(al < za, "{text}");
    }

    #[test]
    fn facility_parse_round_trips() {
        for f in Facility::ALL {
            assert_eq!(Facility::parse(f.name()), Some(f));
        }
        assert_eq!(Facility::parse("lance"), None);
    }

    #[test]
    fn eventlog_masks_facilities() {
        let log = EventLog::new(16);
        let mut built = false;
        log.log(Facility::Il, None, || {
            built = true;
            "dropped".to_string()
        });
        assert!(!built, "closure must not run while il is disabled");
        assert!(log.is_empty());

        log.ctl("set il tcp").unwrap();
        assert!(log.enabled(Facility::Il));
        assert!(log.enabled(Facility::Tcp));
        assert!(!log.enabled(Facility::Udp));
        log.log(Facility::Il, None, || "q 7".to_string());
        log.log(Facility::Udp, None, || "unseen".to_string());
        let text = log.render();
        assert_eq!(text, "il: q 7\n");
    }

    #[test]
    fn eventlog_clear_facility_and_flush() {
        let log = EventLog::new(16);
        log.ctl("set il tcp").unwrap();
        log.log(Facility::Tcp, None, || "rexmit".to_string());
        log.ctl("clear tcp").unwrap();
        assert!(!log.enabled(Facility::Tcp));
        assert!(log.enabled(Facility::Il));
        assert_eq!(log.len(), 1, "clear with args keeps the ring");
        log.ctl("clear").unwrap();
        assert!(!log.enabled(Facility::Il));
        assert!(log.is_empty(), "bare clear flushes the ring");
    }

    #[test]
    fn eventlog_ring_bounded() {
        let log = EventLog::new(4);
        log.ctl("set ether").unwrap();
        for i in 0..10 {
            log.log(Facility::Ether, None, || format!("frame {i}"));
        }
        assert_eq!(log.len(), 4);
        let events = log.events();
        assert_eq!(events[0].msg, "frame 6", "oldest entries evicted");
        assert_eq!(events[3].msg, "frame 9");
    }

    #[test]
    fn eventlog_ctl_errors() {
        let log = EventLog::new(4);
        assert!(log.ctl("set lance").is_err());
        assert!(log.ctl("set").is_err());
        assert!(log.ctl("frobnicate il").is_err());
        assert!(log.ctl("").is_err());
    }

    #[test]
    fn mask_line_reads_back() {
        let log = EventLog::new(4);
        log.ctl("set tcp il").unwrap();
        assert_eq!(log.mask_line(), "set il tcp\n");
        log.ctl("clear").unwrap();
        assert_eq!(log.mask_line(), "set\n");
    }
}
