//! nettrace: a span-based flight recorder for following one request
//! across layers.
//!
//! The netlog ring (`/net/log`) answers "what happened"; this module
//! answers "where did *this* 9P RPC spend its time". Each client RPC
//! opens a *root span*; as the request crosses layer boundaries —
//! mount-driver marshal, stream queue residency, protocol device
//! handling, IL send→ack, wire delivery — the layers attach *child
//! spans* (intervals) to the root they belong to.
//!
//! A point event (one retransmission, one query) is not kept here: it
//! lives once, in the machine's event ring, tagged with its root's id
//! ([`EventLog::log`]), and `set <fac>` on `/net/log/ctl` is the one
//! switch that keeps it. [`Tracer::render`] lists under each root the
//! ring entries that name it, so a machine's `/net/trace/data` shows
//! that machine's own events beside the shared spans.
//!
//! Attribution crosses threads the way the kernel's own state does:
//! the thread driving an RPC installs its handle in a thread-local
//! ([`TraceHandle::set_current`]); code that hands work to another
//! thread (a queued [`Block`], an unacked IL message) captures
//! [`current`] and stores the handle alongside the data, so the
//! consumer can attribute its half of the work to the right root.
//!
//! Everything is pay-for-use: with tracing off (the default), the only
//! cost on any hot path is one relaxed atomic load or a thread-local
//! `Option` that stays `None` — no allocation, no locking.
//!
//! The recorder is process-global ([`global`]): simulated machines
//! share a process, and a trace must follow an RPC from one machine's
//! mount driver through the wire into another machine's server, so one
//! flight recorder spanning all of them is exactly what is wanted.
//! `/net/trace` on every machine serves the same ring of roots, like a
//! shared analyzer plugged into the lab bus.

use crate::{Event, EventLog, Facility};
use plan9_support::sync::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Root spans kept by the global recorder's ring.
pub const DEFAULT_ROOT_CAP: usize = 2048;

/// Child spans kept per root; later spans are dropped.
const MAX_SPANS: usize = 512;

/// One timed interval inside a root span: time spent in one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer that recorded the interval.
    pub facility: Facility,
    /// What the interval covers, e.g. `marshal` or `il send id 7`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// One traced request: the root interval plus its children.
#[derive(Debug, Clone)]
pub struct RootSpan {
    /// Ring-unique id.
    pub id: u64,
    /// The root label, e.g. `Twalk tag 3`.
    pub label: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch. For a root forced
    /// out by `dump` this is the dump time.
    pub end_ns: u64,
    /// True if the root was still open when forced into the ring.
    pub open: bool,
    /// Child intervals, in the order they completed.
    pub spans: Vec<Span>,
}

impl RootSpan {
    /// Root duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct TraceState {
    /// Roots still accumulating children. Linear scan: the set is the
    /// number of concurrently outstanding RPCs, a handful.
    active: Vec<RootSpan>,
    /// Completed roots, oldest first.
    done: VecDeque<RootSpan>,
}

/// The flight recorder. One mutex guards both the active set and the
/// completed ring so that finishing a root is atomic against a late
/// span racing to attach to it.
pub struct Tracer {
    on: AtomicBool,
    filter: AtomicU64,
    /// Trace 1-in-N root arrivals (1 = every root). Cuts the trace-on
    /// overhead enough for always-on use; see the ilvstcp bench.
    sample: AtomicU64,
    /// Root arrivals seen while on, sampled or not — the sampling
    /// counter the 1-in-N gate divides.
    arrivals: AtomicU64,
    seq: AtomicU64,
    epoch: Instant,
    state: Mutex<TraceState>,
    cap: usize,
}

impl Tracer {
    /// A recorder keeping the last `cap` completed roots, tracing off,
    /// all facilities selected.
    pub fn new(cap: usize) -> Arc<Tracer> {
        let all = Facility::ALL.iter().fold(0u64, |m, f| m | f.bit());
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            filter: AtomicU64::new(all),
            sample: AtomicU64::new(1),
            arrivals: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            epoch: plan9_support::time::now(),
            state: Mutex::new(TraceState {
                active: Vec::new(),
                done: VecDeque::new(),
            }),
            cap,
        })
    }

    /// Whether tracing is on. One relaxed load: the full cost of every
    /// annotation site when tracing is off.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Whether tracing is on and `f` passes the facility filter.
    pub fn enabled_for(&self, f: Facility) -> bool {
        self.enabled() && self.filter.load(Ordering::Relaxed) & f.bit() != 0
    }

    /// Nanoseconds from the tracer's epoch to `t`: the clock every
    /// root's and span's times are in.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a root span. Returns `None` when tracing is off, or when
    /// the 1-in-N sampling gate (see `sample` ctl) skips this arrival —
    /// a skipped root costs two relaxed atomics and no allocation.
    pub fn begin(self: &Arc<Self>, label: &str) -> Option<TraceHandle> {
        if !self.enabled() {
            return None;
        }
        let n = self.sample.load(Ordering::Relaxed);
        if n > 1
            && !self
                .arrivals
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n)
        {
            return None;
        }
        let id = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let label = label.to_string();
        let mut st = self.state.lock();
        // Stamp the start under the lock: the wait to get here belongs
        // to the recorder, not to the root being opened.
        let now = self.ns(plan9_support::time::now());
        st.active.push(RootSpan {
            id,
            label,
            start_ns: now,
            end_ns: now,
            open: true,
            spans: Vec::new(),
        });
        drop(st);
        Some(TraceHandle {
            tracer: Arc::clone(self),
            id,
        })
    }

    /// Closes a root span and moves it into the completed ring.
    pub fn finish(&self, id: u64) {
        self.finish_at(id, plan9_support::time::now());
    }

    /// Closes a root span with a caller-supplied end time, so the last
    /// child span and the root can share one timestamp and tile exactly.
    pub fn finish_at(&self, id: u64, end: Instant) {
        let now = self.ns(end);
        let mut st = self.state.lock();
        let Some(pos) = st.active.iter().position(|r| r.id == id) else {
            return;
        };
        let mut root = st.active.swap_remove(pos);
        root.end_ns = now;
        root.open = false;
        st.done.push_back(root);
        while st.done.len() > self.cap {
            st.done.pop_front();
        }
    }

    /// Attaches a child interval to root `id`. Looks in the active set
    /// first, then in the completed ring: an IL ack (and so the
    /// send→ack span) can arrive a hair after the RPC that sent the
    /// message already returned.
    pub fn span(&self, id: u64, fac: Facility, name: &str, start: Instant, end: Instant) {
        if !self.enabled_for(fac) {
            return;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        let mut st = self.state.lock();
        if let Some(root) = find_mut(&mut st, id) {
            if root.spans.len() < MAX_SPANS {
                root.spans.push(Span {
                    facility: fac,
                    name: name.to_string(),
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
    }

    /// Interprets a `/net/trace/ctl` request:
    ///
    /// * `trace on` / `trace off` — master switch
    /// * `filter [fac...]` — record only these facilities' spans (none =
    ///   all); events have their own switch, `/net/log/ctl`
    /// * `sample <n>` — trace 1-in-`n` root spans (1 = every root)
    /// * `dump` — force still-open roots into the ring, marked open
    /// * `clear` — flush the completed ring
    pub fn ctl(&self, text: &str) -> Result<(), String> {
        let words: Vec<&str> = text.split_whitespace().collect();
        match words.as_slice() {
            ["trace", "on"] => {
                self.on.store(true, Ordering::SeqCst);
                Ok(())
            }
            ["trace", "off"] => {
                self.on.store(false, Ordering::SeqCst);
                Ok(())
            }
            ["filter", rest @ ..] => {
                // Same validation as /net/log/ctl: a bad facility name
                // is a 9P error naming the offender, not a no-op.
                let mut mask = 0u64;
                for w in rest {
                    let f = Facility::parse(w)
                        .ok_or_else(|| format!("nettrace: unknown facility {w}"))?;
                    mask |= f.bit();
                }
                if rest.is_empty() {
                    mask = Facility::ALL.iter().fold(0u64, |m, f| m | f.bit());
                }
                self.filter.store(mask, Ordering::SeqCst);
                Ok(())
            }
            ["sample", n] => {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("nettrace: bad sample rate {n}"))?;
                if n == 0 {
                    return Err("nettrace: sample rate must be positive".to_string());
                }
                self.sample.store(n, Ordering::SeqCst);
                Ok(())
            }
            ["dump"] => {
                let now = self.ns(plan9_support::time::now());
                let mut st = self.state.lock();
                let mut forced: Vec<RootSpan> = st.active.drain(..).collect();
                forced.sort_by_key(|r| r.id);
                for mut root in forced {
                    root.end_ns = now;
                    st.done.push_back(root);
                }
                while st.done.len() > self.cap {
                    st.done.pop_front();
                }
                Ok(())
            }
            ["clear"] => {
                self.state.lock().done.clear();
                Ok(())
            }
            [] => Err("nettrace: empty ctl request".to_string()),
            [verb, ..] => Err(format!("nettrace: unknown ctl request {verb}")),
        }
    }

    /// The state line served when `/net/trace/ctl` is read back.
    pub fn status_line(&self) -> String {
        let mask = self.filter.load(Ordering::Relaxed);
        let mut names: Vec<&str> = Vec::new();
        for f in Facility::ALL {
            if mask & f.bit() != 0 {
                names.push(f.name());
            }
        }
        format!(
            "trace {}\nfilter {}\nsample {}\n",
            if self.enabled() { "on" } else { "off" },
            names.join(" "),
            self.sample.load(Ordering::Relaxed)
        )
    }

    /// Completed roots, oldest first.
    pub fn roots(&self) -> Vec<RootSpan> {
        self.state.lock().done.iter().cloned().collect()
    }

    /// Number of completed roots in the ring.
    pub fn len(&self) -> usize {
        self.state.lock().done.len()
    }

    /// True when the ring holds no completed roots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of roots still open.
    pub fn active_len(&self) -> usize {
        self.state.lock().active.len()
    }

    /// Renders the ring as ASCII lines for `/net/trace/data`, each
    /// root followed by its spans and then by the entries of `log` (a
    /// machine's event ring) that carry its id:
    ///
    /// ```text
    /// trace 3 Twalk tag 1 421us
    ///   span 9p marshal 0+2us
    ///   span il il send id 7 102+210us
    ///   event il rexmit id 7 len 61 @250us
    /// ```
    ///
    /// Child offsets are microseconds relative to the root's start. The
    /// roots are copied out under the tracer's lock and the events
    /// under the ring's, one after the other: neither lock is held
    /// while taking the other.
    pub fn render(&self, log: &EventLog) -> String {
        let roots = self.roots();
        let mut events: HashMap<u64, Vec<Event>> = HashMap::new();
        for ev in log.events() {
            if let Some(id) = ev.trace {
                events.entry(id).or_default().push(ev);
            }
        }
        let us = |ns: u64| ns / 1_000;
        let mut out = String::new();
        for root in &roots {
            out.push_str(&format!(
                "trace {} {} {}us{}\n",
                root.id,
                root.label,
                us(root.dur_ns()),
                if root.open { " open" } else { "" }
            ));
            for s in &root.spans {
                out.push_str(&format!(
                    "  span {} {} {}+{}us\n",
                    s.facility.name(),
                    s.name,
                    us(s.start_ns.saturating_sub(root.start_ns)),
                    us(s.end_ns.saturating_sub(s.start_ns)),
                ));
            }
            for e in events.get(&root.id).into_iter().flatten() {
                out.push_str(&format!(
                    "  event {} {} @{}us\n",
                    e.facility.name(),
                    e.msg,
                    us(self.ns(e.at).saturating_sub(root.start_ns)),
                ));
            }
        }
        out
    }
}

fn find_mut(st: &mut TraceState, id: u64) -> Option<&mut RootSpan> {
    if let Some(r) = st.active.iter_mut().find(|r| r.id == id) {
        return Some(r);
    }
    // Late attachment: newest completed roots are the likely targets.
    st.done.iter_mut().rev().find(|r| r.id == id)
}

/// A reference to one root span: the annotation currency the layers
/// pass around (in thread-locals, `Block`s, unacked-message tables).
#[derive(Clone)]
pub struct TraceHandle {
    tracer: Arc<Tracer>,
    id: u64,
}

impl TraceHandle {
    /// The root span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a child interval to this handle's root.
    pub fn span(&self, fac: Facility, name: &str, start: Instant, end: Instant) {
        self.tracer.span(self.id, fac, name, start, end);
    }

    /// Closes this handle's root.
    pub fn finish(&self) {
        self.tracer.finish(self.id);
    }

    /// Closes this handle's root at a caller-supplied end time.
    pub fn finish_at(&self, end: Instant) {
        self.tracer.finish_at(self.id, end);
    }

    /// Installs this handle as the calling thread's current trace
    /// until the guard drops; the previous handle is restored.
    pub fn set_current(&self) -> CurrentGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        CurrentGuard { prev }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace#{}", self.id)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceHandle>> = const { RefCell::new(None) };
}

/// The calling thread's current trace, if any. On an untraced thread
/// this is one thread-local read of a `None` — the pay-for-use cost.
pub fn current() -> Option<TraceHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Leaves the calling thread with no current trace until the guard
/// drops; the previous handle is restored.
pub fn clear_current() -> CurrentGuard {
    CurrentGuard { prev: CURRENT.with(|c| c.borrow_mut().take()) }
}

/// Restores the previous thread-local handle on drop.
pub struct CurrentGuard {
    prev: Option<TraceHandle>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The process-wide flight recorder served by every `/net/trace`.
pub fn global() -> &'static Arc<Tracer> {
    static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(DEFAULT_ROOT_CAP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_by_default_records_nothing() {
        let t = Tracer::new(8);
        assert!(t.begin("Tread tag 1").is_none());
        assert!(t.is_empty());
        assert_eq!(t.active_len(), 0);
    }

    #[test]
    fn begin_finish_lands_in_ring() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        let h = t.begin("Twalk tag 3").unwrap();
        std::thread::sleep(Duration::from_millis(2));
        h.finish();
        let roots = t.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].label, "Twalk tag 3");
        assert!(!roots[0].open);
        assert!(roots[0].dur_ns() >= 1_000_000, "{}", roots[0].dur_ns());
    }

    /// A ring with `facs` set, as `/net/log/ctl` leaves it.
    fn ring(facs: &str) -> EventLog {
        let log = EventLog::new(16);
        log.ctl(&format!("set {facs}")).unwrap();
        log
    }

    #[test]
    fn spans_and_events_list_under_their_root() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        let log = ring("il");
        let a = t.begin("a").unwrap();
        let b = t.begin("b").unwrap();
        let now = Instant::now();
        a.span(Facility::NineP, "marshal", now, now);
        log.log(Facility::Il, Some(&b), || "rexmit id 9 len 5".to_string());
        a.finish();
        b.finish();
        let roots = t.roots();
        assert_eq!(roots[0].spans.len(), 1);
        assert_eq!(roots[0].spans[0].name, "marshal");
        assert!(roots[1].spans.is_empty());
        let text = t.render(&log);
        let (under_a, under_b) = text.split_once("trace 2 b ").expect(&text);
        assert!(!under_a.contains("event"), "{text}");
        assert!(under_b.contains("  event il rexmit id 9 len 5 @"), "{text}");
    }

    #[test]
    fn late_span_attaches_to_completed_root() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        let log = ring("il");
        let h = t.begin("Tread tag 2").unwrap();
        h.finish();
        // The ack arrived after the RPC returned; the span must still
        // land on the (completed) root, and the event list under it.
        let now = Instant::now();
        h.span(Facility::Il, "il send id 4", now, now);
        log.log(Facility::Il, Some(&h), || "query id 4 ack 3".to_string());
        assert_eq!(t.roots()[0].spans.len(), 1);
        assert!(t.render(&log).contains("  event il query id 4 ack 3 @"));
    }

    /// An event is one ring entry: with its facility set it reads once
    /// in `/net/log/data`, naming its root, and once under that root in
    /// `/net/trace/data`; with the facility clear it is in neither,
    /// traced or not.
    #[test]
    fn an_event_is_kept_once_iff_its_facility_is_set() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        let log = ring("il");
        let h = t.begin("Tread tag 5").unwrap();
        log.log(Facility::Il, Some(&h), || "rexmit id 3 len 61".to_string());
        log.log(Facility::Il, None, || "sync id 1 to 10.0.0.2!17008".to_string());
        log.log(Facility::Tcp, Some(&h), || "timeout rexmit 1 segments 9 bytes".to_string());
        log.log(Facility::Tcp, None, || "fast rexmit seq 7 len 9".to_string());
        h.finish();
        assert_eq!(
            log.render(),
            "il: rexmit id 3 len 61 (trace 1)\nil: sync id 1 to 10.0.0.2!17008\n"
        );
        let text = t.render(&log);
        let events: Vec<&str> = text.lines().filter(|l| l.starts_with("  event ")).collect();
        assert_eq!(events.len(), 1, "{text}");
        assert!(events[0].starts_with("  event il rexmit id 3 len 61 @"), "{text}");
    }

    #[test]
    fn filter_drops_unselected_facilities() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        t.ctl("filter il").unwrap();
        let h = t.begin("x").unwrap();
        let now = Instant::now();
        h.span(Facility::Tcp, "tcp write", now, now);
        h.span(Facility::Il, "il send id 1", now, now);
        h.finish();
        let root = &t.roots()[0];
        assert_eq!(root.spans.len(), 1);
        assert_eq!(root.spans[0].facility, Facility::Il);
        // Events have one switch, the ring's: the filter is for spans.
        let log = ring("tcp");
        log.log(Facility::Tcp, Some(&h), || "timeout rexmit 1 segments 9 bytes".to_string());
        assert!(t.render(&log).contains("  event tcp timeout rexmit"));
        // Bare `filter` resets to everything.
        t.ctl("filter").unwrap();
        assert!(t.enabled_for(Facility::Tcp));
    }

    #[test]
    fn ring_is_bounded() {
        let t = Tracer::new(2);
        t.ctl("trace on").unwrap();
        for i in 0..5 {
            t.begin(&format!("r{i}")).unwrap().finish();
        }
        let roots = t.roots();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].label, "r3");
        assert_eq!(roots[1].label, "r4");
    }

    #[test]
    fn ctl_errors_name_the_offender() {
        let t = Tracer::new(2);
        let err = t.ctl("filter il lance").unwrap_err();
        assert!(err.contains("lance"), "{err}");
        let err = t.ctl("rewind").unwrap_err();
        assert!(err.contains("rewind"), "{err}");
        assert!(t.ctl("").is_err());
    }

    #[test]
    fn dump_forces_open_roots_out() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        let _h = t.begin("stuck").unwrap();
        assert_eq!(t.active_len(), 1);
        t.ctl("dump").unwrap();
        assert_eq!(t.active_len(), 0);
        let roots = t.roots();
        assert_eq!(roots.len(), 1);
        assert!(roots[0].open);
        assert!(t.render(&EventLog::default()).contains("open"));
        t.ctl("clear").unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn current_guard_nests_and_restores() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        assert!(current().is_none());
        let outer = t.begin("outer").unwrap();
        {
            let _g = outer.set_current();
            assert_eq!(current().unwrap().id(), outer.id());
            let inner = t.begin("inner").unwrap();
            {
                let _g2 = inner.set_current();
                assert_eq!(current().unwrap().id(), inner.id());
            }
            assert_eq!(current().unwrap().id(), outer.id());
        }
        assert!(current().is_none());
    }

    #[test]
    fn render_format() {
        let t = Tracer::new(8);
        t.ctl("trace on").unwrap();
        let log = ring("il");
        let h = t.begin("Tread tag 7").unwrap();
        let now = Instant::now();
        h.span(Facility::NineP, "marshal", now, now);
        log.log(Facility::Il, Some(&h), || "rexmit id 2 len 61".to_string());
        h.finish();
        let text = t.render(&log);
        assert!(text.contains("trace 1 Tread tag 7 "), "{text}");
        // `<offset from the root's start>+<duration>`: the offset is
        // however long `begin` took, a microsecond on a slow day.
        let span = text.lines().find(|l| l.starts_with("  span 9p marshal ")).expect(&text);
        assert!(span.ends_with("+0us"), "{text}");
        assert!(text.contains("  event il rexmit id 2 len 61 @"), "{text}");
    }

    #[test]
    fn status_line_reflects_ctl() {
        let t = Tracer::new(2);
        assert!(t.status_line().starts_with("trace off\nfilter il tcp"));
        t.ctl("trace on").unwrap();
        t.ctl("filter 9p streams").unwrap();
        assert_eq!(t.status_line(), "trace on\nfilter 9p streams\nsample 1\n");
        t.ctl("sample 16").unwrap();
        assert_eq!(t.status_line(), "trace on\nfilter 9p streams\nsample 16\n");
    }

    #[test]
    fn sampling_gates_one_in_n_roots() {
        let t = Tracer::new(64);
        t.ctl("trace on").unwrap();
        t.ctl("sample 4").unwrap();
        let mut opened = 0;
        for i in 0..16 {
            if let Some(h) = t.begin(&format!("rpc {i}")) {
                opened += 1;
                h.finish();
            }
        }
        assert_eq!(opened, 4, "1-in-4 sampling must open 4 of 16 roots");
        assert_eq!(t.len(), 4);
        t.ctl("sample 1").unwrap();
        assert!(t.begin("always").is_some(), "sample 1 traces every root");
    }

    #[test]
    fn sample_ctl_rejects_bad_rates() {
        let t = Tracer::new(2);
        assert!(t.ctl("sample 0").is_err());
        assert!(t.ctl("sample many").is_err());
        assert!(t.ctl("sample").is_err());
    }
}
