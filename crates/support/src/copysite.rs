//! Copy-site accounting: attributes every data-path memcpy/alloc to a
//! named site so the zero-copy work (ROADMAP item 1) burns down a
//! measured table instead of folklore. A site records where bytes are
//! copied and nowhere else: handing on a view of a buffer, or building
//! a header in front of one, moves no payload and records nothing.
//!
//! A [`Site`] is a `static` cell declared next to the copy it measures
//! (`static ENC: Site = Site::new("il.encode");`). Recording is two
//! relaxed atomic adds and a relaxed load — cheap enough for the hot
//! path. Sites register themselves in a process-global table on first
//! use (the load finds the flag unset, and a swap claims it), so the
//! rendered report only ever names sites that actually copied bytes.
//!
//! Like the pool/wheel counters, sites are process-global and
//! accumulate across every run in the process; deterministic reports
//! therefore use the snapshot/delta pattern: [`snapshot`] at run
//! start, [`CopySnapshot::delta`] at the end. Deltas rank by bytes
//! descending (name-tiebroken), which is exactly the "top copy sites"
//! table the bench gates consume. Nothing here renders: a machine
//! shows the totals as `copy.<site>.{bytes,calls}` in its netlog
//! registry (`/net/log/copy`), which mirrors them from
//! `CopySnapshot::default().delta()`.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static TABLE: Mutex<Vec<&'static Site>> = Mutex::named(Vec::new(), "copysite.table");

/// One named copy/alloc site on the data path.
pub struct Site {
    name: &'static str,
    bytes: AtomicU64,
    calls: AtomicU64,
    registered: AtomicBool,
}

impl Site {
    /// Declares a site; use in a `static` next to the copy it counts.
    pub const fn new(name: &'static str) -> Site {
        Site {
            name,
            bytes: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one copy of `n` bytes at this site.
    pub fn record(&'static self, n: usize) {
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::Relaxed) {
            TABLE.lock().push(self);
        }
    }

    /// The site's name as shown in reports.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// One site's totals (or delta): bytes copied and call count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteCount {
    pub name: &'static str,
    pub bytes: u64,
    pub calls: u64,
}

/// A point-in-time capture of every registered site's totals.
#[derive(Clone, Debug, Default)]
pub struct CopySnapshot {
    counts: Vec<SiteCount>,
}

/// Captures all site totals now; compute deltas against this later.
pub fn snapshot() -> CopySnapshot {
    let sites = TABLE.lock().clone();
    let mut counts: Vec<SiteCount> = sites
        .iter()
        .map(|s| SiteCount {
            name: s.name,
            bytes: s.bytes.load(Ordering::Relaxed),
            calls: s.calls.load(Ordering::Relaxed),
        })
        .collect();
    counts.sort_by(|a, b| a.name.cmp(b.name));
    CopySnapshot { counts }
}

impl CopySnapshot {
    /// What each site copied since this snapshot, ranked by bytes
    /// descending (ties broken by name). Sites registered after the
    /// snapshot count from zero; zero-delta sites are dropped.
    pub fn delta(&self) -> Vec<SiteCount> {
        let now = snapshot();
        let mut out: Vec<SiteCount> = now
            .counts
            .into_iter()
            .filter_map(|mut c| {
                if let Ok(i) = self.counts.binary_search_by(|p| p.name.cmp(c.name)) {
                    c.bytes -= self.counts[i].bytes;
                    c.calls -= self.counts[i].calls;
                }
                (c.calls > 0).then_some(c)
            })
            .collect();
        out.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.name.cmp(b.name)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SITE_A: Site = Site::new("test.copysite.a");
    static SITE_B: Site = Site::new("test.copysite.b");

    #[test]
    fn delta_ranks_by_bytes_and_ignores_prior_traffic() {
        SITE_A.record(10);
        let snap = snapshot();
        SITE_A.record(100);
        SITE_B.record(5000);
        SITE_B.record(1);
        let delta = snap.delta();
        let a = delta
            .iter()
            .find(|c| c.name == "test.copysite.a")
            .expect("site a");
        let b = delta
            .iter()
            .find(|c| c.name == "test.copysite.b")
            .expect("site b");
        assert_eq!((a.bytes, a.calls), (100, 1));
        assert_eq!((b.bytes, b.calls), (5001, 2));
        let ia = delta.iter().position(|c| c.name == a.name).unwrap();
        let ib = delta.iter().position(|c| c.name == b.name).unwrap();
        assert!(ib < ia, "larger byte total must rank first");
    }

    #[test]
    fn a_delta_from_nothing_is_the_lifetime_totals() {
        SITE_A.record(1);
        let all = CopySnapshot::default().delta();
        assert!(all.iter().any(|c| c.name == "test.copysite.a" && c.calls >= 1), "{all:?}");
    }
}
