//! The `pool` facility: worker-pool and timer-wheel observability.
//!
//! The pool shards and the timer wheel are process-global (they *are*
//! the soft-interrupt layer, shared by every simulated machine), so
//! their counters accumulate across every run in the process. A report
//! that printed raw lifetime values would differ between the first and
//! second same-seed run of a scenario. [`PoolSnapshot`] fixes that:
//! take one at run start, and [`render_delta`](PoolSnapshot::render_delta)
//! reports only what happened since — identical across identical runs.
//!
//! Line format matches the rest of the netlog tables: sorted
//! `key value` ASCII, keys under the `pool.` prefix. Instantaneous
//! gauges (queue depth, armed timers) render the *current* value, not
//! a delta — at a quiesced scenario end both must be zero anyway.

use crate::Registry;
use plan9_support::{pool, wheel};

/// Installs (or refreshes) the scheduler-pressure gauges in `reg`:
/// one `pool.shard<i>.depth` gauge per worker shard and a
/// `pool.wheel.armed` gauge for pending timers. The series sampler
/// calls this before every snapshot, so a machine's time series
/// captures pool-shard occupancy and timer backlog alongside its
/// protocol counters.
pub fn update_gauges(reg: &Registry) {
    let p = pool::stats();
    for (i, depth) in p.depth.iter().enumerate() {
        reg.gauge(&format!("pool.shard{i}.depth")).set(*depth);
    }
    reg.gauge("pool.wheel.armed").set(wheel::stats().armed);
}

/// A point-in-time snapshot of the process-wide pool/wheel counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolSnapshot {
    pool: pool::PoolStats,
    wheel: wheel::WheelStats,
}

/// Captures the counters now; render deltas against this later.
pub fn snapshot() -> PoolSnapshot {
    PoolSnapshot {
        pool: pool::stats(),
        wheel: wheel::stats(),
    }
}

impl PoolSnapshot {
    /// Renders everything that happened since this snapshot as sorted
    /// `key value` lines. Deterministic: fixed key order, deltas for
    /// monotone counters, current values for gauges.
    pub fn render_delta(&self) -> String {
        let now = snapshot();
        let mut out = String::new();
        for i in 0..pool::NSHARDS {
            out.push_str(&format!(
                "pool.shard{i}.depth {}\n",
                now.pool.depth[i]
            ));
            out.push_str(&format!(
                "pool.shard{i}.inline {}\n",
                now.pool.inline_run[i] - self.pool.inline_run[i]
            ));
            out.push_str(&format!(
                "pool.shard{i}.submitted {}\n",
                now.pool.submitted[i] - self.pool.submitted[i]
            ));
        }
        out.push_str(&format!("pool.wheel.armed {}\n", now.wheel.armed));
        out.push_str(&format!(
            "pool.wheel.cancelled {}\n",
            now.wheel.cancelled - self.wheel.cancelled
        ));
        out.push_str(&format!(
            "pool.wheel.fired {}\n",
            now.wheel.fired - self.wheel.fired
        ));
        out.push_str(&format!(
            "pool.wheel.scheduled {}\n",
            now.wheel.scheduled - self.wheel.scheduled
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_render_is_sorted_and_complete() {
        let snap = snapshot();
        let text = snap.render_delta();
        let lines: Vec<&str> = text.lines().collect();
        // 3 lines per shard + 4 wheel lines.
        assert_eq!(lines.len(), 3 * pool::NSHARDS + 4, "{text}");
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "render must be key-sorted:\n{text}");
        assert!(text.contains("pool.wheel.scheduled "), "{text}");
    }

    #[test]
    fn update_gauges_installs_scheduler_pressure() {
        let reg = Registry::new();
        update_gauges(&reg);
        let text = reg.render();
        for i in 0..pool::NSHARDS {
            assert!(text.contains(&format!("pool.shard{i}.depth ")), "{text}");
        }
        assert!(text.contains("pool.wheel.armed "), "{text}");
    }

    #[test]
    fn delta_counts_new_submissions() {
        use plan9_support::sync::{Condvar, Mutex};
        use std::sync::Arc;
        let snap = snapshot();
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..5 {
            let done = Arc::clone(&done);
            pool::submit(3, move || {
                let (cnt, cv) = &*done;
                *cnt.lock() += 1;
                cv.notify_all();
            })
            .expect("submit");
        }
        let (cnt, cv) = &*done;
        let mut g = cnt.lock();
        while *g < 5 {
            cv.wait(&mut g);
        }
        drop(g);
        let delta = snap.render_delta();
        let submitted = delta.lines().filter_map(|l| l.split_once(".submitted "));
        assert!(submitted.map(|(_, n)| n.parse::<u64>().unwrap()).sum::<u64>() >= 5, "{delta}");
    }
}
