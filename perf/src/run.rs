//! One measured run of one workload: set-up, warm-up, timed trials,
//! final verification.

use crate::env::{peak_rss_mb, process_cpu_ns};
use crate::spec::MODELLED;
use crate::stats::{median, quantile, top_percentile};
use crate::workloads::{Spec, Workload};
use plan9_support::{time, vtime};
use std::time::{Duration, Instant};

/// Fresh processes per run and trials per process. Two processes
/// differ by more than two trials of one do (README, "Why several
/// processes"), so a run spends its seconds on five short-lived
/// processes rather than on one long one. The trials are short, a
/// quarter of a second of the driver's 25, because the shared host
/// disturbs in bursts shorter than that: many short trials leave
/// some untouched, and `EndToEnd::of` reports from those.
pub const PROCESSES: usize = 5;
pub const TRIALS: usize = 20;

/// Room for one trial's latency samples. Allocated and touched before
/// set-up is timed, so neither `setup_s` nor `peak_rss_mb` depends on
/// how many operations a trial completes.
const SAMPLE_CAP: usize = 1 << 20;

/// What one trial measured.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Operations completed.
    pub ops: u64,
    /// Real seconds the trial took.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) the trial used.
    pub cpu_s: f64,
    /// Median, 90th and 99th percentile operation latency, real ns.
    pub p50_ns: u32,
    pub p90_ns: u32,
    pub p99_ns: u32,
    /// The highest percentile with ten samples beyond it.
    pub top: Option<(&'static str, u32, usize)>,
    /// The same trial on the virtual clock, for a modelled workload.
    pub modelled: Option<Modelled>,
}

/// A trial's virtual-clock view; an exact function of the seed.
#[derive(Debug, Clone, Copy)]
pub struct Modelled {
    /// Virtual seconds the trial took.
    pub v_s: f64,
    /// Median and 99th percentile operation latency, virtual ns.
    pub p50_vns: u32,
    pub p99_vns: u32,
}

/// Everything a run produced.
pub struct Outcome {
    pub trials: Vec<Trial>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed or returned a wrong byte, plus failed
    /// final checks and leaked conversations.
    pub failed: u64,
    /// Boot + announce + import or dial + open + warm-up, real seconds.
    pub setup_s: f64,
}

/// Sample buffers reused across trials.
pub struct Samples {
    real: Vec<u32>,
    virt: Vec<u32>,
}

impl Samples {
    /// Allocates the buffers and makes their pages resident.
    pub fn new(modelled: bool) -> Samples {
        Samples {
            real: vec![1; SAMPLE_CAP],
            virt: vec![1; if modelled { SAMPLE_CAP } else { 0 }],
        }
    }
}

fn ns32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Runs operations until `stop` says so, then summarises them.
/// `stop(ops_done, since_start)` is asked after every operation.
pub fn trial(
    w: &mut dyn Workload,
    samples: &mut Samples,
    failed: &mut u64,
    mut stop: impl FnMut(u64, Duration) -> bool,
) -> Trial {
    let modelled = !samples.virt.is_empty();
    let cpu0 = process_cpu_ns();
    let v0 = time::now();
    let t0 = Instant::now();
    let mut n = 0usize;
    loop {
        let va = if modelled { Some(time::now()) } else { None };
        let a = Instant::now();
        let ok = w.op();
        let b = Instant::now();
        samples.real[n] = ns32(b - a);
        if let Some(va) = va {
            samples.virt[n] = ns32(time::now().saturating_duration_since(va));
        }
        *failed += !ok as u64;
        n += 1;
        if n == SAMPLE_CAP || stop(n as u64, b - t0) {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    let v_s = time::now().saturating_duration_since(v0).as_secs_f64();
    let real = &mut samples.real[..n];
    real.sort_unstable();
    Trial {
        ops: n as u64,
        wall_s,
        cpu_s,
        p50_ns: quantile(real, 0.50),
        p90_ns: quantile(real, 0.90),
        p99_ns: quantile(real, 0.99),
        top: top_percentile(real),
        modelled: modelled.then(|| {
            let virt = &mut samples.virt[..n];
            virt.sort_unstable();
            Modelled {
                v_s,
                p50_vns: quantile(virt, 0.50),
                p99_vns: quantile(virt, 0.99),
            }
        }),
    }
}

/// A modelled workload lives on the virtual clock from boot to hangup,
/// in a registered kproc so the quiescence census sees its thread.
pub fn on_clock<T: Send + 'static>(spec: Spec, body: impl FnOnce() -> T + Send + 'static) -> T {
    if spec.vtime_ops.is_none() {
        return body();
    }
    let _clock = vtime::enter();
    vtime::kproc("perf-main", body)
        .expect("spawn perf-main")
        .join()
        .expect("perf-main panicked")
}

/// Sets the workload up and warms it; returns it with the set-up time
/// and the warm-up's failures.
pub fn set_up(spec: Spec, seed: u64) -> (Box<dyn Workload>, f64, u64) {
    let t0 = Instant::now();
    let mut w = (spec.build)(seed);
    let failed = (0..spec.warmup).filter(|_| !w.op()).count() as u64;
    (w, t0.elapsed().as_secs_f64(), failed)
}

/// The end-to-end run: tracing off, nothing read but the clocks.
/// A real-clock trial lasts `trial_len`; a modelled one runs the
/// workload's fixed operation count.
pub fn measure(spec: Spec, seed: u64, trials: usize, trial_len: Duration) -> Outcome {
    on_clock(spec, move || {
        let mut samples = Samples::new(spec.vtime_ops.is_some());
        let (mut w, setup_s, mut failed) = set_up(spec, seed);
        let trials: Vec<Trial> = (0..trials)
            .map(|_| {
                trial(w.as_mut(), &mut samples, &mut failed, |ops, since| {
                    spec.trial_over(ops, since, trial_len)
                })
            })
            .collect();
        failed += w.finish().total();
        let attempted = spec.warmup + trials.iter().map(|t| t.ops).sum::<u64>();
        Outcome {
            trials,
            attempted,
            failed,
            setup_s,
        }
    })
}

/// A named, united value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// What the value was taken over, for the printed table.
    pub over: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            over: String::new(),
        }
    }

    pub fn over(self, over: String) -> Metric {
        Metric { over, ..self }
    }
}

/// A metric with the values a run's one value is taken over.
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

impl Row {
    pub fn median(&self) -> f64 {
        median(&mut self.values.clone())
    }
}

fn row(name: &str, unit: &'static str, values: Vec<f64>) -> Row {
    Row {
        name: name.to_string(),
        unit,
        values,
    }
}

/// One process's share of `spec::END_TO_END`: one value per trial,
/// plus its one set-up time and one peak. A modelled workload adds its
/// virtual-clock rows, which are printed but are not end-to-end
/// metrics.
pub fn rows(spec: &Spec, o: &Outcome) -> Vec<Row> {
    let per_trial =
        |name, unit, f: &dyn Fn(&Trial) -> f64| row(name, unit, o.trials.iter().map(f).collect());
    let mut out = vec![
        per_trial("ops_per_s", "1/s", &|t| t.ops as f64 / t.wall_s),
        per_trial("op_p50_us", "us", &|t| t.p50_ns as f64 / 1e3),
        per_trial("op_p90_us", "us", &|t| t.p90_ns as f64 / 1e3),
        per_trial("op_p99_us", "us", &|t| t.p99_ns as f64 / 1e3),
        per_trial("cpu_us_per_op", "us", &|t| t.cpu_s * 1e6 / t.ops as f64),
        per_trial("payload_mb_per_s", "MB/s", &|t| {
            t.ops as f64 * spec.payload as f64 / 1e6 / t.wall_s
        }),
        row("setup_s", "s", vec![o.setup_s]),
        row("peak_rss_mb", "MB", vec![peak_rss_mb()]),
    ];
    out.extend(modelled_rows(o));
    out
}

/// The virtual-clock view of a modelled workload's trials, one value
/// per trial, under the names and units of `spec::MODELLED`; rows
/// without values for a real-clock workload.
fn modelled_rows(o: &Outcome) -> Vec<Row> {
    let per_trial: [fn(&Trial, &Modelled) -> f64; 3] = [
        |t, m| t.ops as f64 / m.v_s,
        |_, m| m.p50_vns as f64 / 1e3,
        |_, m| m.p99_vns as f64 / 1e3,
    ];
    MODELLED
        .iter()
        .zip(per_trial)
        .map(|((name, unit), f)| {
            let values = o
                .trials
                .iter()
                .filter_map(|t| Some(f(t, t.modelled.as_ref()?)));
            row(name, unit, values.collect())
        })
        .filter(|r| !r.values.is_empty())
        .collect()
}

/// The modelled metrics as the traced run reports them: medians over
/// its untraced legs, zeros for a real-clock workload.
pub fn modelled(o: &Outcome) -> Vec<Metric> {
    let rows = modelled_rows(o);
    MODELLED
        .iter()
        .map(|(name, unit)| {
            let measured = rows.iter().find(|r| r.name == *name);
            Metric::new(name, unit, measured.map_or(0.0, Row::median))
        })
        .collect()
}
