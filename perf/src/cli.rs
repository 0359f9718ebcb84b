//! The command line: one workload per process, or the whole set with
//! each workload in a fresh child.

use crate::env::{self, Env};
use crate::json::ResultLine;
use crate::run::{self, Metric, Row, PROCESSES, TRIALS};
use crate::spec::{self, END_TO_END};
use crate::stats::mad_pct;
use crate::workloads::{self, Spec, WORKLOADS};
use crate::{ladder, traced};
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Duration;

const USAGE: &str = "\
usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
            [--quick] [--ab] [--benchmark-json]
  with --workload: one run; the last line of output is its result as JSON
  without: every workload, untraced then traced, each in a fresh child
  --quick   0.2 s trials and a check of the names against BENCHMARK.json
  --ab      the whole set twice, compared metric by metric
  --benchmark-json  print BENCHMARK.json and exit";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    ab: bool,
    process: bool,
    ladder: bool,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        ab: false,
        process: false,
        ladder: false,
        benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => a.trace = value()? == "1",
            "--quick" => a.quick = true,
            "--ab" => a.ab = true,
            "--process" => a.process = true,
            "--ladder" => a.ladder = true,
            "--benchmark-json" => a.benchmark_json = true,
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if a.quick {
        a.seconds = 1.0;
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// The process's entry point; `traced_binary` says which of the two
/// binaries this is. Exits 0 only when every output byte was right.
pub fn main(traced_binary: bool) -> ! {
    let code = match real_main(traced_binary) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perf: {e}");
            2
        }
    };
    std::process::exit(code)
}

fn real_main(traced_binary: bool) -> Result<bool, String> {
    let args = parse_args()?;
    if args.benchmark_json {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    // Before anything spawns a thread, so every thread inherits it.
    let env = env::pin()
        .map_err(|e| format!("unpinned: {e}; numbers from an unpinned run are not comparable"))?;
    if args.ladder {
        return ladder_process(&args);
    }
    let Some(name) = &args.workload else {
        return suite(&args, &env);
    };
    let spec = workloads::find(name).ok_or(format!("no workload named {name}"))?;
    let spec = if args.quick { spec.quick() } else { spec };
    if args.trace != traced_binary {
        if traced_binary {
            return Err(
                "perf-traced is the --trace 1 binary; end-to-end numbers come from perf"
                    .to_string(),
            );
        }
        // Same arguments, the other binary: it replaces this process.
        let err = Command::new(sibling("perf-traced")?)
            .args(std::env::args().skip(1))
            .exec();
        return Err(format!("exec perf-traced: {err}"));
    }
    if args.process {
        return one_process(spec, &args);
    }
    println!("{}", env.line());
    if args.trace {
        single_traced(spec, &args)
    } else {
        single(spec, &args)
    }
}

fn sibling(name: &str) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name(name))
}

/// Processes and trials per process, or for `--quick` one process of
/// five 0.2 s trials.
fn shape(args: &Args) -> (usize, usize) {
    if args.quick {
        (1, 5)
    } else {
        (PROCESSES, TRIALS)
    }
}

/// One of a run's processes: sets up, measures its trials, and prints
/// what it saw for the parent to pool.
fn one_process(spec: Spec, args: &Args) -> Result<bool, String> {
    let (processes, trials) = shape(args);
    let trial_len = Duration::from_secs_f64(args.seconds / (processes * trials) as f64);
    let o = run::measure(spec, args.seed, trials, trial_len);
    for r in run::rows(&spec, &o) {
        let values: Vec<String> = r.values.iter().map(f64::to_string).collect();
        println!("values {} {}", r.name, values.join(" "));
    }
    for t in &o.trials {
        if let Some((label, ns, beyond)) = t.top {
            println!("top {label} {ns} {beyond} {}", t.ops);
        }
    }
    println!("counts {} {}", o.attempted, o.failed);
    Ok(o.failed == 0)
}

/// What the parent pools from its processes.
#[derive(Default)]
struct Pooled {
    rows: Vec<Row>,
    /// `(label, ns, samples beyond, samples)` per trial.
    tops: Vec<(String, f64, u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Pooled {
    /// Runs one process of the run and adds what it printed.
    fn add_process(&mut self, spec: Spec, args: &Args) -> Result<(), String> {
        let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--process"])
            .args(args.quick.then_some("--quick"))
            .output()
            .map_err(|e| format!("spawn {}: {e}", spec.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let bad = |l: &str| format!("{}: cannot read {l:?} from a measuring process", spec.name);
        let mut counted = false;
        for l in text.lines() {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| {
                f.get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| bad(l))
            };
            match f.first().copied() {
                Some("values") if f.len() > 2 => {
                    let unit = spec::unit_of(f[1]).ok_or_else(|| bad(l))?;
                    let values = (2..f.len())
                        .map(num)
                        .collect::<Result<Vec<f64>, String>>()?;
                    match self.rows.iter_mut().find(|r| r.name == f[1]) {
                        Some(r) => r.values.extend(values),
                        None => self.rows.push(Row {
                            name: f[1].to_string(),
                            unit,
                            values,
                        }),
                    }
                }
                Some("top") if f.len() == 5 => {
                    self.tops
                        .push((f[1].to_string(), num(2)?, num(3)? as u64, num(4)? as u64))
                }
                Some("counts") => {
                    self.attempted += num(1)? as u64;
                    self.failed += num(2)? as u64;
                    counted = true;
                }
                _ => return Err(bad(l)),
            }
        }
        if !counted {
            return Err(format!(
                "{}: a measuring process died: {}",
                spec.name,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(())
    }
}

fn print_header() {
    println!(
        "  {:<18} {:>5} {:>12} {:>12} {:>12} {:>12} {:>6} {:>3}  bound",
        "metric", "unit", "value", "median", "min", "max", "mad%", "n"
    );
}

/// The run's value of a row: as its end-to-end metric defines it, or
/// the median for a modelled row.
fn value_of(r: &Row) -> f64 {
    let metric = END_TO_END.iter().find(|m| m.name == r.name);
    metric.map_or_else(|| r.median(), |m| m.of(&r.values))
}

fn print_row(r: &Row) {
    let min = r.values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = r.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let noise = mad_pct(&r.values);
    let bound = END_TO_END
        .iter()
        .find(|m| m.name == r.name)
        .and_then(|m| m.bound);
    // Noise above half the bound cannot tell a regression from a rerun.
    let flag = match bound {
        Some(b) if noise > 100.0 * b / 2.0 => "  unresolved",
        _ => "",
    };
    println!(
        "  {:<18} {:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>6.2} {:>3}  {}{flag}",
        r.name,
        r.unit,
        value_of(r),
        r.median(),
        min,
        max,
        noise,
        r.values.len(),
        bound.map_or(String::new(), |b| format!("{:.0}%", 100.0 * b)),
    );
}

/// The end-to-end run of one workload: several fresh processes, one
/// after another on the one CPU, their trials pooled.
fn single(spec: Spec, args: &Args) -> Result<bool, String> {
    let (processes, trials) = shape(args);
    let mut pooled = Pooled::default();
    for _ in 0..processes {
        pooled.add_process(spec, args)?;
    }
    let each = match spec.vtime_ops {
        Some(n) => format!("{n} ops on the virtual clock"),
        None => format!("{:.2} s", args.seconds / (processes * trials) as f64),
    };
    println!(
        "{} seed {}: {processes} x {trials} (processes x trials) of {each}, each process after {} warm-up ops",
        spec.name, args.seed, spec.warmup
    );
    print_header();
    pooled.rows.iter().for_each(print_row);
    println!(
        "  {:<18} {:>5} {:>12.6}   ({} failed of {} attempted)",
        "failed_share",
        "ratio",
        pooled.failed as f64 / pooled.attempted.max(1) as f64,
        pooled.failed,
        pooled.attempted
    );
    // The trial with the median tail speaks for it.
    pooled.tops.sort_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((label, ns, beyond, ops)) = pooled.tops.get(pooled.tops.len() / 2) {
        println!(
            "  highest percentile with >= 10 samples beyond it: {label} = {:.1} us (rank {} of {ops})",
            ns / 1e3,
            ops - beyond
        );
    }
    let metrics: Vec<Metric> = spec::gated()
        .map(|(m, _)| {
            let r = pooled
                .rows
                .iter()
                .find(|r| r.name == m.name)
                .ok_or(format!("no process reported {}", m.name))?;
            Ok(Metric::new(m.name, m.unit, m.of(&r.values)))
        })
        .collect::<Result<_, String>>()?;
    let result = ResultLine::new(
        pooled.failed == 0,
        pooled.attempted,
        pooled.failed,
        &metrics,
    );
    println!("{}", result.render());
    Ok(result.correct)
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<42} {:>6} {:>16.4}  {}",
        m.name, m.unit, m.value, m.over
    );
}

/// The ladder, in a process of its own so that no workload's threads,
/// timers or closing conversations stand on a rung.
fn ladder_process(args: &Args) -> Result<bool, String> {
    let per_rung = Duration::from_secs_f64(0.4 * args.seconds / spec::LADDER.len() as f64);
    println!("ladder: each rung {:.0} ms", per_rung.as_secs_f64() * 1e3);
    let rungs = ladder::measure(args.seed, per_rung);
    rungs.iter().for_each(print_metric);
    println!(
        "{}",
        ResultLine::new(true, rungs.len() as u64, 0, &rungs).render()
    );
    Ok(true)
}

/// The traced run of one workload: ladder, counts, span totals.
fn single_traced(spec: Spec, args: &Args) -> Result<bool, String> {
    // Four tenths of the time to the ladder, a tenth to each timed
    // leg; the counted leg is a fixed number of operations.
    let ladder = run_child(args, &["--ladder"])?;
    let leg_len = Duration::from_secs_f64(args.seconds / 10.0);
    let counted_ops = spec.vtime_ops.unwrap_or(spec.warmup / 2);
    let t = traced::measure(spec, args.seed, counted_ops, leg_len);
    println!(
        "{} seed {} traced: {counted_ops} counted ops, 2 legs x {:.2} s",
        spec.name,
        args.seed,
        leg_len.as_secs_f64()
    );
    t.metrics.iter().for_each(print_metric);

    // The result line: the contract's names, in the contract's order.
    let mut measured = ladder.metrics;
    measured.extend(
        t.metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit.to_string())),
    );
    let mut metrics = Vec::new();
    for want in spec::per_layer() {
        let i = measured
            .iter()
            .position(|m| m.0 == want.name)
            .ok_or(format!("traced run did not measure {}", want.name))?;
        let m = measured.swap_remove(i);
        if m.2 != want.unit {
            return Err(format!(
                "{} measured in {}, declared in {}",
                m.0, m.2, want.unit
            ));
        }
        metrics.push(m);
    }
    if let Some(extra) = measured.first() {
        return Err(format!(
            "traced run measured {}, which BENCHMARK.json does not declare",
            extra.0
        ));
    }
    let o = &t.outcome;
    let result = ResultLine {
        correct: o.failed == 0,
        attempted: o.attempted,
        failed: o.failed,
        metrics,
    };
    println!("{}", result.render());
    Ok(result.correct)
}

/// Runs this binary again in a fresh child with the run's seed and
/// seconds plus `extra`, relays its table, and returns its result line.
fn run_child(args: &Args, extra: &[&str]) -> Result<ResultLine, String> {
    // Always `perf`: it hands a `--trace 1` run to `perf-traced`
    // itself, and the ladder's timings want the plain allocator.
    let out = Command::new(sibling("perf")?)
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(args.quick.then_some("--quick"))
        .args(extra)
        .output()
        .map_err(|e| format!("spawn {extra:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    let result = ResultLine::parse(last).map_err(|e| {
        format!(
            "{extra:?}: no result line: {e}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    // The child's own env line repeats the parent's.
    for l in lines.iter().filter(|l| !l.starts_with("env:")) {
        println!("{l}");
    }
    Ok(result)
}

/// Checks a child's metric names against the contract's.
fn check_names(run: &ResultLine, trace: bool) -> Result<(), String> {
    let got: Vec<&str> = run.metrics.iter().map(|m| m.0.as_str()).collect();
    let want: Vec<String> = if trace {
        spec::per_layer().into_iter().map(|m| m.name).collect()
    } else {
        spec::gated().map(|(m, _)| m.name.to_string()).collect()
    };
    if got != want {
        return Err(format!(
            "printed names differ from BENCHMARK.json's:\n  printed {got:?}\n  declared {want:?}"
        ));
    }
    Ok(())
}

/// One pass over every workload: `(untraced, traced)` per workload.
fn one_set(args: &Args) -> Result<Vec<(ResultLine, ResultLine)>, String> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        let untraced = run_child(args, &["--workload", w.name, "--trace", "0"])?;
        check_names(&untraced, false)?;
        let traced = run_child(args, &["--workload", w.name, "--trace", "1"])?;
        check_names(&traced, true)?;
        println!();
        out.push((untraced, traced));
    }
    Ok(out)
}

/// Counts that must repeat between two runs of one commit: copies,
/// packets, fragments, frames and everything modelled. `alloc.*` and
/// `support.*` are left out because they include the work of ack and
/// keep-alive timers, which follows elapsed time.
fn exact(name: &str) -> bool {
    let counted = [
        "copy.",
        "inet.",
        "netsim.ether.frames_per_op",
        "netsim.ether.drops",
        "vtime.",
    ];
    counted.iter().any(|p| name.starts_with(p)) && !name.ends_with("_ns")
}

/// Compares two sets of one commit: the repeatability evidence.
fn compare(a: &[(ResultLine, ResultLine)], b: &[(ResultLine, ResultLine)]) -> bool {
    let mut ok = true;
    println!("A/B: relative difference of each end-to-end metric against its bound");
    println!(
        "  {:<16} {:<18} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff%", "bound"
    );
    for (w, (ra, rb)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        for (m, bound) in spec::gated() {
            let (va, vb) = (
                ra.0.value(m.name).unwrap_or(0.0),
                rb.0.value(m.name).unwrap_or(0.0),
            );
            let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
            let over = diff > bound;
            ok &= !over;
            println!(
                "  {:<16} {:<18} {:>12.3} {:>12.3} {:>8.2} {:>5.0}%{}",
                w.name,
                m.name,
                va,
                vb,
                100.0 * diff,
                100.0 * bound,
                if over { "  EXCEEDS" } else { "" }
            );
        }
    }
    println!("A/B: per-op counts and modelled metrics that must agree");
    let mut differing = 0;
    for (w, (ra, rb)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        // The virtual clock repeats to the last digit. On the real
        // clock a stall of the host lets an ack timer fire that
        // otherwise would not: one packet more in 5000 operations.
        let slack = if w.vtime_ops.is_some() { 0.0 } else { 1e-3 };
        for (name, va, _) in ra.1.metrics.iter().filter(|m| exact(&m.0)) {
            let vb = rb.1.value(name).unwrap_or(f64::NAN);
            if (va - vb).abs() > slack * va.abs().max(vb.abs()) {
                differing += 1;
                println!(
                    "  {:<16} {:<40} {:>14.6} {:>14.6}  DIFFERS",
                    w.name, name, va, vb
                );
            }
        }
    }
    println!("  {differing} differ");
    ok && differing == 0
}

/// Every workload in a fresh child each, untraced then traced.
fn suite(args: &Args, env: &Env) -> Result<bool, String> {
    println!("{}", env.line());
    if args.quick {
        let on_disk = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("read BENCHMARK.json from the current directory: {e}"))?;
        if on_disk != spec::benchmark_json() {
            return Err("BENCHMARK.json differs from `perf --benchmark-json`".to_string());
        }
        println!("BENCHMARK.json matches the benchmark's own names, units and bounds");
    }
    let a = one_set(args)?;
    let mut correct = a.iter().all(|(u, t)| u.correct && t.correct);
    if args.ab {
        let b = one_set(args)?;
        correct &= b.iter().all(|(u, t)| u.correct && t.correct);
        correct &= compare(&a, &b);
    }
    println!("perf: {}", if correct { "OK" } else { "FAILED" });
    Ok(correct)
}
