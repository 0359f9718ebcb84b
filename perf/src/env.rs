//! The measuring environment: CPU pinning, process clocks and the
//! `/proc/self` counters.
//!
//! The foreign functions are declared here rather than taken from a
//! registry crate: std already links libc, and the build is offline.

use std::fs;

const CPU_SET_WORDS: usize = 16; // glibc's cpu_set_t: 1024 bits

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

const SCHED_BATCH: i32 = 3;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
}

/// What the run was measured on; printed with every result.
#[derive(Debug, Clone)]
pub struct Env {
    /// CPUs the machine has.
    pub nproc: usize,
    /// The one CPU every thread of this process runs on.
    pub pinned_cpu: usize,
    /// The scheduling policy: `batch`, or `other` where the kernel
    /// refused it.
    pub sched: &'static str,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// The cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Env {
    /// One line for the head of a report.
    pub fn line(&self) -> String {
        format!(
            "env: nproc={} pinned_cpu={} sched={} kernel={} profile={}",
            self.nproc, self.pinned_cpu, self.sched, self.kernel, self.profile
        )
    }
}

/// Pins the calling thread, and so every thread it spawns afterwards,
/// to the highest-numbered CPU it is allowed, and asks for the batch
/// scheduling policy. Call before anything spawns a thread.
///
/// On one CPU a closed-loop operation's wall time is the system's whole
/// real-CPU cost for it, whatever the host scheduler would otherwise do
/// with the kprocs. Under `SCHED_BATCH` a woken thread never preempts
/// its waker, so which kproc runs next is decided by who blocks, not by
/// the scheduler's bookkeeping (see README, "Why runs are pinned").
pub fn pin() -> Result<Env, String> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: the mask pointer is valid for the byte length passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    // The machine's CPUs, not the mask's: a child of a pinned parent
    // inherits a mask of one.
    let nproc = fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to cpu {cpu} failed"));
    }
    let priority = 0i32; // struct sched_param is one int
                         // SAFETY: the kernel only reads the one-int sched_param.
    let batch = unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) } == 0;
    Ok(Env {
        nproc,
        pinned_cpu: cpu,
        sched: if batch { "batch" } else { "other" },
        kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    })
}

/// CPU time (user + system) this process has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_field(name: &str) -> u64 {
    let text = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status lacks {name}"))
}

/// The process's peak resident set, in decimal megabytes.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 * 1024.0 / 1e6
}

/// Counters the traced run reads before and after the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct OsCounters {
    /// Voluntary plus involuntary context switches, all threads.
    pub ctxsw: u64,
    /// User time in clock ticks.
    pub utime: u64,
    /// System time in clock ticks.
    pub stime: u64,
    /// Threads alive now.
    pub threads: u64,
}

/// Reads the `/proc/self` counters. Context switches are summed over
/// `/proc/self/task/*/status`: the process-level file counts only the
/// main thread.
pub fn os_counters() -> OsCounters {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').expect("stat has a comm field").1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    let num = |i: usize| f[i - 3].parse::<u64>().expect("numeric stat field");
    let mut ctxsw = 0;
    for task in fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let path = task.expect("task entry").path().join("status");
        // A thread may exit between readdir and read.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        for l in text.lines() {
            if l.starts_with("voluntary_ctxt_switches")
                || l.starts_with("nonvoluntary_ctxt_switches")
            {
                ctxsw += l
                    .split_whitespace()
                    .last()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    OsCounters {
        ctxsw,
        utime: num(14),
        stime: num(15),
        threads: status_field("Threads"),
    }
}
