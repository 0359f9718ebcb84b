//! What the oracles share: a case runs on a virtual clock of its own, a
//! watchdog turns a wedge into a failure that names its seed, and
//! teardown is timed and must leave nothing behind. The stream oracles
//! differ only in how they dial, move data and close; `nine` is the 9P
//! tag-space oracle, the same case whoever feeds the server. Each test
//! binary uses the part it needs.
#![allow(dead_code)]

pub mod fs;
pub mod world;
pub mod nine;

use plan9_support::check::Gen;
use plan9_support::{pool, time, vtime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Virtual time after which a case that has not ended is wedged: a
/// clean case takes a fraction of a second of it, and one that backs
/// off again and again some tens.
const WEDGED: Duration = Duration::from_secs(600);

/// The variable that replays one case of oracle `name`.
fn replay_var(name: &str) -> String {
    format!("P9_{}_CASE", name.to_uppercase())
}

/// The case to run next: the one `P9_<NAME>_CASE` names, else the
/// runner's next seed.
pub fn next_seed(name: &str, g: &mut Gen) -> u64 {
    let replay = std::env::var(replay_var(name)).ok().and_then(|s| s.parse().ok());
    replay.unwrap_or_else(|| g.u64())
}

/// Runs one case in a virtual run of its own (so an oracle is a binary
/// of its own: a virtual run is process-wide), and fails with what the
/// case said was wrong.
pub fn run(seed: u64, case: fn(u64) -> Result<(), String>) {
    let guard = vtime::enter();
    let out = vtime::kproc("stream-case", move || case(seed)).expect("spawn case").join();
    drop(guard);
    if let Err(e) = out.expect("case panicked") {
        panic!("{e}");
    }
}

/// A wedged conversation may have no timer armed, and a virtual clock
/// with every process parked and no timer never moves: the watchdog is
/// the timer that turns that hang into a failure. Not every protocol
/// can abort a conversation that is wedged closing, so the failure is
/// the process's: it says what `describe` sees and how to replay the
/// case, and exits. Stop it by setting `done` and joining it.
pub fn watchdog(
    name: &'static str,
    seed: u64,
    done: &Arc<AtomicBool>,
    describe: impl Fn() -> String + Send + 'static,
) -> vtime::KprocHandle<()> {
    let done = Arc::clone(done);
    let watch = move || {
        let deadline = time::now() + WEDGED;
        while !done.load(Ordering::Acquire) {
            if time::now() >= deadline {
                eprintln!(
                    "{name}: still open after {WEDGED:?}: {}; replay with {}={seed}",
                    describe(),
                    replay_var(name)
                );
                std::process::exit(1);
            }
            time::sleep(Duration::from_millis(500));
        }
    };
    vtime::kproc("stream-watchdog", watch).expect("spawn watchdog")
}

/// Kernel processes on the clock, less the pool's workers, whose number
/// is the pool's to decide.
pub fn kprocs() -> usize {
    vtime::active().expect("a virtual clock").census().0 - pool::workers()
}

/// The longest virtual time a case of this run has spent settling, in
/// nanoseconds: how long teardown takes, against the protocol's horizon.
static LONGEST_SETTLE: AtomicU64 = AtomicU64::new(0);

/// Teardown's accounting: times `settle`, which waits for both ends to
/// let go and says how much they left, and fails unless nothing is.
pub fn settled(name: &str, seed: u64, wire: &str, settle: impl FnOnce() -> usize) -> Result<(), String> {
    let t0 = time::now();
    let left = settle();
    let took = (time::now() - t0).as_nanos() as u64;
    if LONGEST_SETTLE.fetch_max(took, Ordering::Relaxed) < took {
        eprintln!("{name}: seed {seed} settled in {:?}, the longest yet", Duration::from_nanos(took));
    }
    if left != 0 {
        return Err(format!("({wire}): {left} left after both ends closed"));
    }
    Ok(())
}
