//! Shared machinery for the binaries that write the committed
//! artifacts.
//!
//! Every `BENCH_*.json` and `REPORT_netmon.txt` at the repository root is
//! a function of the source tree: the binaries run on the virtual clock,
//! so the files hold modelled numbers only, and verify.sh fails when a
//! regenerated file differs from the committed one. The wall clock a run
//! took goes to stdout, held to the binary's own budget.

use plan9_support::time;
use std::time::Instant;

pub mod loc;
pub mod paths;

/// The paper's Table 1, for side-by-side reporting.
pub const PAPER_TABLE1: [(&str, f64, f64); 4] =
    [("pipes", 8.15, 0.255), ("IL/ether", 1.02, 1.42), ("URP/Datakit", 0.22, 1.75), ("Cyclone", 3.2, 0.375)];

/// Writes `text` to the artifact `name` at the repository root.
pub fn write_artifact(name: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("wrote {name}");
}

/// Prints the wall clock `bin` has taken since `started` and fails the
/// run past `budget_s`: a modelled run that takes long has fallen back
/// to waiting on the real clock, or grown.
pub fn within_budget(bin: &str, started: Instant, budget_s: f64) {
    let wall_s = time::real_now().duration_since(started).as_secs_f64();
    println!("{bin}: {wall_s:.2}s of wall clock (budget {budget_s}s)");
    assert!(wall_s < budget_s, "{bin} took {wall_s:.2}s of wall clock, over its {budget_s}s budget");
}
