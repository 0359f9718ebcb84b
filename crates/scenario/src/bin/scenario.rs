//! The scenario runner: parse a script, inflict it on a generated
//! internet, print the canonical report.
//!
//! Usage:
//!   scenario <script-file>    run a script under the virtual clock
//!   scenario --demo           run the built-in walkthrough (small)
//!
//! Exits nonzero if the script fails to parse or the run violates the
//! fabric invariants (frame conservation, no leaked conversations).

use plan9_support::vtime;

/// A scaled-down copy of the EXPERIMENTS walkthrough, small enough to
/// smoke-run anywhere in a few seconds of wall clock.
const DEMO: &str = "\
# a flash crowd hits city 1 while the backbone misbehaves (demo scale)
seed 42
topology grid cities=3 hosts=8 ndb-lines=500
at 100ms flashcrowd city=1 dials=40 size=512 window=300ms
at 500ms flap trunk=0-1 for 100ms
at 800ms partition {0}|{1,2} heal 200ms
at 1200ms kill gateway city=2
end 2s
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, text) = match args.first().map(String::as_str) {
        Some("--demo") => ("demo".to_string(), DEMO.to_string()),
        Some(path) => (path.to_string(), read_script(path)),
        None => usage(),
    };
    let sc = match plan9_scenario::dsl::parse(&text) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("scenario: {name}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "scenario {name}: {} cities x {} hosts, {} events, seed {} (virtual clock)",
        sc.cities,
        sc.hosts_per_city,
        sc.events.len(),
        sc.seed,
    );
    let guard = vtime::enter();
    let report = plan9_scenario::run(&sc);
    drop(guard);
    print!("{}", report.text);
    if report.clean() {
        println!("scenario {name}: OK");
    } else {
        println!(
            "scenario {name}: FAILED ({} conservation violations, {} leaked conversations)",
            report.conservation_violations, report.residual_conns
        );
        std::process::exit(1);
    }
}

fn read_script(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scenario: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: scenario <script-file> | --demo");
    std::process::exit(2);
}
