//! Reproduces the paper's code-size measurements against this
//! repository:
//!
//! * §2: "of 25,000 lines of kernel code, 12,500 are network and
//!   protocol related" — the fraction of the workspace that is network
//!   and protocol code.
//! * §3: "The entire protocol [IL] is 847 lines of code, compared to
//!   2200 lines for TCP" — the relative sizes of our IL and TCP, each
//!   its shell (`il.rs`, `tcp.rs`) and its core (`il/fsm.rs`,
//!   `tcp/fsm.rs`); URP, the third reliable protocol, is listed beside
//!   them the same way (`urp.rs`, `urp/fsm.rs`).
//!
//! It is also the ratchet on the north star's "non-test LoC per crate
//! is a tracked number": `scripts/loc-ratchet.txt` holds each crate's
//! count and the workspace's, and a count above its line exits nonzero.
//!
//! Usage: `cargo run -p plan9-bench --bin loc [-- --update]`
//! (`--update` rewrites the ratchet file from the tree as it stands).

use plan9_bench::loc::{count_dir, count_file, over_ratchet, render_ratchet, Counts};
use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Every directory under crates/, so a new crate cannot go
    // uncounted. These few are not network or protocol code.
    let other = [
        ("support", "no (kernel support)"),
        ("check", "no (tooling)"),
        ("scenario", "no (harness)"),
        ("bench", "no (harness)"),
    ];
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    println!("{:<12} {:>8} {:>8} {:>10}  network?", "crate", "total", "code", "non-test");
    println!("{}", "-".repeat(52));
    let mut all = Counts::default();
    let mut net = Counts::default();
    let mut rows = Vec::new();
    for name in &crates {
        let c = count_dir(&root.join("crates").join(name).join("src"));
        let label = other.iter().find(|(n, _)| n == name).map(|(_, l)| *l);
        println!(
            "{name:<12} {:>8} {:>8} {:>10}  {}",
            c.total,
            c.code,
            c.non_test_code,
            label.unwrap_or("yes")
        );
        rows.push((name.clone(), c.non_test_code));
        all += c;
        if label.is_none() {
            net += c;
        }
    }
    println!("{}", "-".repeat(52));
    println!(
        "{:<12} {:>8} {:>8} {:>10}",
        "workspace", all.total, all.code, all.non_test_code
    );
    let frac = net.non_test_code as f64 / all.non_test_code as f64;
    println!();
    println!(
        "network/protocol fraction: {:.0}% of non-test code (paper: 12,500/25,000 = 50% of the kernel)",
        frac * 100.0
    );

    // §3: IL vs TCP, each its shell and its core (the state machine),
    // and URP beside them.
    let lines = |f: &str| count_file(&root.join("crates").join(f)).expect(f).non_test_code;
    let shell_and_core = |dir: &str, p: &str| lines(&format!("{dir}/src/{p}.rs")) + lines(&format!("{dir}/src/{p}/fsm.rs"));
    let (il, tcp, urp) = (shell_and_core("inet", "il"), shell_and_core("inet", "tcp"), shell_and_core("datakit", "urp"));
    println!();
    println!("IL  (il.rs + il/fsm.rs):   {il:>5} non-test code lines");
    println!("TCP (tcp.rs + tcp/fsm.rs): {tcp:>5} non-test code lines");
    println!("URP (urp.rs + urp/fsm.rs): {urp:>5} non-test code lines");
    println!(
        "TCP/IL ratio: {:.2}x (paper: 2200/847 = {:.2}x)",
        tcp as f64 / il as f64,
        2200.0 / 847.0
    );
    assert!(il < tcp, "IL must stay smaller than TCP, as in the paper");

    rows.push(("workspace".to_string(), all.non_test_code));
    let ratchet = root.join("scripts/loc-ratchet.txt");
    if std::env::args().any(|a| a == "--update") {
        std::fs::write(&ratchet, render_ratchet(&rows)).expect("write scripts/loc-ratchet.txt");
        return;
    }
    let over = over_ratchet(&std::fs::read_to_string(&ratchet).expect("scripts/loc-ratchet.txt"), &rows);
    if !over.is_empty() {
        for line in &over {
            eprintln!("loc: {line}");
        }
        eprintln!("loc: shrink it, or raise the ceiling on purpose with `loc --update`");
        std::process::exit(1);
    }
}
