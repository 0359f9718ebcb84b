//! The engine's two virtual-clock tests. They live apart from the
//! crate's unit tests because the clock is process-global: the
//! real-clock topology tests must not run under another test's
//! virtual clock.

use plan9_scenario::{dsl, run};
use plan9_support::vtime;

/// A tiny scenario, run twice under the virtual clock: the whole
/// determinism contract at unit scale.
#[test]
fn tiny_scenario_is_clean_and_deterministic() {
    let sc = dsl::parse(
        "seed 9\n\
         topology grid cities=2 hosts=3 ndb-lines=200\n\
         at 100ms flashcrowd city=1 dials=6 size=64 window=200ms\n\
         at 400ms flap trunk=0-1 for 50ms\n\
         netmon 100ms\n\
         end 800ms\n",
    )
    .expect("parse");
    let guard = vtime::enter();
    let a = run(&sc);
    let b = run(&sc);
    drop(guard);
    assert!(a.clean(), "run not clean:\n{}", a.text);
    assert_eq!(a.dials_ok + a.dials_failed, 6);
    // Both gateways' series made it across the fabric, non-empty,
    // and identical between the two same-seed runs.
    assert_eq!(a.series.len(), 2, "{}", a.text);
    for ((sys, body), (_, body_b)) in a.series.iter().zip(&b.series) {
        assert!(!body.is_empty(), "empty series for {sys}:\n{}", a.text);
        assert!(body.starts_with("series interval=100000us"), "{body}");
        assert_eq!(body, body_b, "series for {sys} diverged");
    }
    for (la, lb) in a.text.lines().zip(b.text.lines()) {
        assert_eq!(la, lb, "first divergent report line");
    }
    assert_eq!(a.text, b.text, "same-seed runs must render identically");
}

/// Killing a gateway mid-scenario leaves no leaked conversations.
#[test]
fn gateway_kill_leaves_no_conversations() {
    let sc = dsl::parse(
        "seed 5\n\
         topology grid cities=2 hosts=1 ndb-lines=150\n\
         at 600ms kill gateway city=1\n\
         end 1200ms\n",
    )
    .expect("parse");
    let guard = vtime::enter();
    let r = run(&sc);
    drop(guard);
    assert_eq!(r.residual_conns, 0, "leaked conversations:\n{}", r.text);
    assert_eq!(r.conservation_violations, 0, "{}", r.text);
    assert!(r.text.contains("kill gateway city=1"), "{}", r.text);
}
