//! The §3 design argument, measured: IL's query-based recovery against
//! TCP's blind retransmission, under increasing loss.
//!
//! "In contrast to other protocols, IL does not do blind retransmission.
//! If a message is lost and a timeout occurs, a query message is sent.
//! ... This allows the protocol to behave well in congested networks,
//! where blind retransmission would cause further congestion."
//!
//! The sweep moves the same payload over the same (unpaced, lossy)
//! Ethernet with both protocols and reports how many payload bytes each
//! had to re-send. TCP's go-back-N resends everything from the last
//! acknowledged byte; IL's State replies let it resend only what was
//! actually lost.
//!
//! The sweep runs on the virtual clock: timers fire by quiescence-advance,
//! not by waiting, so each cell's seconds are virtual and the whole
//! file is a function of the tree. What a 9P RPC over IL costs, traced
//! and untraced, is `perf/`'s business (`bash perf/run.sh --workload
//! rpc64_il --trace 1`).
//!
//! Results land in `BENCH_ilvstcp.json` at the repository root.
//!
//! Usage: `cargo run -p plan9-bench --release --bin ilvstcp`

use plan9_bench::{within_budget, write_artifact};
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::Profiles;
use plan9_support::{time, vtime};
use std::sync::Arc;

const TOTAL: usize = 1 << 20; // 1 MiB per cell of the sweep
const MSG: usize = 1400; // one ether frame per message

/// The wall clock the virtual sweep may take: it must not wait out
/// real timers.
const BUDGET_S: f64 = 5.0;

fn hosts(loss: f64, salt: u8) -> (Arc<IpStack>, Arc<IpStack>) {
    let seg = EtherSegment::new(Profiles::ether_fast().with_loss(loss));
    let a = IpStack::new_pooled(
        seg.attach([8, 0, 0, 0xc, salt, 1]),
        IpConfig::local(&format!("10.{}.0.1", 100 + salt)),
    );
    let b = IpStack::new_pooled(
        seg.attach([8, 0, 0, 0xc, salt, 2]),
        IpConfig::local(&format!("10.{}.0.2", 100 + salt)),
    );
    (a, b)
}

/// Returns (elapsed_s, retransmitted_bytes, control_msgs) for IL.
///
/// The cell body runs in a registered kernel process so that, under a
/// virtual clock, every actor in the conversation is visible to the
/// quiescence census — an uncounted thread mid-send would let the clock
/// jump a retransmit deadline it should have waited out.
fn run_il(loss: f64, salt: u8) -> (f64, u64, u64) {
    let cell = vtime::kproc("il-cell", move || {
        let (a, b) = hosts(loss, salt);
        let listener = b.il_module().listen(&b, 17008).expect("listen");
        let server = vtime::kproc("il-server", move || {
            let conn = listener.accept().expect("accept");
            let mut got = 0usize;
            while got < TOTAL {
                got += conn.recv().expect("recv").expect("eof").len();
            }
        })
        // checked: spawn fails only on OS thread exhaustion
        .expect("spawn il server");
        let conn = a.il_module().connect(&a, b.addr(), 17008).expect("connect");
        let msg = vec![0xabu8; MSG];
        let start = time::now();
        let mut sent = 0usize;
        while sent < TOTAL {
            let n = MSG.min(TOTAL - sent);
            conn.send(&msg[..n]).expect("send");
            sent += n;
        }
        server.join().expect("server");
        let elapsed = time::now().saturating_duration_since(start).as_secs_f64();
        let stats = &a.il_module().stats;
        (
            elapsed,
            stats.retransmit_bytes.get(),
            stats.queries.get(),
        )
    })
    // checked: spawn fails only on OS thread exhaustion
    .expect("spawn il cell");
    cell.join().expect("il cell")
}

/// Returns (elapsed_s, retransmitted_bytes, retransmit_segments) for TCP.
fn run_tcp(loss: f64, salt: u8) -> (f64, u64, u64) {
    let cell = vtime::kproc("tcp-cell", move || {
        let (a, b) = hosts(loss, salt);
        let listener = b.tcp_module().listen(&b, 564).expect("listen");
        let server = vtime::kproc("tcp-server", move || {
            let conn = listener.accept().expect("accept");
            let mut got = 0usize;
            while got < TOTAL {
                let d = conn.read(65536).expect("read");
                assert!(!d.is_empty(), "early eof");
                got += d.len();
            }
        })
        // checked: spawn fails only on OS thread exhaustion
        .expect("spawn tcp server");
        let conn = a.tcp_module().connect(&a, b.addr(), 564).expect("connect");
        let payload = vec![0xcdu8; TOTAL];
        let start = time::now();
        conn.write(&payload).expect("write");
        server.join().expect("server");
        let elapsed = time::now().saturating_duration_since(start).as_secs_f64();
        let stats = &a.tcp_module().stats;
        (
            elapsed,
            stats.retransmit_bytes.get(),
            stats.retransmit_segments.get(),
        )
    })
    // checked: spawn fails only on OS thread exhaustion
    .expect("spawn tcp cell");
    cell.join().expect("tcp cell")
}

const LOSSES: [f64; 5] = [0.0, 0.01, 0.03, 0.05, 0.10];

/// The IL-vs-TCP loss sweep; returns the JSON rows. Asserts the §3
/// claim at meaningful loss: blind retransmission resends more than
/// query-repair.
fn sweep() -> Vec<String> {
    println!(
        "{:>6} | {:>10} {:>12} {:>9} | {:>10} {:>12} {:>9}",
        "loss", "IL s", "IL rexmit B", "queries", "TCP s", "TCP rexmit B", "segments"
    );
    println!("{}", "-".repeat(80));
    // Each cell's hosts take their own addresses, from salt 30: an
    // address picks a conversation's pool shard, so it is part of what
    // the rows model.
    let mut salt = 30;
    let mut rows = Vec::new();
    for loss in LOSSES {
        let (il_s, il_rexmit, il_q) = run_il(loss, salt);
        salt += 1;
        let (tcp_s, tcp_rexmit, tcp_seg) = run_tcp(loss, salt);
        salt += 1;
        println!(
            "{:>5.0}% | {:>10.2} {:>12} {:>9} | {:>10.2} {:>12} {:>9}",
            loss * 100.0,
            il_s,
            il_rexmit,
            il_q,
            tcp_s,
            tcp_rexmit,
            tcp_seg
        );
        rows.push(format!(
            "{{\"loss\": {loss}, \"il_s\": {il_s:.4}, \"il_rexmit_bytes\": {il_rexmit}, \
             \"il_queries\": {il_q}, \"tcp_s\": {tcp_s:.4}, \"tcp_rexmit_bytes\": {tcp_rexmit}, \
             \"tcp_rexmit_segments\": {tcp_seg}}}"
        ));
        if loss >= 0.05 {
            assert!(
                tcp_rexmit > il_rexmit,
                "at {loss} loss TCP should re-send more bytes than IL"
            );
        }
    }
    rows
}

fn main() {
    println!("IL vs TCP under loss — 1 MiB transfer, unpaced Ethernet, virtual clock");
    let started = time::real_now();
    let guard = vtime::enter();
    let rows = sweep();
    drop(guard);
    write_artifact(
        "BENCH_ilvstcp.json",
        &format!(
            "{{\n  \"bench\": \"ilvstcp\",\n  \"vtime\": true,\n  \"vsweep\": [\n    {}\n  ]\n}}\n",
            rows.join(",\n    ")
        ),
    );
    within_budget("ilvstcp", started, BUDGET_S);
    println!("ilvstcp: OK (IL repairs precisely; TCP goes back and blasts)");
}
