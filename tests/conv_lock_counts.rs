//! How often a conversation takes its lock: a fixed IL exchange and a
//! fixed TCP exchange on the virtual clock, counted by lockdep
//! (`graph_dump`'s `acquires=`, kept in debug builds). The counts are
//! process-wide, so this test is a binary of its own, and under the
//! virtual clock they repeat exactly: the totals are asserted as they
//! stand. Each shell takes the lock once per input — a segment, a timer
//! firing, a send, a read, a close — and does what the step asked after
//! dropping it (DESIGN.md, the inet section); a second hold per input
//! put back shows here. EXPERIMENTS.md has the same run's totals before
//! the cores were split out.
#![cfg(debug_assertions)] // lockdep counts only in debug builds

use plan9::inet::ip::{IpConfig, IpStack};
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9_support::{lockdep, vtime};
use std::sync::Arc;

/// Request/reply rounds per exchange, 64 bytes each way.
const ROUNDS: u8 = 20;

/// A class's acquisitions so far, as `graph_dump` lists them.
fn acquires(class: &str) -> u64 {
    let prefix = format!("class {class} acquires=");
    lockdep::graph_dump()
        .lines()
        .find_map(|l| l.strip_prefix(&prefix).and_then(|n| n.parse().ok()))
        .unwrap_or(0)
}

fn stacks(net: u8) -> (Arc<IpStack>, Arc<IpStack>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let a = IpStack::new_pooled(seg.attach([8, 0, 0, 0x41, net, 1]), IpConfig::local(&format!("10.41.{net}.1")));
    let b = IpStack::new_pooled(seg.attach([8, 0, 0, 0x41, net, 2]), IpConfig::local(&format!("10.41.{net}.2")));
    (a, b)
}

/// Dials an echo server and runs `ROUNDS` 64-byte round trips, then
/// both ends close and the stacks settle.
fn il_exchange() {
    let (a, b) = stacks(1);
    let listener = b.il_module().listen(&b, 17008).expect("listen");
    let server = vtime::kproc("il-echo", move || {
        let conn = listener.accept().expect("accept");
        while let Some(msg) = conn.recv().expect("recv") {
            conn.send(&msg).expect("echo");
        }
        conn.close();
    })
    .expect("spawn il echo");
    let conn = a.il_module().connect(&a, b.addr(), 17008).expect("connect");
    for i in 0..ROUNDS {
        conn.send(&[i; 64]).expect("send");
        assert_eq!(conn.recv().expect("recv"), Some(vec![i; 64]));
    }
    conn.close();
    server.join().expect("il echo");
    assert_eq!([a.settle(), b.settle()], [0, 0], "conversations left");
}

fn tcp_exchange() {
    let (a, b) = stacks(2);
    let listener = b.tcp_module().listen(&b, 564).expect("listen");
    let server = vtime::kproc("tcp-echo", move || {
        let conn = listener.accept().expect("accept");
        loop {
            let data = conn.read(8192).expect("read");
            if data.is_empty() {
                break;
            }
            conn.write(&data).expect("echo");
        }
        conn.close();
    })
    .expect("spawn tcp echo");
    let conn = a.tcp_module().connect(&a, b.addr(), 564).expect("connect");
    for i in 0..ROUNDS {
        conn.write(&[i; 64]).expect("write");
        let mut got = Vec::new();
        while got.len() < 64 {
            got.extend(conn.read(8192).expect("read"));
        }
        assert_eq!(got, [i; 64]);
    }
    conn.close();
    server.join().expect("tcp echo");
    assert_eq!([a.settle(), b.settle()], [0, 0], "connections left");
}

#[test]
fn each_input_takes_the_conversation_lock_once() {
    let _vt = vtime::enter();
    let il = acquires("inet.il.conn");
    il_exchange();
    let il = acquires("inet.il.conn") - il;
    let tcp = acquires("inet.tcp.conn");
    tcp_exchange();
    let tcp = acquires("inet.tcp.conn") - tcp;
    assert_eq!((il, tcp), (169, 257), "inet.il.conn and inet.tcp.conn acquisitions");
}
