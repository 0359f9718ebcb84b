//! `IpStack::settle` under the virtual clock: it returns at the instant
//! the last conversation leaves its table, or with the count of those
//! left once the protocol's give-up horizon has passed with none
//! leaving, and either way the stack goes on serving. In a binary of
//! its own: a virtual run is process-wide, and the crate's unit tests
//! run on the real clock.

use plan9_inet::ip::{IpConfig, IpStack};
use plan9_inet::{il, tcp};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::Profiles;
use plan9_support::{time, vtime};
use std::sync::Arc;
use std::time::Duration;

/// One way across the wire. Nothing else on it takes time, so every
/// exchange below lasts a whole number of hops.
const HOP: Duration = Duration::from_millis(3);

const PORT: u16 = 17008;

fn two_hosts(net: u8) -> [Arc<IpStack>; 2] {
    let mut wire = Profiles::ether_fast();
    wire.propagation = HOP;
    let seg = EtherSegment::new(wire);
    let mac = |host: u8| [8, 0, 0x69, net, 0, host];
    let hosts = [1, 2].map(|host| {
        IpStack::new_pooled(
            seg.attach(mac(host)),
            IpConfig::local(&format!("10.{net}.0.{host}")),
        )
    });
    hosts[0].arp.learn(hosts[1].addr(), mac(2));
    hosts[1].arp.learn(hosts[0].addr(), mac(1));
    hosts
}

/// What `settle` returned, and the virtual time it took.
fn timed_settle(stack: &IpStack) -> (usize, Duration) {
    let t0 = time::now();
    let left = stack.settle();
    (left, time::now() - t0)
}

#[test]
fn il_settles_as_the_close_handshake_ends() {
    let _vt = vtime::enter();
    let [a, b] = two_hosts(1);
    let listener = b.il_module().listen(&b, PORT).unwrap();
    let conn = a.il_module().connect(&a, b.addr(), PORT).unwrap();
    let _srv = listener.accept().unwrap();
    conn.close();
    // A Close there leaves b at once; the Close it answers with leaves a.
    assert_eq!(timed_settle(&a), (0, 2 * HOP));
    assert_eq!(timed_settle(&b), (0, Duration::ZERO));
    // The stack still serves.
    a.il_module().connect(&a, b.addr(), PORT).unwrap();
    listener.accept().unwrap();
}

#[test]
fn il_gives_up_at_its_horizon_with_the_count_left() {
    let _vt = vtime::enter();
    let [a, b] = two_hosts(2);
    let listener = b.il_module().listen(&b, PORT).unwrap();
    let _open = a.il_module().connect(&a, b.addr(), PORT).unwrap();
    listener.accept().unwrap();
    assert_eq!(timed_settle(&a), (1, il::HORIZON));
    a.il_module().connect(&a, b.addr(), PORT).unwrap();
    listener.accept().unwrap();
}

#[test]
fn tcp_settles_as_time_wait_ends() {
    let _vt = vtime::enter();
    let [a, b] = two_hosts(3);
    let listener = b.tcp_module().listen(&b, PORT).unwrap();
    let conn = a.tcp_module().connect(&a, b.addr(), PORT).unwrap();
    let srv = listener.accept().unwrap();
    conn.close();
    srv.close();
    // The two FINs cross, each end acknowledges the other's, and each
    // leaves when its TIME-WAIT is over.
    assert_eq!(timed_settle(&a), (0, 2 * HOP + tcp::TIME_WAIT));
    assert_eq!(timed_settle(&b), (0, Duration::ZERO));
    a.tcp_module().connect(&a, b.addr(), PORT).unwrap();
    listener.accept().unwrap();
}

#[test]
fn tcp_gives_up_at_its_horizon_with_the_count_left() {
    let _vt = vtime::enter();
    let [a, b] = two_hosts(4);
    let listener = b.tcp_module().listen(&b, PORT).unwrap();
    let _open = a.tcp_module().connect(&a, b.addr(), PORT).unwrap();
    listener.accept().unwrap();
    assert_eq!(timed_settle(&a), (1, tcp::HORIZON));
    a.tcp_module().connect(&a, b.addr(), PORT).unwrap();
    listener.accept().unwrap();
}
