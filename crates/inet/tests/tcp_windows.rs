//! TCP's congestion and flow windows under the virtual clock: a closed
//! window is probed at the pace of the delayed ack and reopens when the
//! reader reads, and a retransmission timeout collapses the congestion
//! window to one segment. In a binary of its own: a virtual run is
//! process-wide, and the crate's unit tests run on the real clock.

use plan9_inet::ip::{IpConfig, IpStack};
use plan9_inet::tcp::{TcpConn, TCP_HDR};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::Profiles;
use plan9_support::{time, vtime};
use std::sync::Arc;
use std::time::Duration;

fn two_hosts(net: u8) -> (Arc<IpStack>, Arc<IpStack>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let host = |n: u8| IpStack::new_pooled(seg.attach([8, 0, 0x77, net, 0, n]), IpConfig::local(&format!("10.{net}.0.{n}")));
    (host(1), host(2))
}

/// The congestion window, as the `status` file shows it.
fn cwnd(conn: &TcpConn) -> usize {
    let status = conn.status_string();
    let mut words = status.split_whitespace().skip_while(|w| *w != "cwnd").skip(1);
    words.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| panic!("no cwnd in {status:?}"))
}

/// Reads until `total` bytes have come.
fn read_exactly(conn: &Arc<TcpConn>, total: usize) {
    let mut got = 0;
    while got < total {
        let d = conn.read(65536).unwrap();
        assert!(!d.is_empty(), "end of file at {got} of {total}");
        got += d.len();
    }
}

/// A reader that is not reading closes the window. The writer may
/// probe it, at the pace of the delayed ack and not of the wire,
/// and hears from `read` when it opens — not from its own
/// retransmission timer.
#[test]
fn a_closed_window_is_probed_slowly_and_reopens_at_once() {
    const TOTAL: usize = 1 << 20;
    let _vt = vtime::enter();
    let (a, b) = two_hosts(1);
    let listener = b.tcp_module().listen(&b, 7021).unwrap();
    let server = vtime::kproc("window-reader", move || {
        let conn = listener.accept().unwrap();
        time::sleep(Duration::from_millis(300));
        let first_read = time::now();
        read_exactly(&conn, TOTAL);
        time::now() - first_read
    })
    .unwrap();
    let conn = a.tcp_module().connect(&a, b.addr(), 7021).unwrap();
    conn.write(&vec![7u8; TOTAL]).unwrap();
    let draining = server.join().unwrap();
    let sent = a.tcp_module().stats.tx_segments.get() as usize;
    let needed = TOTAL.div_ceil(a.mtu() - TCP_HDR);
    assert!(sent < 2 * needed, "{sent} segments sent for {needed} of data");
    assert!(draining < Duration::from_millis(200), "took {draining:?} once the reader read");
    conn.close();
}

#[test]
fn timeout_collapses_to_one_mss() {
    let _vt = vtime::enter();
    let (a, b) = two_hosts(2);
    let listener = b.tcp_module().listen(&b, 7012).unwrap();
    let conn = a.tcp_module().connect(&a, b.addr(), 7012).unwrap();
    let _srv = listener.accept().unwrap();
    // Silence the peer entirely (its receiver processes stop), then
    // write: the timer must fire and collapse the window.
    b.shutdown();
    conn.write(b"into the void").unwrap();
    // Past the first retransmission timeout (at most RTO_INITIAL, 200 ms).
    time::sleep(Duration::from_millis(600));
    assert_eq!(cwnd(&conn), a.mtu() - TCP_HDR, "timeout resets to 1 MSS");
    assert!(a.tcp_module().stats.retransmit_segments.get() > 0);
}
