//! Integration: end-to-end behavior over impaired media — the failures
//! IL, TCP and URP exist to mask. Every case runs on the virtual clock
//! (so this file is a binary of its own: a virtual run is process-wide),
//! its servers are kernel processes, and a dial follows the announce
//! that has returned rather than a sleep.

mod oracle;

use oracle::world::{answer_once, hosts_on};
use plan9::core::dial::dial;
use plan9::core::machine::Machine;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::{LinkProfile, Profiles};
use plan9_support::vtime::{self, KprocHandle};
use std::sync::Arc;

fn machines_on(profile: LinkProfile) -> (Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(profile);
    let switch = DatakitSwitch::new(Profiles::datakit_fast().with_loss(0.05));
    let ndb = "\
sys=a ip=10.31.0.1 dk=nj/x/a proto=il proto=tcp
sys=b ip=10.31.0.2 dk=nj/x/b proto=il proto=tcp
";
    let [a, b] = hosts_on(&seg, Some((&switch, "nj/x")), 31, [("a", 1), ("b", 2)], ndb);
    (a, b)
}

/// Answers one call at `addr`, reading its bytes until `expect_total`
/// have come.
fn sink_server(m: &Arc<Machine>, addr: &'static str, expect_total: usize) -> KprocHandle<Vec<u8>> {
    answer_once(m, addr, "sink", move |p, dfd| {
        let mut got = Vec::new();
        while got.len() < expect_total {
            let chunk = p.read(dfd, 65536).expect("read");
            assert!(!chunk.is_empty(), "early eof at {}", got.len());
            got.extend(chunk);
        }
        got
    })
}

#[test]
fn il_bulk_integrity_under_loss_dup_reorder() {
    let profile = Profiles::ether_fast()
        .with_loss(0.05)
        .with_dup(0.02)
        .with_reorder(0.02);
    let _vt = vtime::enter();
    let (a, b) = machines_on(profile);
    let payload: Vec<u8> = (0..120_000u32).map(|i| (i * 31 % 251) as u8).collect();
    let server = sink_server(&b, "il!*!9fs", payload.len());
    let p = a.proc();
    let conn = dial(&p, "il!b!9fs").expect("dial");
    for chunk in payload.chunks(4000) {
        p.write(conn.data_fd, chunk).expect("write");
    }
    assert_eq!(server.join().unwrap(), payload);
}

#[test]
fn tcp_bulk_integrity_under_corruption() {
    // Corrupted frames must be caught by checksums and repaired by
    // retransmission, never delivered wrong.
    let profile = Profiles::ether_fast().with_corrupt(0.03);
    let _vt = vtime::enter();
    let (a, b) = machines_on(profile);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 253) as u8).collect();
    let server = sink_server(&b, "tcp!*!9fs", payload.len());
    let p = a.proc();
    let conn = dial(&p, "tcp!b!9fs").expect("dial");
    for chunk in payload.chunks(8000) {
        p.write(conn.data_fd, chunk).expect("write");
    }
    assert_eq!(server.join().unwrap(), payload);
}

#[test]
fn urp_bulk_integrity_over_lossy_circuit() {
    let _vt = vtime::enter();
    let (a, b) = machines_on(Profiles::ether_fast());
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 241) as u8).collect();
    let server = sink_server(&b, "dk!*!bulk", payload.len());
    let p = a.proc();
    let conn = dial(&p, "dk!nj/x/b!bulk").expect("dial");
    for chunk in payload.chunks(5000) {
        p.write(conn.data_fd, chunk).expect("write");
    }
    assert_eq!(server.join().unwrap(), payload);
}

plan9_support::props! {
    /// Arbitrary message sequences survive a lossy Ethernet with their
    /// boundaries intact (IL's contract with 9P).
    fn prop_il_messages_survive_loss(g, cases = 4) {
        let msgs = g.vec(1..20, |g| g.bytes(0..3000));
        let loss = g.f64_in(0.0..0.08);
        let _vt = vtime::enter();
        let (a, b) = machines_on(Profiles::ether_fast().with_loss(loss));
        let n = msgs.len();
        let server = answer_once(&b, "il!*!9fs", "reader", move |p, dfd| {
            (0..n).map(|_| p.read(dfd, 65536).expect("read")).collect::<Vec<_>>()
        });
        let p = a.proc();
        let conn = dial(&p, "il!b!9fs").expect("dial");
        for m in &msgs {
            p.write(conn.data_fd, m).expect("write");
        }
        let got = server.join().unwrap();
        // Empty messages collapse at the device-read layer (a zero-byte
        // read means EOF there), so compare non-empty prefixes
        // message-by-message.
        let sent: Vec<&Vec<u8>> = msgs.iter().collect();
        assert_eq!(got.len(), sent.len());
        for (got_msg, sent_msg) in got.iter().zip(sent) {
            assert_eq!(got_msg, sent_msg);
        }
    }
}
