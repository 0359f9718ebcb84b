//! Integration: the netlog subsystem's numbers are trustworthy.
//!
//! Two reconciliations under randomized impairment profiles: the wire's
//! own frame accounting must balance exactly, and IL's retransmission
//! counter must agree with the event trace — the counters and the log
//! are two views of the same recovery machinery, so they may not drift.
//! Each case runs under a virtual clock of its own.

mod oracle;

use oracle::world::{answer_once, ether_hosts};
use plan9::core::dial::dial;
use plan9::core::machine::Machine;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::{LinkProfile, Profiles};
use plan9_support::vtime;
use std::sync::Arc;

fn machines_on(profile: LinkProfile) -> (Arc<EtherSegment>, Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(profile);
    let ndb = "\
sys=a ip=10.31.0.1 proto=il proto=tcp
sys=b ip=10.31.0.2 proto=il proto=tcp
";
    let [a, b] = ether_hosts(&seg, 31, [("a", 1), ("b", 2)], ndb);
    (seg, a, b)
}

/// Answers one call at `il!*!9fs` on `m`, reading `n` messages.
fn reader(m: &Arc<Machine>, n: usize) -> vtime::KprocHandle<()> {
    answer_once(m, "il!*!9fs", "reader", move |p, dfd| {
        for _ in 0..n {
            p.read(dfd, 65536).expect("read");
        }
    })
}

plan9_support::props! {
    /// Under a random loss/duplication profile, every wire balances:
    /// delivered == sent − dropped + duplicated.
    fn prop_wire_stats_identity_under_impairment(g, cases = 4) {
        let loss = g.f64_in(0.0..0.10);
        let dup = g.f64_in(0.0..0.05);
        let msgs = g.vec(5..20, |g| g.bytes(1..3000));
        let _vt = vtime::enter();
        let (seg, a, b) = machines_on(
            Profiles::ether_fast().with_loss(loss).with_dup(dup),
        );
        let server = reader(&b, msgs.len());
        let p = a.proc();
        let conn = dial(&p, "il!b!9fs").expect("dial");
        for m in &msgs {
            p.write(conn.data_fd, m).expect("write");
        }
        server.join().unwrap();
        // Hang up and wait for both ends to forget the conversation
        // (its timers go with it). The medium counts a frame's copies
        // as it sends it, and no other process runs while this one
        // reads the counters.
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
        let left = [&a, &b].map(|m| m.ip.as_ref().unwrap().settle());
        assert_eq!(left, [0, 0], "conversations outlived their hangup");
        let stats = seg.medium().stats();
        let [sent, delivered, dropped, duplicated] =
            [&stats.sent, &stats.delivered, &stats.dropped, &stats.duplicated].map(|c| c.get());
        assert!(sent > 0, "no traffic reached the wire");
        assert_eq!(
            delivered,
            sent - dropped + duplicated,
            "wire out of balance: sent {sent} dropped {dropped} duplicated {duplicated}"
        );
    }

    /// IL's retransmit counter equals the number of query-recovery
    /// events in the event log: each repaired message logs exactly one
    /// `rexmit` line.
    fn prop_il_rexmit_counter_matches_event_log(g, cases = 4) {
        let loss = g.f64_in(0.02..0.10);
        let msgs = g.vec(10..25, |g| g.bytes(500..3000));
        let _vt = vtime::enter();
        let (_seg, a, b) = machines_on(Profiles::ether_fast().with_loss(loss));
        let sender = a.ip.as_ref().unwrap();
        sender.netlog().events.ctl("set il").unwrap();
        let server = reader(&b, msgs.len());
        let p = a.proc();
        let conn = dial(&p, "il!b!9fs").expect("dial");
        for m in &msgs {
            p.write(conn.data_fd, m).expect("write");
        }
        server.join().unwrap();
        let rexmit_events = sender
            .netlog()
            .events
            .events()
            .iter()
            .filter(|e| e.msg.starts_with("rexmit "))
            .count() as u64;
        assert_eq!(
            sender.il_module().stats.retransmit_msgs.get(),
            rexmit_events,
            "counter and event log disagree"
        );
    }
}
