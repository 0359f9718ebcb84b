//! Integration: the netlog subsystem's numbers are trustworthy.
//!
//! Two reconciliations under randomized impairment profiles: the wire's
//! own frame accounting must balance exactly, and IL's retransmission
//! counter must agree with the event trace — the counters and the log
//! are two views of the same recovery machinery, so they may not drift.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::{Machine, MachineBuilder};
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::{LinkProfile, Profiles};
use std::sync::Arc;

fn machines_on(profile: LinkProfile) -> (Arc<EtherSegment>, Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(profile);
    let ndb = "\
sys=a ip=10.31.0.1 proto=il proto=tcp
sys=b ip=10.31.0.2 proto=il proto=tcp
";
    let a = MachineBuilder::new("a")
        .ether(&seg, [8, 0, 0, 31, 0, 1], IpConfig::local("10.31.0.1"))
        .ndb(ndb)
        .build()
        .unwrap();
    let b = MachineBuilder::new("b")
        .ether(&seg, [8, 0, 0, 31, 0, 2], IpConfig::local("10.31.0.2"))
        .ndb(ndb)
        .build()
        .unwrap();
    (seg, a, b)
}

plan9_support::props! {
    /// Under a random loss/duplication profile, every wire balances:
    /// delivered == sent − dropped + duplicated.
    fn prop_wire_stats_identity_under_impairment(g, cases = 4) {
        let loss = g.f64_in(0.0..0.10);
        let dup = g.f64_in(0.0..0.05);
        let msgs = g.vec(5..20, |g| g.bytes(1..3000));
        let (seg, a, b) = machines_on(
            Profiles::ether_fast().with_loss(loss).with_dup(dup),
        );
        let n = msgs.len();
        let p = b.proc();
        let server = std::thread::spawn(move || {
            let (_afd, adir) = announce(&p, "il!*!9fs").expect("announce");
            let (lcfd, ldir) = listen(&p, &adir).expect("listen");
            let dfd = accept(&p, lcfd, &ldir).expect("accept");
            for _ in 0..n {
                p.read(dfd, 65536).expect("read");
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        let p = a.proc();
        let conn = dial(&p, "il!b!9fs").expect("dial");
        for m in &msgs {
            p.write(conn.data_fd, m).expect("write");
        }
        server.join().unwrap();
        // An ack timer may be inside the medium right now, `sent`
        // bumped and `delivered` not yet. Hang up, wait for both ends
        // to forget the conversation (its timers go with it), and read
        // the counters once two reads agree.
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
        let left = [&a, &b].map(|m| m.ip.as_ref().unwrap().settle());
        assert_eq!(left, [0, 0], "conversations outlived their hangup");
        let stats = seg.medium().stats();
        let read = || [&stats.sent, &stats.delivered, &stats.dropped, &stats.duplicated].map(|c| c.get());
        let mut settled = read();
        loop {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let again = read();
            if again == settled {
                break;
            }
            settled = again;
        }
        let [sent, delivered, dropped, duplicated] = settled;
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
        let (_seg, a, b) = machines_on(Profiles::ether_fast().with_loss(loss));
        let sender = a.ip.as_ref().unwrap();
        sender.netlog().events.ctl("set il").unwrap();
        let n = msgs.len();
        let p = b.proc();
        let server = std::thread::spawn(move || {
            let (_afd, adir) = announce(&p, "il!*!9fs").expect("announce");
            let (lcfd, ldir) = listen(&p, &adir).expect("listen");
            let dfd = accept(&p, lcfd, &ldir).expect("accept");
            for _ in 0..n {
                p.read(dfd, 65536).expect("read");
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
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
