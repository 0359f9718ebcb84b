//! Integration: dial/announce/listen over every protocol device, and
//! the delimiter contrast that motivates IL (§3).

use plan9::core::dial::{accept, announce, dial, listen, netmkaddr};
use plan9::core::machine::{Machine, MachineBuilder};
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;
use std::sync::Arc;

fn machines() -> (Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let ndb = "\
sys=helix ip=10.9.0.1 dk=nj/astro/helix proto=il proto=tcp
sys=gnot ip=10.9.0.2 dk=nj/astro/gnot proto=il proto=tcp
";
    let a = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0, 9, 0, 1], IpConfig::local("10.9.0.1"))
        .datakit(&switch, "nj/astro/helix")
        .ndb(ndb)
        .build()
        .unwrap();
    let b = MachineBuilder::new("gnot")
        .ether(&seg, [8, 0, 0, 9, 0, 2], IpConfig::local("10.9.0.2"))
        .datakit(&switch, "nj/astro/gnot")
        .ndb(ndb)
        .build()
        .unwrap();
    (a, b)
}

/// Starts an echo server for `addr` on machine `m`, serving one call.
fn echo_once(m: &Arc<Machine>, addr: &'static str) {
    let p = m.proc();
    std::thread::spawn(move || {
        let (_afd, adir) = announce(&p, addr).expect("announce");
        let (lcfd, ldir) = listen(&p, &adir).expect("listen");
        let dfd = accept(&p, lcfd, &ldir).expect("accept");
        while let Ok(msg) = p.read(dfd, 65536) {
            if msg.is_empty() {
                break;
            }
            if p.write(dfd, &msg).is_err() {
                break;
            }
        }
    });
}

#[test]
fn dial_each_protocol_explicitly() {
    let (helix, gnot) = machines();
    for (announce_addr, dial_addr) in [
        ("il!*!echo", "il!helix!echo"),
        ("tcp!*!echo", "tcp!helix!echo"),
        ("dk!*!echo", "dk!nj/astro/helix!echo"),
    ] {
        echo_once(&helix, announce_addr);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let p = gnot.proc();
        let conn = dial(&p, dial_addr).unwrap_or_else(|e| panic!("{dial_addr}: {e}"));
        p.write(conn.data_fd, b"ping").expect("write");
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(p.read(conn.data_fd, 4096).expect("read"));
        }
        assert_eq!(got, b"ping", "{dial_addr}");
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
    }
    // The Datakit call was counted on the caller's line.
    let p = gnot.proc();
    let fd = p.open("/net/dk/stats", OpenMode::READ).expect("dk stats");
    let stats = p.read_string(fd).expect("read dk stats");
    let tx = stats.lines().find_map(|l| l.strip_prefix("urp.tx "));
    assert!(tx.is_some_and(|n| n.parse::<u64>().expect("urp.tx") > 0), "{stats}");
}

#[test]
fn dial_net_metaname_picks_common_network() {
    let (helix, gnot) = machines();
    echo_once(&helix, "il!*!echo");
    std::thread::sleep(std::time::Duration::from_millis(100));
    let p = gnot.proc();
    let conn = dial(&p, "net!helix!echo").expect("dial net!helix!echo");
    // IL is first in preference order and helix supports it.
    assert!(conn.dir.starts_with("/net/il/"), "{}", conn.dir);
    p.write(conn.data_fd, b"x").unwrap();
    assert_eq!(p.read(conn.data_fd, 10).unwrap(), b"x");
}

#[test]
fn il_preserves_write_boundaries_tcp_does_not() {
    let (helix, gnot) = machines();
    // Servers that report the size of each read they see.
    for proto in ["il", "tcp"] {
        let p = helix.proc();
        let addr: &'static str = if proto == "il" { "il!*!discard" } else { "tcp!*!discard" };
        std::thread::spawn(move || {
            let (_afd, adir) = announce(&p, addr).expect("announce");
            let (lcfd, ldir) = listen(&p, &adir).expect("listen");
            let dfd = accept(&p, lcfd, &ldir).expect("accept");
            // Report each read's length back on the same connection.
            while let Ok(msg) = p.read(dfd, 65536) {
                if msg.is_empty() {
                    break;
                }
                let _ = p.write(dfd, format!("{} ", msg.len()).as_bytes());
            }
        });
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let p = gnot.proc();
    // IL: three writes arrive as exactly three messages.
    let conn = dial(&p, "il!helix!discard").expect("dial il");
    for _ in 0..3 {
        p.write(conn.data_fd, b"abc").unwrap();
        // Each write is one message: the size report is "3".
        assert_eq!(p.read(conn.data_fd, 100).unwrap(), b"3 ");
    }
    // TCP: rapid-fire writes may coalesce; sizes can differ from the
    // write boundaries. We only assert the total arrives.
    let conn = dial(&p, "tcp!helix!discard").expect("dial tcp");
    p.write(conn.data_fd, b"abc").unwrap();
    p.write(conn.data_fd, b"def").unwrap();
    let mut reported = 0usize;
    while reported < 6 {
        let r = p.read(conn.data_fd, 100).unwrap();
        reported += String::from_utf8_lossy(&r)
            .split_whitespace()
            .map(|n| n.parse::<usize>().unwrap_or(0))
            .sum::<usize>();
    }
    assert_eq!(reported, 6);
}

#[test]
fn netmkaddr_normalizes() {
    assert_eq!(netmkaddr("helix", "net", "9fs"), "net!helix!9fs");
    assert_eq!(netmkaddr("net!helix", "x", "9fs"), "net!helix!9fs");
    assert_eq!(netmkaddr("il!helix!echo", "x", "y"), "il!helix!echo");
}

#[test]
fn rejected_datakit_call_reports_eof() {
    let (helix, gnot) = machines();
    let _keep = helix;
    let p = gnot.proc();
    // Nothing announced "bogus": the dispatcher rejects with a reason.
    let conn = dial(&p, "dk!nj/astro/helix!bogus").expect("circuit opens");
    assert_eq!(p.read(conn.data_fd, 100).unwrap(), b"");
}

#[test]
fn announce_stays_in_force_until_closed() {
    let (helix, gnot) = machines();
    let hp = helix.proc();
    let (afd, adir) = announce(&hp, "tcp!*!daytime").expect("announce");
    let server = std::thread::spawn(move || {
        for _ in 0..2 {
            let Ok((lcfd, ldir)) = listen(&hp, &adir) else { return };
            let Ok(dfd) = accept(&hp, lcfd, &ldir) else { return };
            let _ = hp.write(dfd, b"Jul 16 17:28");
            hp.close(dfd);
            hp.close(lcfd);
        }
        hp.close(afd);
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let p = gnot.proc();
    for _ in 0..2 {
        let conn = dial(&p, "tcp!helix!daytime").expect("dial");
        let date = p.read(conn.data_fd, 100).expect("read");
        assert_eq!(date, b"Jul 16 17:28");
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
    }
    server.join().unwrap();
}
