//! The paper's §5.2 listing, translated: a TCP echo server built from
//! `announce`/`listen`/`accept`, with a "fork a process to echo" per
//! call, exercised by three concurrent clients.
//!
//! Run with `cargo run --example echo_server`.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::MachineBuilder;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;

/// The paper's echo_server(), in Rust. Returns after serving `calls`
/// connections so the example terminates.
fn echo_server(hp: plan9::core::proc::Proc, calls: usize) -> plan9::core::Result<()> {
    let (_afd, adir) = announce(&hp, "tcp!*!echo")?;
    println!("[server] announced tcp!*!echo at {adir}");
    for _ in 0..calls {
        // Listen for a call.
        let (lcfd, ldir) = listen(&hp, &adir)?;
        // Fork a process to echo; the new connection's ctl descriptor
        // moves to the child, as after fork() in the paper's listing.
        let (wp, wlcfd) = hp.fork_with_fd(lcfd);
        std::thread::spawn(move || {
            // Accept the call and open the data file.
            let Ok(dfd) = accept(&wp, wlcfd, &ldir) else {
                return;
            };
            // Echo until EOF.
            while let Ok(n) = wp.read(dfd, 256) {
                if n.is_empty() {
                    break;
                }
                let _ = wp.write(dfd, &n);
            }
            wp.close(dfd);
            wp.close(wlcfd);
        });
    }
    Ok(())
}

fn main() {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=server ip=10.0.0.1 proto=tcp\nsys=term ip=10.0.0.2 proto=tcp\n";
    let server = MachineBuilder::new("server")
        .ether(&seg, [8, 0, 0, 0, 0, 1], IpConfig::local("10.0.0.1"))
        .ndb(ndb)
        .build()
        .expect("boot server");
    let term = MachineBuilder::new("term")
        .ether(&seg, [8, 0, 0, 0, 0, 2], IpConfig::local("10.0.0.2"))
        .ndb(ndb)
        .build()
        .expect("boot term");

    let hp = server.proc();
    let srv = std::thread::spawn(move || echo_server(hp, 3).expect("echo server"));
    std::thread::sleep(std::time::Duration::from_millis(100));

    let mut clients = Vec::new();
    for i in 0..3 {
        let p = term.proc();
        clients.push(std::thread::spawn(move || {
            let conn = dial(&p, "tcp!server!echo").expect("dial");
            for round in 0..5 {
                let msg = format!("client {i} round {round}");
                p.write(conn.data_fd, msg.as_bytes()).expect("write");
                let mut got = Vec::new();
                while got.len() < msg.len() {
                    let part = p.read(conn.data_fd, 256).expect("read");
                    assert!(!part.is_empty(), "server hung up early");
                    got.extend(part);
                }
                assert_eq!(got, msg.as_bytes());
            }
            println!("[client {i}] echoed 5 rounds via {}", conn.dir);
            p.close(conn.data_fd);
            p.close(conn.ctl_fd);
        }));
    }
    for c in clients {
        c.join().expect("client");
    }
    srv.join().expect("server thread");
    // Every call hung up: past the FINs and TIME-WAIT, neither machine
    // holds a conversation.
    let left = [&server, &term].map(|m| m.ip.as_ref().expect("ip stack").settle());
    assert_eq!(left, [0, 0], "conversations left on server and term");
    println!("conversations left: 0");
    println!("echo_server: OK");
}
