//! Quickstart: boot two Plan 9 machines on one Ethernet, look at `/net`,
//! ask the connection server for a translation, and dial an echo
//! service.
//!
//! Run with `cargo run --example quickstart`.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::MachineBuilder;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;

fn main() {
    // One shared 10 Mbit/s Ethernet segment (unpaced for the demo).
    let seg = EtherSegment::new(Profiles::ether_fast());
    // The network database both machines read (§4.1).
    let ndb = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 proto=il proto=tcp
sys=gnot ip=135.104.9.40 proto=il proto=tcp
";
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .ndb(ndb)
        .build()
        .expect("boot helix");
    let gnot = MachineBuilder::new("gnot")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0x40], IpConfig::local("135.104.9.40"))
        .ndb(ndb)
        .build()
        .expect("boot gnot");

    // Every resource is a file: look at the conventional /net.
    let p = gnot.proc();
    println!("gnot% ls /net");
    for d in p.ls("/net").expect("ls /net") {
        println!("/net/{}", d.name);
    }

    // Ask CS to translate a symbolic name (§4.2).
    println!("\ngnot% ndb/csquery");
    println!("> net!helix!9fs");
    let fd = p.open("/net/cs", OpenMode::RDWR).expect("open /net/cs");
    p.write_str(fd, "net!helix!9fs").expect("write query");
    loop {
        let line = p.read(fd, 256).expect("read cs");
        if line.is_empty() {
            break;
        }
        println!("{}", String::from_utf8_lossy(&line));
    }
    p.close(fd);

    // An echo server on helix (the §5.2 pattern).
    let hp = helix.proc();
    std::thread::spawn(move || {
        let (_afd, adir) = announce(&hp, "il!*!echo").expect("announce");
        loop {
            let Ok((lcfd, ldir)) = listen(&hp, &adir) else { return };
            let Ok(dfd) = accept(&hp, lcfd, &ldir) else { return };
            while let Ok(msg) = hp.read(dfd, 8192) {
                if msg.is_empty() {
                    break;
                }
                let _ = hp.write(dfd, &msg);
            }
            hp.close(dfd);
            hp.close(lcfd);
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Dial it by name and exchange a message.
    let conn = dial(&p, "net!helix!echo").expect("dial net!helix!echo");
    println!("\ngnot% echo through {} ...", conn.dir);
    p.write(conn.data_fd, b"hello from the gnot").expect("write");
    let reply = p.read(conn.data_fd, 8192).expect("read");
    println!("reply: {}", String::from_utf8_lossy(&reply));

    // The connection is a directory of files; read its status.
    let st = p
        .open(&format!("{}/status", conn.dir), OpenMode::READ)
        .expect("open status");
    print!("status: {}", p.read_string(st).expect("read status"));
    p.close(st);
    p.close(conn.data_fd);
    p.close(conn.ctl_fd);

    // Hung up: the close handshake takes the conversation out of both
    // machines' tables.
    let left = [&helix, &gnot].map(|m| m.ip.as_ref().expect("ip stack").settle());
    assert_eq!(left, [0, 0], "conversations left on helix and gnot");
    println!("conversations left: 0");
    println!("\nquickstart: OK");
}
