//! The §6.1 gateway: a terminal with only a Datakit line imports `/net`
//! from a CPU server and thereby reaches the server's Ethernet networks.
//!
//! ```text
//! philw-gnot% ls /net
//! /net/cs
//! /net/dk
//! philw-gnot% import -a helix /net
//! philw-gnot% ls /net        # now shows il, tcp, udp, ether0 too
//! ```
//!
//! Run with `cargo run --example import_gateway`.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::MachineBuilder;
use plan9::core::namespace::MAFTER;
use plan9::exportfs::exportfs::exportfs_listener;
use plan9::exportfs::import::import;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;

fn ls_net(p: &plan9::core::proc::Proc, who: &str) {
    println!("{who}% ls /net");
    let mut names: Vec<String> = p
        .ls("/net")
        .expect("ls /net")
        .iter()
        .map(|d| format!("/net/{}", d.name))
        .collect();
    names.sort();
    for n in names {
        println!("{n}");
    }
}

fn main() {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let ndb = "\
sys=helix ip=135.104.9.31 dk=nj/astro/helix proto=il proto=tcp
sys=ai ip=135.104.9.80 dom=ai.mit.edu proto=tcp
sys=philw-gnot dk=nj/astro/philw-gnot
";
    // helix: CPU server with Ethernet *and* Datakit.
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .datakit(&switch, "nj/astro/helix")
        .ndb(ndb)
        .build()
        .expect("boot helix");
    // ai.mit.edu stands in for the far side of the Internet: a telnet
    // server on the same Ethernet.
    let ai = MachineBuilder::new("ai")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0x80], IpConfig::local("135.104.9.80"))
        .ndb(ndb)
        .build()
        .expect("boot ai");
    // The terminal has ONLY a Datakit line.
    let gnot = MachineBuilder::new("philw-gnot")
        .datakit(&switch, "nj/astro/philw-gnot")
        .ndb(ndb)
        .build()
        .expect("boot gnot");

    // A telnet-ish greeter on ai.
    let ap = ai.proc();
    std::thread::spawn(move || {
        let (_afd, adir) = announce(&ap, "tcp!*!telnet").expect("announce telnet");
        loop {
            let Ok((lcfd, ldir)) = listen(&ap, &adir) else { return };
            let Ok(dfd) = accept(&ap, lcfd, &ldir) else { return };
            let _ = ap.write(dfd, b"AI Lab ITS, no password needed\n");
            ap.close(dfd);
            ap.close(lcfd);
        }
    });

    // helix runs the exportfs listener on its Datakit line.
    exportfs_listener(helix.proc(), "dk!*!exportfs", usize::MAX).expect("exportfs listener");

    let p = gnot.proc();
    ls_net(&p, "philw-gnot");

    // import -a helix /net
    println!("\nphilw-gnot% import -a helix /net");
    import(&p, "dk!nj/astro/helix!exportfs", "/net", "/net", MAFTER).expect("import");
    ls_net(&p, "philw-gnot");

    // All the networks connected to helix are now available: telnet to
    // a TCP-only host from a Datakit-only terminal.
    println!("\nphilw-gnot% telnet ai.mit.edu");
    let conn = dial(&p, "tcp!ai.mit.edu!telnet").expect("dial through gateway");
    let banner = p.read(conn.data_fd, 256).expect("read banner");
    print!("{}", String::from_utf8_lossy(&banner));
    println!("(via {})", conn.dir);
    p.close(conn.data_fd);
    p.close(conn.ctl_fd);
    println!("\nimport_gateway: OK");
}
