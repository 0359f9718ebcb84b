//! The gateway tests' world: three machines, helix on the Ethernet and
//! the Datakit, musca on the Ethernet only, gnot on the Datakit only;
//! and what their tests of a parked read share.

use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::proc::Proc;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;
use std::sync::Arc;

const NDB: &str = "\
sys=helix ip=10.21.0.1 dk=nj/astro/helix proto=il proto=tcp
sys=musca ip=10.21.0.9 proto=tcp
sys=gnot dk=nj/astro/gnot
tcp=cpu port=17013
";

/// helix has ether+dk; musca is ether-only; gnot is dk-only.
pub fn world() -> (Arc<Machine>, Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0, 21, 0, 1], IpConfig::local("10.21.0.1"))
        .datakit(&switch, "nj/astro/helix")
        .ndb(NDB)
        .build()
        .unwrap();
    let musca = MachineBuilder::new("musca")
        .ether(&seg, [8, 0, 0, 21, 0, 9], IpConfig::local("10.21.0.9"))
        .ndb(NDB)
        .build()
        .unwrap();
    let gnot = MachineBuilder::new("gnot")
        .datakit(&switch, "nj/astro/gnot")
        .ndb(NDB)
        .build()
        .unwrap();
    (helix, musca, gnot)
}

/// A UDP conversation on helix, made through an import of its `/` at
/// `/n/helix`: the conversation's number and its open `data` file,
/// which has nothing to read until musca sends.
pub fn imported_udp_conv(p: &Proc) -> (String, i32) {
    let ctl = p.open("/n/helix/net/udp/clone", OpenMode::RDWR).expect("clone");
    let n = String::from_utf8(p.read(ctl, 16).unwrap()).unwrap();
    p.write_str(ctl, "connect 10.21.0.9!4000").expect("connect");
    let data = p.open(&format!("/n/helix/net/udp/{n}/data"), OpenMode::RDWR).expect("data");
    (n, data)
}

/// Waits for a thread that must not be stuck.
pub fn finished_within<T>(h: std::thread::ScopedJoinHandle<'_, T>, secs: u64, what: &str) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while !h.is_finished() {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    h.join().unwrap()
}
