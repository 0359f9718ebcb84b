//! Building a `Machine` under the virtual clock. In a binary of its
//! own: a virtual run is process-wide, and `core`'s unit tests run on
//! the real clock.

use plan9::core::machine::MachineBuilder;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9_support::vtime;
use std::time::Duration;

/// An Ethernet interface is serviced on its station's pool shard: it
/// brings no kernel process of its own, so none outlives the machine.
#[test]
fn an_ethernet_interface_adds_no_kproc() {
    let vt = vtime::enter();
    let before = vt.clock().census();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let machine = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .build()
        .expect("boot helix");
    assert!(machine.ether_dev.is_some());
    assert_eq!(vt.clock().census(), before);
}

/// A Datakit line brings one kernel process, parked in the line until a
/// call arrives (it wakes for nothing else), and that process ends with
/// the machine: the dispatcher's drop unplugs the line.
#[test]
fn a_datakit_listener_ends_with_its_machine() {
    let vt = vtime::enter();
    let before = vt.clock().census();
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let machine = MachineBuilder::new("gnot")
        .datakit(&switch, "nj/astro/gnot")
        .build()
        .expect("boot gnot");
    // Let the listener reach its park.
    plan9_support::time::sleep(Duration::from_millis(1));
    assert_eq!(vt.clock().census(), (before.0 + 1, before.1 + 1));
    // A second of nothing to do is no event at all: no 100 ms poll.
    let idle = vt.clock().advances();
    plan9_support::time::sleep(Duration::from_secs(1));
    assert_eq!(vt.clock().advances(), idle + 1);
    drop(machine);
    plan9_support::time::sleep(Duration::from_millis(1));
    assert_eq!(vt.clock().census(), before);
    // The address is free again.
    assert!(switch.attach("nj/astro/gnot").is_ok());
}
