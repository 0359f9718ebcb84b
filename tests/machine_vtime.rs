//! Building a `Machine` under the virtual clock. In a binary of its
//! own: a virtual run is process-wide, and `core`'s unit tests run on
//! the real clock.

use plan9::core::machine::MachineBuilder;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9_support::vtime;

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
