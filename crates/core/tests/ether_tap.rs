//! The Ethernet device's tap against what §2.2 promises: a conversation
//! opened after IP traffic has flowed gets the next frame of its type,
//! and once its last file is clunked the interface's frames are only
//! counted again. Runs under the virtual clock, in a binary of its own:
//! a virtual run is process-wide.

use plan9_core::dev::EtherDev;
use plan9_inet::arp::IP_ETHERTYPE;
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_inet::udp::UdpSocket;
use plan9_netsim::ether::{EtherFrame, EtherSegment, MacAddr};
use plan9_netsim::profile::Profiles;
use plan9_ninep::procfs::{OpenMode, ProcFs, ServeNode};
use plan9_support::vtime;
use std::sync::Arc;

const PORT: u16 = 9009;

fn mac(host: u8) -> MacAddr {
    [8, 0, 0x69, 0x39, 1, host]
}

/// `ether.in` and the conversation count, off the device's stats text.
fn counts(dev: &EtherDev) -> (u64, usize) {
    let text = dev.stats_text();
    let field = |key: &str| -> u64 {
        let line = text.lines().find_map(|l| l.strip_prefix(key));
        line.and_then(|v| v.trim().parse().ok()).unwrap_or_else(|| panic!("no {key} in {text}"))
    };
    (field("ether.in "), field("conversations:") as usize)
}

/// Opens a conversation of packet type `ptype`: its ctl and data files.
fn conversation(dev: &Arc<EtherDev>, ptype: u16) -> [ServeNode; 2] {
    let root = dev.attach("u", "").expect("attach");
    let clone = dev.walk(&root, "clone").expect("walk clone");
    let ctl = dev.open(&clone, OpenMode::RDWR).expect("open clone");
    dev.write(&ctl, 0, format!("connect {ptype}").as_bytes()).expect("connect");
    let id = String::from_utf8(dev.read(&ctl, 0, 16).expect("read ctl")).expect("ctl text");
    let mut data = dev.attach("u", "").expect("attach");
    for elem in [id.as_str(), "data"] {
        data = dev.walk(&data, elem).expect("walk to data");
    }
    [ctl, dev.open(&data, OpenMode::RDWR).expect("open data")]
}

fn send(from: &UdpSocket, to: &IpStack, msg: &[u8]) {
    from.send_to(to.addr(), PORT, msg).expect("udp send");
}

#[test]
fn a_conversation_opened_late_gets_the_next_frame_and_a_clunked_one_none() {
    let _clock = vtime::enter();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let a = IpStack::new_pooled(seg.attach(mac(1)), IpConfig::local("10.39.1.1"));
    let b = IpStack::new_pooled(seg.attach(mac(2)), IpConfig::local("10.39.1.2"));
    let dev = EtherDev::new(&b);
    let sock_a = a.udp_module().bind(&a, 0).expect("bind a");
    let sock_b = b.udp_module().bind(&b, PORT).expect("bind b");
    // IP flows with no conversation open: every frame is counted.
    for i in 0..3 {
        send(&sock_a, &b, format!("before {i}").as_bytes());
        sock_b.recv().expect("b reads");
    }
    let (before, convs) = counts(&dev);
    assert!(before >= 3, "ether.in {before} after three datagrams");
    assert_eq!(convs, 0);

    let [ctl, data] = conversation(&dev, IP_ETHERTYPE);
    assert_eq!(counts(&dev), (before, 1));
    send(&sock_a, &b, b"after open");
    let frame = EtherFrame::decode(&dev.read(&data, 0, 2048).expect("read data")).expect("a frame");
    assert_eq!((frame.ethertype, frame.src), (IP_ETHERTYPE, mac(1)));
    assert!(frame.payload.ends_with(b"after open"), "not the next frame: {:?}", frame.payload);
    assert_eq!(sock_b.recv().expect("b reads").2, b"after open", "IP lost its copy");

    dev.clunk(&data);
    dev.clunk(&ctl);
    let (at_close, convs) = counts(&dev);
    assert_eq!((at_close, convs), (before + 1, 0));
    for i in 0..3 {
        send(&sock_a, &b, format!("after close {i}").as_bytes());
        sock_b.recv().expect("b reads");
    }
    assert_eq!(counts(&dev), (at_close + 3, 0), "frames after the last clunk");
    assert_eq!(dev.unrouted.get(), 0);
}
