//! ARP first contact against an oracle: the datagrams a host sends to a
//! peer whose station address it does not know yet reach the peer once
//! each and in the order they were sent, whether the ARP reply or a
//! frame from the peer teaches the mapping first, or both arrive at
//! one instant; nothing stays parked. A frame's source never
//! overwrites a mapping already known. Every case runs under the
//! virtual clock, in a binary of its own: a virtual run is
//! process-wide, and the crate's unit tests run on the real clock.

use plan9_inet::arp::IP_ETHERTYPE;
use plan9_inet::ip::{encode_ip, IpConfig, IpHeader, IpStack};
use plan9_inet::udp::{encode_udp, UdpSocket, UDP_PROTO};
use plan9_netsim::ether::{EtherSegment, MacAddr};
use plan9_netsim::profile::Profiles;
use plan9_support::{time, vtime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One way across the wire.
const HOP: Duration = Duration::from_millis(2);

const PORT: u16 = 7007;

fn mac(host: u8) -> MacAddr {
    [8, 0, 0x69, 0x39, 0, host]
}

struct Pair {
    seg: Arc<EtherSegment>,
    a: Arc<IpStack>,
    b: Arc<IpStack>,
    sock_a: UdpSocket,
    sock_b: UdpSocket,
}

/// Two hosts that know nothing of each other, one hop apart.
fn pair() -> Pair {
    let mut wire = Profiles::ether_fast();
    wire.propagation = HOP;
    let seg = EtherSegment::new(wire);
    let a = IpStack::new_pooled(seg.attach(mac(1)), IpConfig::local("10.39.0.1"));
    let b = IpStack::new_pooled(seg.attach(mac(2)), IpConfig::local("10.39.0.2"));
    let sock_a = a.udp_module().bind(&a, PORT).expect("bind a");
    let sock_b = b.udp_module().bind(&b, PORT).expect("bind b");
    Pair { seg, a, b, sock_a, sock_b }
}

fn sleep_until(t: Instant) {
    let now = time::now();
    if t > now {
        time::sleep(t - now);
    }
}

/// Everything `sock` is handed until the wire has been quiet a while.
fn drain(sock: &UdpSocket) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    while let Ok((_, _, data)) = sock.recv_timeout(10 * HOP) {
        got.push(data);
    }
    got
}

/// What first tells `a` where `b` is.
#[derive(Clone, Copy, Debug)]
enum Teacher {
    /// The ARP reply to `a`'s request, at two hops.
    Reply,
    /// A datagram `b` sends at this offset, knowing `a` already: at
    /// zero it lands at one hop, before the reply; at one hop it lands
    /// with the reply.
    Data(Duration),
}

/// `a` sends ten datagrams to `b`: four at once, two while the reply
/// is still on its way, four once the mapping must be known.
fn first_contact(teacher: Teacher) {
    let p = pair();
    let t0 = time::now();
    if let Teacher::Data(_) = teacher {
        p.b.arp.learn(p.a.addr(), mac(1));
    }
    let sends = [(Duration::ZERO, 0..4), (3 * HOP / 2, 4..6), (4 * HOP, 6..10)];
    let mut teach = match teacher {
        Teacher::Reply => None,
        Teacher::Data(at) => Some(at),
    };
    for (at, ids) in sends {
        if let Some(when) = teach.filter(|&when| when <= at) {
            sleep_until(t0 + when);
            p.sock_b.send_to(p.a.addr(), PORT, b"from b").expect("b sends");
            teach = None;
        }
        sleep_until(t0 + at);
        for id in ids {
            let msg = format!("datagram {id}");
            p.sock_a.send_to(p.b.addr(), PORT, msg.as_bytes()).expect("a sends");
        }
    }
    let want: Vec<Vec<u8>> = (0..10).map(|id| format!("datagram {id}").into_bytes()).collect();
    assert_eq!(drain(&p.sock_b), want, "{teacher:?}: what b was handed");
    if let Teacher::Data(_) = teacher {
        assert_eq!(drain(&p.sock_a), vec![b"from b".to_vec()], "{teacher:?}");
    }
    assert_eq!(p.a.arp.lookup(p.b.addr()), Some(mac(2)), "{teacher:?}");
    assert_eq!((p.a.arp.held_len(), p.b.arp.held_len()), (0, 0), "{teacher:?}: left parked");
    assert_eq!(p.a.stats.arp_dropped.get(), 0, "{teacher:?}");
}

#[test]
fn the_arp_reply_teaches_the_mapping() {
    let _clock = vtime::enter();
    first_contact(Teacher::Reply);
}

#[test]
fn a_frame_from_the_peer_teaches_the_mapping_before_the_reply() {
    let _clock = vtime::enter();
    first_contact(Teacher::Data(Duration::ZERO));
}

#[test]
fn a_frame_from_the_peer_and_the_reply_arrive_together() {
    let _clock = vtime::enter();
    first_contact(Teacher::Data(HOP));
}

#[test]
fn a_frames_source_never_overwrites_a_known_mapping() {
    let _clock = vtime::enter();
    let p = pair();
    p.sock_a.send_to(p.b.addr(), PORT, b"first").expect("a sends");
    assert_eq!(drain(&p.sock_b), vec![b"first".to_vec()]);
    assert_eq!(p.a.arp.lookup(p.b.addr()), Some(mac(2)));
    // A third station sends `a` a well-formed datagram claiming `b`'s
    // address.
    let liar = p.seg.attach(mac(3));
    let hdr = IpHeader {
        src: p.b.addr(),
        dst: p.a.addr(),
        proto: UDP_PROTO,
        id: 1,
        frag_offset: 0,
        more_frags: false,
    };
    let packet = encode_ip(&hdr, &encode_udp(PORT, PORT, b"spoofed"));
    liar.send(mac(1), IP_ETHERTYPE, &packet).expect("the liar sends");
    assert_eq!(drain(&p.sock_a), vec![b"spoofed".to_vec()], "a takes the datagram");
    assert_eq!(p.a.arp.lookup(p.b.addr()), Some(mac(2)), "the liar's address replaced b's");
    p.sock_a.send_to(p.b.addr(), PORT, b"second").expect("a sends");
    assert_eq!(drain(&p.sock_b), vec![b"second".to_vec()]);
    assert_eq!(p.a.arp.held_len(), 0);
}
