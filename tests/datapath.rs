//! The datapath against an oracle: whatever order, however many times
//! and in whatever state the medium delivers the frames of a datagram,
//! the far side reads the bytes that were sent, or nothing. Every case
//! runs under the virtual clock (so this file is a binary of its own:
//! a virtual run is process-wide), which makes a fragment's five-second
//! lifetime cost nothing and every case a function of its seed.

use plan9::core::dial::dial;
use plan9::core::machine::MachineBuilder;
use plan9::inet::arp::IP_ETHERTYPE;
use plan9::inet::il::IL_MAX_MSG;
use plan9::inet::ip::{encode_ip, IpConfig, IpHeader, IpStack, FRAG_TTL};
use plan9::inet::udp::{encode_udp, UdpSocket, UDP_PROTO};
use plan9::inet::IpAddr;
use plan9::netsim::ether::{EtherSegment, EtherStation, MacAddr, ETHER_HDR};
use plan9::netsim::profile::Profiles;
use plan9_support::check::Gen;
use plan9_support::{time, vtime};
use std::sync::Arc;
use std::time::Duration;

const A_MAC: MacAddr = [8, 0, 0x69, 0x17, 0, 1];
const B_MAC: MacAddr = [8, 0, 0x69, 0x17, 0, 2];
const PORT: u16 = 5001;

/// Runs `f` as a kernel process of a fresh virtual run.
fn under_vtime<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let guard = vtime::enter();
    let out = vtime::kproc("datapath", f).expect("spawn case").join();
    drop(guard);
    out.expect("case panicked")
}

/// A sender and a receiver with the test standing where the wire would
/// be: `a` transmits onto a segment where a pull-mode station answers
/// to `b`'s address, and what the test takes off there it puts, as it
/// likes, onto the segment `b` is really on.
struct CutWire {
    /// Held for `sock_a`, which like every socket holds its stack weakly.
    _a: Arc<IpStack>,
    b: Arc<IpStack>,
    from_a: EtherStation,
    to_b: EtherStation,
    sock_a: UdpSocket,
    sock_b: UdpSocket,
}

impl CutWire {
    fn new() -> CutWire {
        let near = EtherSegment::new(Profiles::ether_fast());
        let far = EtherSegment::new(Profiles::ether_fast());
        assert_eq!(
            near.mtu(),
            1514,
            "the 1500-byte-MTU segment the oracle is about"
        );
        let a = IpStack::new_pooled(near.attach(A_MAC), IpConfig::local("10.23.0.1"));
        let b = IpStack::new_pooled(far.attach(B_MAC), IpConfig::local("10.23.0.2"));
        a.arp.learn(b.addr(), B_MAC);
        CutWire {
            from_a: near.attach(B_MAC),
            to_b: far.attach([8, 0, 0x69, 0x17, 0, 3]),
            sock_a: a.udp_module().bind(&a, 0).expect("bind a"),
            sock_b: b.udp_module().bind(&b, PORT).expect("bind b"),
            _a: a,
            b,
        }
    }

    /// Sends `msg` through `IpStack::send` and takes its frames, in
    /// the order they were transmitted, off the wire.
    fn frames_of(&self, msg: &[u8]) -> Vec<Vec<u8>> {
        self.sock_a.send_to(self.b.addr(), PORT, msg).expect("send");
        let mut frames = Vec::new();
        while let Some(f) = self.from_a.recv_timeout(Duration::from_millis(1)) {
            frames.push(f.encode());
        }
        frames
    }

    fn deliver(&self, frame: &[u8]) {
        self.to_b.send_raw(frame).expect("deliver");
    }

    /// What `b`'s socket has to read within `d`, if anything.
    fn read(&self, d: Duration) -> Option<Vec<u8>> {
        self.sock_b.recv_timeout(d).ok().map(|(_, _, data)| data)
    }
}

/// A permutation of `frames` with some of them repeated.
fn shuffled_with_duplicates(g: &mut Gen, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = frames.to_vec();
    for _ in 0..g.usize_in(0..frames.len() + 1) {
        out.push(frames[g.usize_in(0..frames.len())].clone());
    }
    for i in (1..out.len()).rev() {
        out.swap(i, g.usize_in(0..i + 1));
    }
    out
}

plan9_support::props! {
    /// Fragments in any order, any of them more than once: the datagram
    /// arrives, byte for byte — again, if enough of it was repeated (IP
    /// promises no less), but never as anything else.
    fn prop_fragments_reassemble_in_any_order_with_duplicates(g, cases = 24) {
        // Both ends of the range, then anywhere in it.
        let len = match g.usize_in(0..8) {
            0 => 0,
            1 => IL_MAX_MSG,
            _ => g.usize_in(0..IL_MAX_MSG + 1),
        };
        let msg = g.bytes(len..len + 1);
        let seed = g.u64();
        under_vtime(move || {
            let mut g = Gen::from_seed(seed);
            let w = CutWire::new();
            let frames = w.frames_of(&msg);
            assert_eq!(frames.len(), (msg.len() + 8).div_ceil(1480).max(1));
            for f in shuffled_with_duplicates(&mut g, &frames) {
                w.deliver(&f);
            }
            assert!(w.read(Duration::from_secs(1)).expect("datagram lost") == msg);
            let mut deliveries = 1;
            while let Some(again) = w.read(Duration::from_millis(50)) {
                assert!(again == msg, "a repeat differs from what was sent");
                deliveries += 1;
            }
            if frames.len() > 1 {
                assert_eq!(w.b.stats.reassembled.get(), deliveries);
            }
        });
    }

    /// A datagram short of one fragment delivers nothing, and is not
    /// kept past its time: the fragment that would have completed it
    /// finds nothing to complete.
    fn prop_a_withheld_fragment_delivers_nothing_and_the_rest_expire(g, cases = 12) {
        let msg = g.bytes(1473..IL_MAX_MSG + 1);
        let seed = g.u64();
        under_vtime(move || {
            let mut g = Gen::from_seed(seed);
            let w = CutWire::new();
            let late = g.bool();
            let mut frames = w.frames_of(&msg);
            let withheld = frames.remove(g.usize_in(0..frames.len()));
            for f in shuffled_with_duplicates(&mut g, &frames) {
                w.deliver(&f);
            }
            assert!(w.read(Duration::from_millis(100)).is_none(), "delivered short of a fragment");
            assert_eq!(w.b.stats.reassembled.get(), 0);
            if late {
                time::sleep(FRAG_TTL + Duration::from_millis(1));
                w.deliver(&withheld);
                assert!(w.read(Duration::from_millis(100)).is_none(), "stale fragments were kept");
                assert_eq!(w.b.stats.reassembled.get(), 0);
            } else {
                // In time, the same fragment completes it.
                w.deliver(&withheld);
                assert!(w.read(Duration::from_secs(1)).expect("datagram lost") == msg);
            }
        });
    }

    /// What the medium damages it damages once, for everyone: two
    /// stations on the bus see the same bytes, one byte off what was
    /// sent, and a stack drops them at whichever checksum covers that
    /// byte — or, where none does (the addresses in front), reads what
    /// was sent.
    fn prop_a_corrupted_frame_is_the_same_for_all_and_fails_its_checksum(g, cases = 32) {
        let msg = g.bytes(0..1465);
        let seed = g.u64();
        under_vtime(move || {
            let seg = EtherSegment::new(Profiles::ether_fast().with_corrupt(1.0).with_seed(seed));
            let b = IpStack::new_pooled(seg.attach(B_MAC), IpConfig::local("10.23.0.2"));
            let sock_b = b.udp_module().bind(&b, PORT).expect("bind");
            let (sender, one, other) =
                (seg.attach(A_MAC), seg.attach([8, 0, 0x69, 0x17, 0, 3]), seg.attach([8, 0, 0x69, 0x17, 0, 4]));
            let hdr = IpHeader {
                src: IpAddr::new(10, 23, 0, 1),
                dst: b.addr(),
                proto: UDP_PROTO,
                id: 1,
                frag_offset: 0,
                more_frags: false,
            };
            let packet = encode_ip(&hdr, &encode_udp(9, PORT, &msg));
            sender.send(B_MAC, IP_ETHERTYPE, &packet).expect("send");

            let seen = one.recv().expect("first witness").encode();
            assert_eq!(other.recv().expect("second witness").encode(), seen);
            let mut sent = [&B_MAC[..], &A_MAC, &IP_ETHERTYPE.to_be_bytes(), &packet].concat();
            let at = (0..sent.len()).find(|&i| sent[i] != seen[i]).expect("frame came through clean");
            sent[at] ^= 0xff;
            assert_eq!(sent, seen, "damaged in more than one place");

            let got = sock_b.recv_timeout(Duration::from_millis(100)).ok().map(|(_, _, d)| d);
            let (ip_err, udp_err) = (b.stats.rx_errors.get(), b.udp_module().csum_errors.get());
            match at {
                // Source address: nothing that is checked, or read.
                6..12 => assert!(got.expect("intact datagram dropped") == msg),
                // Destination or type: not for this stack at all.
                0..ETHER_HDR => assert_eq!((got, ip_err, udp_err), (None, 0, 0)),
                _ if at < ETHER_HDR + 20 => assert_eq!((got, ip_err, udp_err), (None, 1, 0)),
                _ => assert_eq!((got, ip_err, udp_err), (None, 0, 1)),
            }
        });
    }
}

/// A write to `/net/udp/N/data` larger than IP can carry fails, and
/// puts nothing on the wire; the largest that fits arrives whole.
#[test]
fn an_oversize_udp_write_is_refused() {
    under_vtime(|| {
        let seg = EtherSegment::new(Profiles::ether_fast());
        let ndb = "sys=a ip=10.23.1.1\nsys=b ip=10.23.1.2\n";
        let boot = |name: &str, mac, ip| {
            MachineBuilder::new(name)
                .ether(&seg, mac, IpConfig::local(ip))
                .ndb(ndb)
                .build()
                .expect("boot")
        };
        let (a, b) = (boot("a", A_MAC, "10.23.1.1"), boot("b", B_MAC, "10.23.1.2"));
        let stack_b = b.ip.as_ref().expect("b has an interface");
        let sock_b = stack_b.udp_module().bind(stack_b, PORT).expect("bind");
        let p = a.proc();
        let conn = dial(&p, &format!("udp!10.23.1.2!{PORT}")).expect("dial");

        // First contact, so that ARP's two frames are behind us.
        p.write(conn.data_fd, b"hello").expect("write");
        assert_eq!(
            sock_b
                .recv_timeout(Duration::from_secs(1))
                .expect("hello")
                .2,
            b"hello"
        );
        let sent = || seg.medium().stats().sent.get();
        let before = sent();

        for len in [70_000, 65_508] {
            let err = p
                .write(conn.data_fd, &vec![0x42; len])
                .expect_err("oversize write went out");
            assert!(
                err.0.contains("too large") || err.0.contains("exceeds"),
                "{err}"
            );
        }
        assert_eq!(sent(), before, "a refused datagram reached the wire");

        let most: Vec<u8> = (0..65_507u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            p.write(conn.data_fd, &most).expect("largest datagram"),
            most.len()
        );
        assert!(
            sock_b
                .recv_timeout(Duration::from_secs(1))
                .expect("largest datagram lost")
                .2
                == most
        );
        assert_eq!(sent(), before + 65_515u64.div_ceil(1480));
    });
}
