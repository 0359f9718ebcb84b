//! The four packet decoders against hostile input: arbitrary bytes, and
//! valid packets truncated, with a bit flipped, or with a length or
//! offset that lies (resealed, so that the checksum does not catch the
//! lie first). A decoder never panics, and returns `None` for whatever
//! its checksum or its length check must refuse; what it accepts lies
//! within the bytes it was given.

use plan9_inet::checksum::internet_checksum;
use plan9_inet::il::{decode_il, encode_il, IlPacket, IlType, IL_HDR};
use plan9_inet::ip::{decode_ip, encode_ip, IpHeader, IP_HDR};
use plan9_inet::tcp::{decode_segment, TCP_HDR};
use plan9_inet::udp::{decode_udp, encode_udp, UDP_HDR};
use plan9_inet::IpAddr;
use plan9_support::buf::Bytes;
use plan9_support::check::Gen;
use std::ops::Range;

/// What a case does to a valid packet.
enum Harm {
    /// Cuts it short by at least one byte.
    Truncate,
    /// Flips one bit of what its checksum covers.
    Flip,
    /// Makes its length or offset field point past the end, or inside
    /// its own header.
    Lie,
}

fn harm(g: &mut Gen) -> Harm {
    [Harm::Truncate, Harm::Flip, Harm::Lie].into_iter().nth(g.usize_in(0..3)).unwrap()
}

/// Writes the checksum of `covered` into `at`, as the sender would.
fn reseal(b: &mut [u8], at: usize, covered: Range<usize>) {
    b[at..at + 2].fill(0);
    let sum = internet_checksum(&b[covered]);
    b[at..at + 2].copy_from_slice(&sum.to_be_bytes());
}

/// A length that is a lie about `b`: past its end, or short of a header.
fn lie(g: &mut Gen, b: &[u8], hdr: usize) -> u16 {
    if g.bool() && b.len() < 0xffff {
        g.u16_in(b.len() as u16 + 1..0xffff)
    } else {
        g.u16_in(0..hdr as u16)
    }
}

fn flip(g: &mut Gen, b: &mut [u8], covered: Range<usize>) {
    let at = g.usize_in(covered);
    b[at] ^= 1 << g.usize_in(0..8);
}

fn truncate(g: &mut Gen, b: &mut Vec<u8>) {
    b.truncate(g.usize_in(0..b.len()));
}

fn il_packet(g: &mut Gen) -> Vec<u8> {
    let types = [IlType::Sync, IlType::Data, IlType::Ack, IlType::Query, IlType::State, IlType::Close];
    encode_il(&IlPacket {
        typ: types[g.usize_in(0..types.len())],
        src: g.u16(),
        dst: g.u16(),
        id: g.u32(),
        ack: g.u32(),
        payload: g.bytes(0..600),
    })
}

fn ip_packet(g: &mut Gen) -> Vec<u8> {
    let hdr = IpHeader {
        src: IpAddr(g.u32()),
        dst: IpAddr(g.u32()),
        proto: g.u8(),
        id: g.u16(),
        frag_offset: g.u16_in(0..0x2000),
        more_frags: g.bool(),
    };
    encode_ip(&hdr, &g.bytes(0..1480))
}

/// A segment with a header of five words, as TCP here writes them.
fn tcp_segment(g: &mut Gen) -> Vec<u8> {
    let mut b = vec![0u8; TCP_HDR];
    b[0..12].copy_from_slice(&g.bytes(12..13));
    b[12..14].copy_from_slice(&((5u16 << 12) | (g.u16() & 0x3f)).to_be_bytes());
    b[14..16].copy_from_slice(&g.u16().to_be_bytes());
    b.extend(g.bytes(0..1460));
    let end = b.len();
    reseal(&mut b, 16, 0..end);
    b
}

plan9_support::props! {
    fn prop_decode_il_refuses_what_it_must(g, cases = 512) {
        let junk = g.bytes(0..64);
        if let Some(p) = decode_il(&junk) {
            assert!(IL_HDR + p.payload.len() <= junk.len());
        }
        let mut b = il_packet(g);
        assert!(decode_il(&b).is_some(), "a valid packet refused");
        match harm(g) {
            Harm::Truncate => truncate(g, &mut b),
            Harm::Flip => {
                let end = b.len();
                flip(g, &mut b, 0..end)
            }
            Harm::Lie => {
                let len = lie(g, &b, IL_HDR);
                b[2..4].copy_from_slice(&len.to_be_bytes());
                let end = b.len().min(len as usize);
                reseal(&mut b, 0, 0..end.max(2));
            }
        }
        assert!(decode_il(&b).is_none(), "{} bytes accepted", b.len());
    }

    fn prop_decode_ip_refuses_what_it_must(g, cases = 512) {
        let junk = g.bytes(0..64);
        if let Some((_, payload)) = decode_ip(&junk) {
            assert!(IP_HDR + payload.len() <= junk.len());
        }
        let mut b = ip_packet(g);
        assert!(decode_ip(&b).is_some(), "a valid packet refused");
        match harm(g) {
            Harm::Truncate => truncate(g, &mut b),
            // The header checksum covers the header alone: the payload
            // is the transport's to check.
            Harm::Flip => flip(g, &mut b, 0..IP_HDR),
            Harm::Lie => {
                let total = lie(g, &b, IP_HDR);
                b[2..4].copy_from_slice(&total.to_be_bytes());
                reseal(&mut b, 10, 0..IP_HDR);
            }
        }
        assert!(decode_ip(&b).is_none(), "{} bytes accepted", b.len());
    }

    fn prop_decode_udp_refuses_what_it_must(g, cases = 512) {
        let junk = g.bytes(0..32);
        if let Some((_, _, payload)) = decode_udp(&junk) {
            assert!(UDP_HDR + payload.len() <= junk.len());
        }
        let mut b = encode_udp(g.u16(), g.u16(), &g.bytes(0..1472));
        assert!(decode_udp(&b).is_some(), "a valid datagram refused");
        match harm(g) {
            Harm::Truncate => truncate(g, &mut b),
            Harm::Flip => {
                let end = b.len();
                flip(g, &mut b, 0..end)
            }
            Harm::Lie => {
                let len = lie(g, &b, UDP_HDR);
                b[4..6].copy_from_slice(&len.to_be_bytes());
                let end = b.len();
                reseal(&mut b, 6, 0..end);
            }
        }
        assert!(decode_udp(&b).is_none(), "{} bytes accepted", b.len());
    }

    /// A segment has no length field: one cut short is refused by its
    /// checksum, unless what was cut sums to nothing, and then it reads
    /// as a prefix of itself. Its data offset is the one field that can
    /// point past its end.
    fn prop_decode_segment_refuses_what_it_must(g, cases = 512) {
        let junk = g.bytes(0..64);
        if let Some(s) = decode_segment(Bytes::from(junk.clone())) {
            assert!(TCP_HDR + s.payload.len() <= junk.len());
        }
        let mut b = tcp_segment(g);
        let whole = decode_segment(Bytes::from(b.clone())).expect("a valid segment refused");
        match harm(g) {
            Harm::Truncate => {
                truncate(g, &mut b);
                if let Some(s) = decode_segment(Bytes::from(b.clone())) {
                    assert_eq!((s.sport, s.dport, s.seq, s.ack), (whole.sport, whole.dport, whole.seq, whole.ack));
                    assert!(whole.payload.starts_with(&s.payload));
                }
                return;
            }
            Harm::Flip => {
                let end = b.len();
                flip(g, &mut b, 0..end)
            }
            Harm::Lie => {
                let words = if g.bool() { g.u16_in(0..5) } else { (b.len() / 4 + 1).min(15) as u16 };
                if (words as usize) * 4 <= b.len() && words >= 5 {
                    return;
                }
                b[12] = (b[12] & 0x0f) | ((words as u8) << 4);
                let end = b.len();
                reseal(&mut b, 16, 0..end);
            }
        }
        assert!(decode_segment(Bytes::from(b.clone())).is_none(), "{} bytes accepted", b.len());
    }
}
