//! The Internet checksum (RFC 1071), used by the IP, TCP, UDP and IL
//! headers.
//!
//! The one's-complement sum does not care which way round the bytes of
//! a word are read, as long as every word is read the same way and the
//! result is swapped back (RFC 1071 §2(B)), nor how wide the words are
//! (§2(C)). So the kernel adds native-order 32-bit words — a loop the
//! compiler vectorizes — and converts once, at the end.

/// The one's-complement sum of `data`, folded to 16 bits, in native
/// byte order; a trailing odd byte is padded with a zero after it.
fn sum(data: &[u8]) -> u16 {
    // 32-bit addends in 64 bits: no carry is lost in under 16 GiB.
    let mut sum: u64 = 0;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        sum += u32::from_ne_bytes([w[0], w[1], w[2], w[3]]) as u64;
    }
    let mut halves = words.remainder().chunks_exact(2);
    for h in &mut halves {
        sum += u16::from_ne_bytes([h[0], h[1]]) as u64;
    }
    if let [last] = halves.remainder() {
        sum += u16::from_ne_bytes([*last, 0]) as u64;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Computes the checksum of the buffer: the complement of its
/// one's-complement sum, folded to 16 bits.
pub fn internet_checksum(data: &[u8]) -> u16 {
    internet_checksum_gather(&[data])
}

/// The checksum of the concatenation of `parts`, without concatenating
/// them: a transport sums its header and the payload where they lie.
/// A part that starts at an odd offset has its bytes in the other
/// lanes, which for this sum is a swap of its own sum's two bytes.
pub fn internet_checksum_gather(parts: &[&[u8]]) -> u16 {
    let mut total: u32 = 0;
    let mut odd = false;
    for part in parts {
        let s = sum(part);
        total += if odd { s.swap_bytes() } else { s } as u32;
        odd ^= part.len() % 2 == 1;
    }
    let folded = (total & 0xffff) + (total >> 16);
    let folded = (folded & 0xffff) + (folded >> 16);
    !u16::from_be(folded as u16)
}

/// Verifies a buffer whose checksum field is already in place.
///
/// For an even-length buffer the checksum field sits on a 16-bit
/// boundary, so the one's-complement sum over the whole buffer is zero
/// (after complement, `internet_checksum` returns 0).
///
/// An odd-length buffer can only mean the two checksum bytes were
/// appended directly after odd-length data, leaving them *unaligned*:
/// summing the whole buffer would pad at the wrong spot and shift the
/// checksum into the wrong byte lanes, which is exactly the bug the
/// old fold rule had. Re-align instead: the data part is everything
/// but the trailing two bytes (padded with a zero byte by
/// `internet_checksum`'s own remainder rule), and the stored checksum
/// is read as one big-endian word and compared against the recomputed
/// value.
pub fn verify(data: &[u8]) -> bool {
    if data.len().is_multiple_of(2) {
        return internet_checksum(data) == 0;
    }
    if data.len() < 2 {
        return false;
    }
    let (body, trailer) = data.split_at(data.len() - 2);
    let stored = u16::from_be_bytes([trailer[0], trailer[1]]);
    internet_checksum(body) == stored
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference model: RFC 1071 as written, big-endian byte pairs.
    fn reference(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            sum += u16::from_be_bytes([*last, 0]) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Both forms against the model, with the gather form cut in two
    /// at `cut` and in three around it.
    fn agrees(data: &[u8], cut: usize) {
        let want = reference(data);
        assert_eq!(internet_checksum(data), want, "len {}", data.len());
        let (a, b) = data.split_at(cut);
        assert_eq!(internet_checksum_gather(&[a, b]), want, "len {} cut {cut}", data.len());
        let (b, c) = b.split_at(b.len() / 2);
        assert_eq!(internet_checksum_gather(&[a, b, &[], c]), want, "len {} cut {cut}", data.len());
    }

    plan9_support::props! {
        fn prop_every_short_length_matches_the_reference(g, cases = 4) {
            let data = g.bytes(2048..2049);
            for len in 0..=data.len() {
                agrees(&data[..len], g.usize_in(0..len + 1));
            }
        }

        fn prop_long_buffers_match_the_reference(g, cases = 64) {
            // Up to the largest IL datagram, and the all-ones buffer
            // that carries the most.
            let mut data = g.bytes(0..60_019);
            agrees(&data, g.usize_in(0..data.len() + 1));
            data.fill(0xff);
            agrees(&data, g.usize_in(0..data.len() + 1));
        }

        fn prop_gather_splits_at_every_offset(g, cases = 32) {
            let data = g.bytes(0..64);
            for cut in 0..=data.len() {
                agrees(&data, cut);
            }
        }

        fn prop_a_corrupted_buffer_fails_verify(g, cases = 64) {
            let mut pkt = g.bytes(2..1500);
            pkt.extend_from_slice(&internet_checksum(&pkt).to_be_bytes());
            assert!(verify(&pkt));
            let at = g.usize_in(0..pkt.len());
            pkt[at] ^= 1 << g.usize_in(0..8);
            assert!(!verify(&pkt), "flip at {at} of {} went undetected", pkt.len());
        }
    }

    #[test]
    fn rfc1071_example() {
        // The classic example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2
        // before complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn check_then_verify() {
        let mut pkt = vec![0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0, 0];
        let sum = internet_checksum(&pkt);
        pkt[10..12].copy_from_slice(&sum.to_be_bytes());
        assert!(verify(&pkt));
        pkt[0] ^= 1;
        assert!(!verify(&pkt));
    }

    #[test]
    fn odd_length_handled() {
        // Round trip: compute over odd-length data, append, verify.
        for data in [&[1u8, 2, 3][..], &[0xff, 0xff, 0xff, 0xff, 0xff], &[7]] {
            let mut with_sum = data.to_vec();
            let sum = internet_checksum(data);
            with_sum.extend_from_slice(&sum.to_be_bytes());
            assert!(verify(&with_sum), "odd round trip failed for {data:?}");
            // Any single corrupted byte must break verification.
            for i in 0..with_sum.len() {
                let mut bad = with_sum.clone();
                bad[i] ^= 0x5a;
                assert!(!verify(&bad), "corruption at {i} went undetected");
            }
        }
    }

    #[test]
    fn even_length_round_trip_with_appended_sum() {
        let data = [1u8, 2, 3, 4];
        let mut with_sum = data.to_vec();
        let sum = internet_checksum(&data);
        with_sum.extend_from_slice(&sum.to_be_bytes());
        assert!(verify(&with_sum));
        with_sum[1] ^= 0x80;
        assert!(!verify(&with_sum));
    }
}
