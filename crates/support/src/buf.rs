//! Byte buffers: the small slice of the `bytes` crate surface that
//! protocol codecs want — append-only integer/slice writers on
//! [`BytesMut`], cursor-style readers, cheap splitting, and frozen
//! shared [`Bytes`] views backed by one allocation.
//!
//! [`Bytes`] is the datapath's one shared-bytes type: a frame on the
//! wire, the slices of it that IP and the transports pass up, and the
//! message an IL sender retains until it is acknowledged are all views
//! of a `Vec<u8>` that was filled once and then frozen — taking
//! ownership of a `Vec` never copies it.

use crate::copysite::Site;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

static SPLIT_SITE: Site = Site::new("buf.split");
static FROM_SLICE_SITE: Site = Site::new("buf.from_slice");

/// A growable byte buffer with a read cursor.
///
/// Writers append with the `put_*` methods; readers consume from the
/// front with the `get_*` methods and [`BytesMut::advance`]. `Deref`
/// exposes the unread remainder as a `&[u8]`.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    read: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
            read: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.read
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Alias for [`BytesMut::remaining`], matching slice naming.
    pub fn len(&self) -> usize {
        self.remaining()
    }

    /// Appends a byte slice.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Consumes and discards `n` bytes from the front.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "advance past end of buffer");
        self.read += n;
    }

    /// Consumes one byte; `None` when empty.
    pub fn get_u8(&mut self) -> Option<u8> {
        let v = *self.as_slice().first()?;
        self.read += 1;
        Some(v)
    }

    /// Splits off and returns the first `n` unread bytes as a new
    /// buffer, consuming them from `self`.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.remaining(), "split_to past end of buffer");
        SPLIT_SITE.record(n);
        let head = self.as_slice()[..n].to_vec();
        self.read += n;
        BytesMut {
            data: head,
            read: 0,
        }
    }

    /// Freezes the unread remainder into an immutable, cheaply
    /// cloneable [`Bytes`]; the storage moves, nothing is copied.
    pub fn freeze(self) -> Bytes {
        let end = self.data.len();
        Bytes {
            data: Arc::new(self.data),
            start: self.read,
            end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.read..]
    }
}

macro_rules! impl_int_put_get {
    ($($t:ty => $put_be:ident $put_le:ident $get_be:ident $get_le:ident),+ $(,)?) => {$(
        impl BytesMut {
            /// Appends the integer in big-endian (network) order.
            pub fn $put_be(&mut self, v: $t) {
                self.data.extend_from_slice(&v.to_be_bytes());
            }
            /// Appends the integer in little-endian order.
            pub fn $put_le(&mut self, v: $t) {
                self.data.extend_from_slice(&v.to_le_bytes());
            }
            /// Consumes a big-endian integer; `None` if too few bytes remain.
            pub fn $get_be(&mut self) -> Option<$t> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes: [u8; N] = self.as_slice().get(..N)?.try_into().ok()?;
                self.read += N;
                Some(<$t>::from_be_bytes(bytes))
            }
            /// Consumes a little-endian integer; `None` if too few bytes remain.
            pub fn $get_le(&mut self) -> Option<$t> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes: [u8; N] = self.as_slice().get(..N)?.try_into().ok()?;
                self.read += N;
                Some(<$t>::from_le_bytes(bytes))
            }
        }
    )+};
}

impl_int_put_get! {
    u16 => put_u16 put_u16_le get_u16 get_u16_le,
    u32 => put_u32 put_u32_le get_u32 get_u32_le,
    u64 => put_u64 put_u64_le get_u64 get_u64_le,
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> BytesMut {
        FROM_SLICE_SITE.record(src.len());
        BytesMut {
            data: src.to_vec(),
            read: 0,
        }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> BytesMut {
        BytesMut { data, read: 0 }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:02x?})", self.as_slice())
    }
}

/// An immutable view into shared byte storage. Cloning and slicing are
/// O(1): every view holds the same `Arc` allocation, which is freed
/// when the last view of it is dropped.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a view over a copy of `src`.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        BytesMut::from(src).freeze()
    }

    /// Length of this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this view, sharing the same storage.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `data` without copying it.
    fn from(data: Vec<u8>) -> Bytes {
        BytesMut::from(data).freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:02x?})", &**self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip_mixed_endian() {
        let mut b = BytesMut::new();
        b.put_u8(0x7f);
        b.put_u16(0xbeef);
        b.put_u32_le(0xdead_beef);
        b.put_u64(42);
        b.put_slice(b"tail");
        assert_eq!(b.get_u8(), Some(0x7f));
        assert_eq!(b.get_u16(), Some(0xbeef));
        assert_eq!(b.get_u32_le(), Some(0xdead_beef));
        assert_eq!(b.get_u64(), Some(42));
        assert_eq!(&*b, b"tail");
        assert_eq!(b.get_u64(), None, "short reads must not consume");
        assert_eq!(b.remaining(), 4);
    }

    #[test]
    fn split_and_advance() {
        let mut b = BytesMut::from(&b"hello world"[..]);
        let head = b.split_to(5);
        assert_eq!(&*head, b"hello");
        b.advance(1);
        assert_eq!(&*b, b"world");
    }

    #[test]
    fn freeze_shares_storage() {
        let mut b = BytesMut::new();
        b.put_slice(b"abcdef");
        let frozen = b.freeze();
        let mid = frozen.slice(2..4);
        assert_eq!(&*mid, b"cd");
        assert_eq!(frozen.len(), 6);
        assert!(mid == *b"cd".as_slice());
        assert_eq!(mid, b"cd");
    }

    #[test]
    fn freezing_moves_the_storage() {
        // The datapath's premise: a filled `Vec` becomes shared bytes,
        // and a view of them a sub-view, without its bytes moving.
        let v = b"header|payload".to_vec();
        let at = v.as_ptr();
        let wire = Bytes::from(v);
        assert_eq!(wire.as_ptr(), at);
        let payload = wire.slice(7..14).slice(0..3);
        assert_eq!(payload, b"pay");
        assert_eq!(payload.as_ptr(), at.wrapping_add(7));
        // A consumed prefix stays behind the view.
        let mut b = BytesMut::from(b"xxbody".to_vec());
        b.advance(2);
        assert_eq!(b.freeze(), b"body");
        assert!(Bytes::default().is_empty());
    }
}
