//! Byte buffers: the small slice of the `bytes` crate surface the
//! datapath wants — frozen shared [`Bytes`] views backed by one
//! allocation.
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

static FROM_SLICE_SITE: Site = Site::new("buf.from_slice");

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
        FROM_SLICE_SITE.record(src.len());
        Bytes::from(src.to_vec())
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
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
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
    fn views_share_storage() {
        let frozen = Bytes::copy_from_slice(b"abcdef");
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
        assert!(Bytes::default().is_empty());
    }
}
