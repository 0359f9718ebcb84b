//! FNV-1a: the kernel's one hash.
//!
//! It names a pool/wheel shard ([`hash`] of what names the thing, so a
//! seeded vtime replay shards identically run after run), and it hashes
//! the small keys of the tables on the frame and RPC paths
//! ([`FnvMap`]): an ARP entry, a datagram being reassembled, a
//! conversation, a 9P tag or fid, a served file's channel or node. A
//! key of a few bytes costs a few multiplies where SipHash costs a
//! keyed setup and its finalization rounds, and the hash is the same
//! in every process, where `RandomState` was seeded per process.
//! Unlike SipHash it does not resist keys chosen to collide.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0100_0000_01b3;

fn step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(PRIME)
}

/// The FNV-1a hash of `bytes`.
pub fn hash(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(OFFSET, step)
}

/// FNV-1a as a [`Hasher`], for [`FnvMap`].
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(OFFSET)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| step(h, b));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by FNV-1a; make one with `FnvMap::default()`.
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hasher_and_the_function_agree_with_the_published_vectors() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(hash([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(*b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), hash(*b"foobar"));
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
