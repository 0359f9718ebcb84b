//! A minimal property-test runner.
//!
//! Each property is an ordinary function over a [`Gen`], run for a
//! fixed number of cases with deterministic per-case seeds. On failure
//! the runner prints the case's seed so the exact inputs can be
//! replayed with `P9_CHECK_SEED=<seed>`; `P9_CHECK_CASES=<n>` scales
//! every property's case count (e.g. in a long-running CI lane).
//!
//! The [`props!`](crate::props) macro turns properties into `#[test]`
//! functions:
//!
//! ```
//! plan9_support::props! {
//!     fn prop_reverse_involutes(g, cases = 32) {
//!         let v = g.vec(0..20, |g| g.u8());
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(v, w);
//!     }
//! }
//! ```

use crate::rng::SmallRng;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The input source handed to each property case: a seeded [`SmallRng`]
/// plus generator combinators for the shapes tests need.
pub struct Gen {
    rng: SmallRng,
}

impl Gen {
    /// Creates a generator from a case seed.
    pub fn from_seed(seed: u64) -> Gen {
        Gen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// An arbitrary `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// An arbitrary `u32`.
    pub fn u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    /// An arbitrary `u16`.
    pub fn u16(&mut self) -> u16 {
        (self.rng.next_u64() >> 48) as u16
    }

    /// An arbitrary `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    /// An arbitrary `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A `usize` drawn uniformly from `range`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.rng.gen_range(range)
    }

    /// A `u16` drawn uniformly from `range`.
    pub fn u16_in(&mut self, range: Range<u16>) -> u16 {
        self.rng.gen_range(range)
    }

    /// A `u32` drawn uniformly from `range`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.rng.gen_range(range)
    }

    /// An `f64` drawn uniformly from `range`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        self.rng.gen_range(range)
    }

    /// A byte vector whose length is drawn from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.usize_in(len);
        let mut v = vec![0u8; n];
        self.rng.fill_bytes(&mut v);
        v
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A string whose length is drawn from `len` and whose characters
    /// come uniformly from `alphabet`.
    pub fn string_of(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        assert!(!chars.is_empty(), "string_of: empty alphabet");
        let n = self.usize_in(len);
        (0..n)
            .map(|_| chars[self.rng.gen_range(0..chars.len())])
            .collect()
    }
}

/// Runs `cases` seeded cases of the property `f`, printing a replayable
/// seed on failure. Honors `P9_CHECK_CASES` and `P9_CHECK_SEED`.
pub fn run<F: Fn(&mut Gen)>(name: &str, cases: u32, f: F) {
    if let Ok(seed) = std::env::var("P9_CHECK_SEED") {
        let seed: u64 = seed.parse().expect("P9_CHECK_SEED must be a u64");
        let mut g = Gen::from_seed(seed);
        f(&mut g);
        return;
    }
    let cases = std::env::var("P9_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    for case in 0..cases {
        // A fixed base keeps runs reproducible; hashing in the name
        // decorrelates properties that share a case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let seed = h.wrapping_add(case as u64);
        let mut g = Gen::from_seed(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| f(&mut g))) {
            eprintln!("property {name} failed at case {case}; replay with P9_CHECK_SEED={seed}");
            resume_unwind(panic);
        }
    }
}

/// Declares property tests: each `fn name(g, cases = N) { .. }` becomes
/// a `#[test]` that calls [`check::run`](run) with a fresh [`Gen`].
#[macro_export]
macro_rules! props {
    ($($(#[$attr:meta])* fn $name:ident($g:ident, cases = $cases:expr) $body:block)+) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                $crate::check::run(stringify!($name), $cases, |$g: &mut $crate::check::Gen| $body);
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values() {
        let mut a = Gen::from_seed(42);
        let mut b = Gen::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        assert_eq!(a.bytes(5..50), b.bytes(5..50));
        assert_eq!(a.string_of("xyz", 1..9), b.string_of("xyz", 1..9));
    }

    #[test]
    fn string_of_respects_alphabet_and_length() {
        let mut g = Gen::from_seed(7);
        for _ in 0..200 {
            let s = g.string_of("abc", 2..6);
            assert!((2..6).contains(&s.len()));
            assert!(s.chars().all(|c| "abc".contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_propagate() {
        run("always_fails", 3, |_g| panic!("deliberate"));
    }

    props! {
        fn prop_macro_defines_runnable_test(g, cases = 8) {
            let v = g.vec(1..10, |g| g.u16());
            assert!((1..10).contains(&v.len()));
        }
    }
}
