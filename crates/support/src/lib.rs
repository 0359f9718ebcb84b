//! The in-tree support layer: the small slice of general-purpose
//! machinery the other crates need, owned here so the workspace builds
//! hermetically — offline, deterministically, on a clean checkout with
//! an empty registry cache.
//!
//! The paper's IL protocol is 847 lines *because* it owns its
//! primitives; in the same spirit this crate replaces every registry
//! dependency the workspace used to pull:
//!
//! | module    | replaces          | surface                                  |
//! |-----------|-------------------|------------------------------------------|
//! | [`sync`]  | `parking_lot`     | no-poison `Mutex` and `Condvar`          |
//! | [`chan`]  | `crossbeam`       | bounded/unbounded mpmc channels          |
//! | [`rng`]   | `rand`            | seedable `SmallRng` (splitmix64)         |
//! | [`buf`]   | `bytes`           | shared `Bytes` views of one allocation   |
//! | [`check`] | `proptest`        | property-test runner + [`props!`] macro  |
//! | [`json`]  | `serde_json`      | string quoting for hand-rolled emitters  |
//!
//! [`fnv`] is the kernel's one hash, for shard keys and the tables on
//! the frame and RPC paths.
//!
//! Three modules are boundaries rather than replacements: [`time`] is
//! the workspace's only legal clock read (wall *and* monotonic),
//! [`vtime`] is the pluggable discrete-event virtual clock behind it,
//! and [`lockdep`] (debug builds only) order-checks every lock built
//! with [`sync::Mutex::named`]. The `plan9-check` scanner enforces the
//! clock boundaries statically.
//!
//! Everything here sits on `std` alone.

pub mod buf;
pub mod chan;
pub mod check;
pub mod copysite;
pub mod fnv;
pub mod json;
#[cfg(debug_assertions)]
pub mod lockdep;
pub mod pool;
pub mod rng;
pub mod step;
pub mod sync;
pub mod time;
pub mod vtime;
pub mod wheel;

/// The runtime lock-order graph in the `/net/log/lockgraph` text
/// format (`class …` / `edge …` lines), or a one-line marker in
/// release builds, where lockdep is compiled out. This is the dump
/// `plan9-check` cross-checks its static lock-order edges
/// against.
pub fn lockgraph_dump() -> String {
    #[cfg(debug_assertions)]
    {
        lockdep::graph_dump()
    }
    #[cfg(not(debug_assertions))]
    {
        "# lockdep: disabled (release build)\n".to_string()
    }
}
