//! Datakit support: the URP protocol over virtual circuits.
//!
//! The paper's hierarchy of networks (§1) uses Datakit [Fra80] for the
//! AT&T backbone and medium-speed fan-out, with the **URP** protocol
//! device (`/net/dk`) providing "Datakit conversations" as streams
//! (§2.3, §2.4). The simulated switch fabric lives in `plan9-netsim`;
//! this crate implements URP — the Universal Receiver Protocol — on top
//! of raw circuits: windowed, sequenced, error-recovering transmission
//! with message delimiters, which is what 9P needs from a transport.

mod nine;
pub mod urp;

pub use urp::{urp_dial, UrpConn, UrpListener, URP_WINDOW};

/// Result alias matching the rest of the system.
pub type Result<T> = std::result::Result<T, plan9_ninep::NineError>;
