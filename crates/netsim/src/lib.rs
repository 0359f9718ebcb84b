//! Simulated physical networks for the Plan 9 reproduction.
//!
//! The paper's system ran on real hardware: LANCE Ethernet boards, the
//! Datakit switch fabric, Cyclone VME fiber cards, UARTs. None of that
//! hardware is available here, so this crate provides in-process
//! simulations that preserve the properties the protocols above them
//! depend on:
//!
//! * **Pacing** — each medium has a bandwidth, a propagation delay, and a
//!   per-frame processing overhead (standing in for 25 MHz-era protocol
//!   processing). Real protocol code executing over a paced medium
//!   reproduces the *shape* of the paper's Table 1.
//! * **Shared-medium semantics** — [`ether`] is a true bus: one
//!   transmission serializes all stations and every station sees every
//!   frame, which is what makes promiscuous mode and packet-type copy
//!   semantics meaningful.
//! * **Circuit semantics** — [`fabric`] is a Datakit-style virtual
//!   circuit switch: calls are dialed by address string, carried in
//!   order, and hung up explicitly.
//! * **Failure injection** — wires can drop, duplicate, corrupt and
//!   reorder frames, so the reliable protocols (IL, TCP, URP) can be
//!   tested against the failures they claim to mask.
//!
//! Calibration profiles live in [`profile`]; the `calibrated` profile is
//! tuned so the Table 1 benchmark lands near the 1993 numbers, and the
//! `fast` profile removes pacing entirely for unit tests and modern-speed
//! measurements.

pub mod cyclone;
pub mod ether;
pub mod fabric;
pub mod profile;
pub mod uart;
pub mod wire;

pub use cyclone::cyclone_link;
pub use ether::{EtherSegment, EtherStation, MacAddr, ETHER_HDR, ETHER_MTU};
pub use fabric::{Circuit, DatakitLine, DatakitSwitch, IncomingCall};
pub use profile::{LinkProfile, Profiles};
pub use uart::{uart_pair, UartEnd};
pub use wire::{wire_pair, Medium, RecvOutcome, WireRx, WireStats, WireTx};

/// Errors from the simulation layer.
pub type SimError = String;

/// Result alias for simulation operations.
pub type Result<T> = std::result::Result<T, SimError>;
