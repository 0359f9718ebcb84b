//! The Internet protocol suite of the Plan 9 reproduction: IP (with ARP
//! and fragmentation) over simulated Ethernet, and the three transport
//! protocols the paper's protocol devices expose — **UDP**, **TCP** and
//! **IL** (§2.3, §3).
//!
//! IL is the paper's contribution: "a lightweight protocol designed to be
//! encapsulated by IP ... a connection-based protocol providing reliable
//! transmission of sequenced messages between machines." The design
//! points reproduced here:
//!
//! * reliable **datagram** service with sequenced delivery (delimiters
//!   are preserved — unlike TCP, which is why 9P prefers IL);
//! * runs over IP (protocol number 40);
//! * a small outstanding-message window instead of flow control;
//! * **no blind retransmission**: a timeout sends a small *query*
//!   message, the peer answers with its *state*, and only the messages
//!   the peer is actually missing are retransmitted — well-behaved in
//!   congested networks;
//! * **adaptive timeouts** from a round-trip timer, so the protocol
//!   performs well on both the Internet and local Ethernets.
//!
//! TCP here is the deliberately heavier baseline: three-way handshake,
//! byte-stream (no delimiters), sliding window, and go-back-N *blind*
//! retransmission on timeout. The benches in `plan9-bench` compare the
//! two under loss, reproducing the paper's §3 argument.

pub mod addr;
pub mod arp;
pub mod checksum;
mod conv;
pub mod il;
pub mod ip;
pub mod nine;
pub mod tcp;
pub mod udp;

pub use addr::IpAddr;
pub use conv::Listener;
pub use il::{IlConn, IlListener, IL_PROTO};
pub use ip::{IpConfig, IpStack};
pub use tcp::{TcpConn, TcpListener, TCP_PROTO};
pub use udp::{UdpSocket, UDP_PROTO};

/// Errors from the protocol suite; string-based like the rest of the
/// system so they can travel through 9P error replies unchanged.
pub type NetError = plan9_ninep::NineError;

/// Result alias for protocol operations.
pub type Result<T> = std::result::Result<T, NetError>;
