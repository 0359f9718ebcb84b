//! Kernel-resident device file systems.
//!
//! "Each device driver is a kernel-resident file system" (§2.2). The
//! protocol devices all look identical so user programs contain no
//! network-specific code (§2.3); the Ethernet device is the two-level
//! tree of Figure 1; the `eia` device is the pair of files per UART that
//! opens §2.2. Each is a table of files under the one generic layer,
//! [`plan9_ninep::procfs::Dev`], which does the walking.

pub mod eia;
pub mod ether;
pub mod pipedev;
pub mod proto;
pub mod text;

pub use eia::EiaDev;
pub use ether::EtherDev;
pub use pipedev::PipeFs;
pub use proto::{AnnounceOps, ConnOps, ProtoDev, ProtoOps};
pub use text::{TextDev, TextFile};
