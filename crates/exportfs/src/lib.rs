//! `exportfs` and `import` (§6.1), plus `ftpfs` (§6.2).
//!
//! "Exportfs is a user level file server which allows a piece of name
//! space to be exported from machine to machine across a network. ...
//! The import command calls exportfs on a remote machine, mounts the
//! result in the local name space, and exits."
//!
//! These two commands are the building blocks of gatewaying: `import -a
//! helix /net` makes every network connected to helix available on a
//! terminal that only has a Datakit line.

pub mod cpu;
pub mod exportfs;
pub mod ftpd;
pub mod ftpfs;
pub mod import;

pub use cpu::{cpu, cpu_listener, CpuJob};
pub use exportfs::{exportfs_listener, serve_export, NsFs};
pub use ftpd::FtpServer;
pub use ftpfs::FtpFs;
pub use import::import;

/// Result alias matching the rest of the system.
pub type Result<T> = plan9_ninep::Result<T>;
