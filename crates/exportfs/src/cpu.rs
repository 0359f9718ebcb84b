//! The `cpu` service (§6).
//!
//! "The cpu service is analogous to rlogin. However, rather than
//! emulating a terminal session across the network, cpu creates a
//! process on the remote machine whose name space is an analogue of the
//! window in which it was invoked. Exportfs ... is used by the cpu
//! command to serve the files in the terminal's name space when they are
//! accessed from the cpu server."
//!
//! The protocol here:
//!
//! 1. The terminal dials `net!server!cpu`.
//! 2. The terminal sends the subtree it offers (conventionally `/`).
//! 3. The CPU server creates a process, mounts the *terminal's* name
//!    space at `/mnt/term` through the same connection (the terminal
//!    runs exportfs over it), and runs the submitted job.
//! 4. The job does its terminal I/O through `/mnt/term/...`, exactly as
//!    Plan 9's cpu does with `/mnt/term/dev/cons`.

use crate::exportfs::serve_ns;
use plan9_core::dial::{dial, framed, serve_calls, Service};
use plan9_core::namespace::MREPL;
use plan9_core::proc::Proc;
use plan9_ninep::{NineError, Result};
use std::sync::Arc;

/// The job a CPU server runs for each incoming session. The process's
/// name space has the caller's tree at `/mnt/term`.
pub type CpuJob = Arc<dyn Fn(&Proc) + Send + Sync>;

/// Announces the `cpu` service and serves `max_sessions` sessions, each
/// in its own process running `job`.
pub fn cpu_listener(
    p: Proc,
    addr: &str,
    job: CpuJob,
    max_sessions: usize,
) -> Result<Service> {
    serve_calls(p, addr, max_sessions, "cpu", move |p, fd, framed| {
        let _ = cpu_session(&p, fd, framed, &job);
    })
}

/// One CPU-server session on an accepted descriptor.
fn cpu_session(p: &Proc, dfd: i32, framed: bool, job: &CpuJob) -> Result<()> {
    // Step 2 of the protocol: the terminal names the tree it serves.
    let offered = p.read(dfd, 256)?;
    let offered =
        String::from_utf8(offered).map_err(|_| NineError::new("cpu: bad offer"))?;
    p.write(dfd, b"OK")?;
    // Step 3: mount the terminal's tree — 9P flows back down the same
    // wire to the exportfs the terminal is running.
    p.mount_fd(dfd, "", "/mnt/term", MREPL, framed)?;
    let _ = offered;
    // Step 4: run the job in this process.
    job(p);
    Ok(())
}

/// The terminal side: dials the CPU server, offers `served_base` of its
/// own name space, and serves it until the remote session ends.
///
/// Blocks for the life of the session, like running `cpu` in a window.
pub fn cpu(p: &Proc, dest: &str, served_base: &str) -> Result<()> {
    let conn = dial(p, dest)?;
    let framed = framed(&conn.dir);
    p.write(conn.data_fd, served_base.as_bytes())?;
    // No more than the two bytes: TCP keeps no delimiters, and the
    // server's first 9P message may already be queued behind them.
    let reply = p.read(conn.data_fd, 2)?;
    if reply != b"OK" {
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
        return Err(NineError::new("cpu: refused"));
    }
    // Serve our name space over the connection (the exportfs role).
    let r = serve_ns(p, conn.data_fd, served_base, framed);
    p.close(conn.data_fd);
    p.close(conn.ctl_fd);
    r
}
