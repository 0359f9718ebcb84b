//! The §5 library routines: `dial`, `announce`, `listen`, `accept`,
//! `reject`, and the §5.2 loop that strings the last four together
//! under every service ([`serve_calls`]).
//!
//! "The dance is straightforward but tedious. Library routines are
//! provided to relieve the programmer of the details." Each routine is a
//! few file operations on the protocol devices, guided by the connection
//! server.

use crate::namespace::clean_path;
use crate::proc::Proc;
use plan9_ninep::procfs::OpenMode;
use plan9_ninep::{NineError, Result};
use plan9_support::vtime::{self, KprocHandle};
use std::sync::Arc;

/// The result of a successful [`dial`].
pub struct DialResult {
    /// An open descriptor for the `data` file of the connection.
    pub data_fd: i32,
    /// The path of the protocol directory representing this connection
    /// (the paper's `dir` output argument).
    pub dir: String,
    /// An open descriptor for the `ctl` file (the paper's `cfdp`).
    pub ctl_fd: i32,
}

/// Normalizes a destination like Plan 9's `netmkaddr`: a bare host
/// becomes `net!host!svc`.
pub fn netmkaddr(dest: &str, defnet: &str, defsvc: &str) -> String {
    let bangs = dest.matches('!').count();
    match bangs {
        0 => {
            if defsvc.is_empty() {
                format!("{defnet}!{dest}")
            } else {
                format!("{defnet}!{dest}!{defsvc}")
            }
        }
        1 => {
            if defsvc.is_empty() {
                dest.to_string()
            } else {
                format!("{dest}!{defsvc}")
            }
        }
        _ => dest.to_string(),
    }
}

/// Asks the connection server to translate a symbolic name; returns
/// `(clone file, dial string)` pairs.
pub fn cs_translate(p: &Proc, dest: &str) -> Result<Vec<(String, String)>> {
    let fd = p.open("/net/cs", OpenMode::RDWR)?;
    let r = (|| {
        p.write_str(fd, dest)?;
        p.seek(fd, 0)?;
        let mut out = Vec::new();
        loop {
            let line = p.read(fd, 1024)?;
            if line.is_empty() {
                break;
            }
            let line = String::from_utf8(line).map_err(|_| NineError::new("cs: not text"))?;
            match line.split_once(' ') {
                Some((clone, addr)) => out.push((clone.to_string(), addr.to_string())),
                None => out.push((line, String::new())),
            }
        }
        Ok(out)
    })();
    p.close(fd);
    r
}

/// Fallback translation when no connection server is mounted: the
/// destination must already be `net!addr!svc` with a literal address.
fn raw_translate(dest: &str) -> Result<Vec<(String, String)>> {
    let parts: Vec<&str> = dest.split('!').collect();
    match parts.as_slice() {
        [net, rest @ ..] if !rest.is_empty() => {
            Ok(vec![(format!("/net/{net}/clone"), rest.join("!"))])
        }
        _ => Err(NineError::new(format!("cannot translate address: {dest}"))),
    }
}

/// Establishes a connection to `dest` ("net!host!service").
///
/// Uses CS to translate the name "to all possible destination addresses
/// and attempts to connect to each in turn until one works."
pub fn dial(p: &Proc, dest: &str) -> Result<DialResult> {
    let translations = match cs_translate(p, dest) {
        Ok(t) => t,
        Err(_) => raw_translate(dest)?,
    };
    let mut last_err = NineError::new(format!("cannot translate address: {dest}"));
    for (clone, addr) in translations {
        match dial_one(p, &clone, &addr) {
            Ok(r) => return Ok(r),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// One §2.3 connection dance on a specific clone file.
fn dial_one(p: &Proc, clone: &str, addr: &str) -> Result<DialResult> {
    // 1) The clone device of the appropriate protocol directory is
    //    opened to reserve an unused connection.
    let ctl_fd = p.open(clone, OpenMode::RDWR)?;
    let r = (|| {
        // 2) Reading that file descriptor returns an ASCII string
        //    containing the connection number.
        let n = p.read(ctl_fd, 32)?;
        let n = String::from_utf8(n).map_err(|_| NineError::new("ctl: not text"))?;
        // 3) A protocol/network specific ASCII address string is written
        //    to the ctl file.
        p.write_str(ctl_fd, &format!("connect {addr}"))?;
        // 4) The path of the data file is constructed using the
        //    connection number; when the data file is opened the
        //    connection is established.
        let proto_dir = clean_path(clone)
            .rsplit_once('/')
            .map(|(d, _)| d.to_string())
            .unwrap_or_else(|| "/net".to_string());
        let dir = format!("{proto_dir}/{n}");
        let data_fd = p.open(&format!("{dir}/data"), OpenMode::RDWR)?;
        Ok(DialResult {
            data_fd,
            dir,
            ctl_fd,
        })
    })();
    match r {
        Ok(res) => Ok(res),
        Err(e) => {
            p.close(ctl_fd);
            Err(e)
        }
    }
}

/// Announces the service `addr` ("tcp!*!echo"). Returns the control
/// descriptor (the announcement stays in force until it is closed) and
/// fills `dir` with the protocol directory of the announcement.
pub fn announce(p: &Proc, addr: &str) -> Result<(i32, String)> {
    let translations = match cs_translate(p, addr) {
        Ok(t) => t,
        Err(_) => raw_translate(addr)?,
    };
    let mut last_err = NineError::new(format!("cannot announce: {addr}"));
    for (clone, a) in translations {
        let afd = match p.open(&clone, OpenMode::RDWR) {
            Ok(fd) => fd,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let r = (|| {
            let n = p.read(afd, 32)?;
            let n = String::from_utf8(n).map_err(|_| NineError::new("ctl: not text"))?;
            p.write_str(afd, &format!("announce {a}"))?;
            let proto_dir = clean_path(&clone)
                .rsplit_once('/')
                .map(|(d, _)| d.to_string())
                .unwrap_or_else(|| "/net".to_string());
            Ok(format!("{proto_dir}/{n}"))
        })();
        match r {
            Ok(dir) => return Ok((afd, dir)),
            Err(e) => {
                p.close(afd);
                last_err = e;
            }
        }
    }
    Err(last_err)
}

/// Listens for an incoming call on an announced directory. Blocks;
/// returns the control descriptor of the new connection and its
/// directory (`ldir`).
pub fn listen(p: &Proc, adir: &str) -> Result<(i32, String)> {
    // Opening the listen file blocks until a call arrives; the returned
    // channel points at the ctl file of the new connection.
    let lcfd = p.open(&format!("{adir}/listen"), OpenMode::RDWR)?;
    let n = match p.read(lcfd, 32) {
        Ok(n) => n,
        Err(e) => {
            p.close(lcfd);
            return Err(e);
        }
    };
    let n = String::from_utf8(n).map_err(|_| NineError::new("ctl: not text"))?;
    let proto_dir = clean_path(adir)
        .rsplit_once('/')
        .map(|(d, _)| d.to_string())
        .unwrap_or_else(|| "/net".to_string());
    Ok((lcfd, format!("{proto_dir}/{n}")))
}

/// Accepts the call: opens and returns the connection's `data` file.
pub fn accept(p: &Proc, _lcfd: i32, ldir: &str) -> Result<i32> {
    p.open(&format!("{ldir}/data"), OpenMode::RDWR)
}

/// Rejects the call with a reason. "Some networks such as Datakit accept
/// a reason for a rejection; networks such as IP ignore the third
/// argument."
pub fn reject(p: &Proc, lcfd: i32, _ldir: &str, reason: &str) -> Result<()> {
    p.write_str(lcfd, &format!("reject {reason}")).map(|_| ())
}

/// Whether the conversation in protocol directory `dir` is a byte
/// stream (TCP): 9P over one wants the marshaling layer, while IL, URP
/// and pipes keep delimiters themselves.
pub fn framed(dir: &str) -> bool {
    dir.contains("/tcp/")
}

/// A service [`serve_calls`] started: its listener, and a hold on its
/// announcement's `ctl` file to end it by.
pub struct Service {
    ctl: Proc,
    ctl_fd: i32,
    listener: KprocHandle<()>,
}

impl Service {
    /// Ends the service as any process may, by writing `hangup` to its
    /// announcement's `ctl` file, and waits for the listener to return.
    /// Calls already accepted go on.
    pub fn hangup(self) {
        let _ = self.ctl.write_str(self.ctl_fd, "hangup");
        let _ = self.listener.join();
    }

    /// Waits for the listener to return, after `max_calls` calls.
    pub fn join(self) -> std::thread::Result<()> {
        self.listener.join()
    }
}

/// The §5.2 listing, written once for every service (the Plan 9
/// equivalent of `inetd`): announces `addr` and, in a kproc named
/// `{name}-listener`, takes `max_calls` calls, each served by
/// `serve(process, data fd, framed)` in a kproc named `name`.
///
/// The listener returns after `max_calls` conversations have been
/// *accepted* (so tests can bound it), or once the service is hung up;
/// pass `usize::MAX` to serve until then. The announcement lasts while
/// the listener or the [`Service`] holds it.
pub fn serve_calls(
    p: Proc,
    addr: &str,
    max_calls: usize,
    name: &str,
    serve: impl Fn(Proc, i32, bool) + Send + Sync + 'static,
) -> Result<Service> {
    let (_afd, adir) = announce(&p, addr)?;
    let ctl = p.fork();
    let ctl_fd = ctl.open(&format!("{adir}/ctl"), OpenMode::RDWR)?;
    let framed = framed(&adir);
    let (name, serve) = (name.to_string(), Arc::new(serve));
    let listener = vtime::kproc(&format!("{name}-listener"), move || {
        for _ in 0..max_calls {
            let Ok((lcfd, ldir)) = listen(&p, &adir) else { return };
            let accepted = accept(&p, lcfd, &ldir);
            // The call's ctl file has done its job. A protocol device
            // keeps a conversation while any file in its directory is
            // open, so holding this one would leave a TCP call in
            // Close_wait for good after the peer hangs up.
            p.close(lcfd);
            let Ok(dfd) = accepted else { continue };
            // "The listener runs the profile of the user requesting
            // the service to construct a name space before starting
            // exportfs": each conversation gets a forked process, and
            // the call's descriptor goes with it.
            let (wp, wfd) = p.fork_with_fd(dfd);
            let serve = Arc::clone(&serve);
            vtime::kproc(&name, move || serve(wp, wfd, framed))
                // checked: spawn fails only on OS thread exhaustion
                .expect("spawn service process");
        }
    })
    .map_err(|e| NineError::new(format!("spawn {addr} listener: {e}")))?;
    Ok(Service { ctl, ctl_fd, listener })
}
