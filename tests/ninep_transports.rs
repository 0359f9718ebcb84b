//! Integration: 9P carried over every transport the paper discusses.
//!
//! "Nearly all traffic between Plan 9 systems consists of 9P messages"
//! (§2.1). These tests mount a remote RAM file server over a pipe, over
//! IL (delimiters preserved natively), and over TCP (delimiters restored
//! by the marshaling layer), then exercise the full file API through the
//! mount. On the OS clock: one of the two named real-clock witnesses
//! (the other, `protocol_checker.rs`, needs no clock at all), one smoke
//! test per transport shows the kernel works off the virtual clock too.

mod oracle;

use oracle::world::ether_hosts;
use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::namespace::MREPL;
use plan9::core::proc::Proc;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::{MemFs, OpenMode, ProcFs};
use std::sync::Arc;

fn two_machines() -> (Arc<plan9::core::machine::Machine>, Arc<plan9::core::machine::Machine>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=fsrv ip=10.7.0.1 proto=il proto=tcp\nsys=term ip=10.7.0.2 proto=il proto=tcp\n";
    let [fsrv, term] = ether_hosts(&seg, 7, [("fsrv", 1), ("term", 2)], ndb);
    (fsrv, term)
}

/// Announces `addr` on machine proc `sp` and serves `fs` over the next
/// call accepted there, using framing when the transport is a byte
/// stream.
fn serve_one(sp: Proc, addr: &'static str, fs: Arc<MemFs>) {
    let (_afd, adir) = announce(&sp, addr).expect("announce");
    std::thread::spawn(move || {
        let (lcfd, ldir) = listen(&sp, &adir).expect("listen");
        let dfd = accept(&sp, lcfd, &ldir).expect("accept");
        let io = sp.io(dfd).expect("io");
        let fs: Arc<dyn ProcFs> = fs;
        if addr.starts_with("tcp") {
            let source = plan9::ninep::marshal::FramedSource::new(io.clone());
            let sink = plan9::ninep::marshal::FramedSink::new(io);
            let _ = plan9::ninep::server::serve(fs, Box::new(source), Box::new(sink));
        } else {
            let _ = plan9::ninep::server::serve(fs, Box::new(io.clone()), Box::new(io));
        }
    });
}

fn exercise_mounted_tree(p: &Proc, mountpoint: &str) {
    // Read a prepared file.
    let fd = p
        .open(&format!("{mountpoint}/motd"), OpenMode::READ)
        .expect("open motd");
    assert_eq!(p.read_string(fd).expect("read motd"), "have a nice day\n");
    p.close(fd);
    // Create, write, stat, reread, remove.
    let fd = p
        .create(&format!("{mountpoint}/new/file.txt"), 0o644, OpenMode::WRITE)
        .map_err(|e| e.to_string());
    // Parent directory does not exist: expected failure, then create it
    // properly.
    assert!(fd.is_err());
    let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let fd = p
        .create(&format!("{mountpoint}/bulk.bin"), 0o644, OpenMode::WRITE)
        .expect("create");
    // Bigger than one 9P message: the client chunks it.
    let mut off = 0;
    while off < big.len() {
        let n = p.write(fd, &big[off..(off + 8192).min(big.len())]).expect("write");
        off += n;
    }
    p.close(fd);
    let st = p.stat(&format!("{mountpoint}/bulk.bin")).expect("stat");
    assert_eq!(st.length as usize, big.len());
    let fd = p
        .open(&format!("{mountpoint}/bulk.bin"), OpenMode::READ)
        .expect("open");
    let mut got = Vec::new();
    loop {
        let chunk = p.read(fd, 8192).expect("read");
        if chunk.is_empty() {
            break;
        }
        got.extend(chunk);
    }
    assert_eq!(got, big);
    p.close(fd);
    p.remove(&format!("{mountpoint}/bulk.bin")).expect("remove");
    assert!(p.stat(&format!("{mountpoint}/bulk.bin")).is_err());
    // Directory listing through the mount.
    let names: Vec<String> = p
        .ls(mountpoint)
        .expect("ls")
        .iter()
        .map(|d| d.name.clone())
        .collect();
    assert!(names.contains(&"motd".to_string()));
}

fn remote_tree() -> Arc<MemFs> {
    let fs = MemFs::new("ram", "bootes");
    fs.put_file("/motd", b"have a nice day\n").unwrap();
    fs
}

#[test]
fn ninep_over_il_preserves_delimiters_natively() {
    let (fsrv, term) = two_machines();
    serve_one(fsrv.proc(), "il!*!9fs", remote_tree());
    let p = term.proc();
    let conn = dial(&p, "il!10.7.0.1!9fs").expect("dial");
    p.mount_fd(conn.data_fd, "", "/n/remote", MREPL, false)
        .expect("mount");
    exercise_mounted_tree(&p, "/n/remote");
}

#[test]
fn ninep_over_tcp_needs_marshaling() {
    let (fsrv, term) = two_machines();
    serve_one(fsrv.proc(), "tcp!*!9fs", remote_tree());
    let p = term.proc();
    let conn = dial(&p, "tcp!10.7.0.1!9fs").expect("dial");
    // framed = true engages the length-prefix marshal layer (§2.1).
    p.mount_fd(conn.data_fd, "", "/n/remote", MREPL, true)
        .expect("mount");
    exercise_mounted_tree(&p, "/n/remote");
}

#[test]
fn ninep_over_pipe_like_a_local_user_server() {
    // "The mount system call provides a file descriptor, which can be a
    // pipe to a user process..." — here the user process is a thread
    // serving a MemFs over an in-memory pipe.
    use plan9::ninep::transport::MsgPipeEnd;
    let (client_end, server_end) = MsgPipeEnd::pair();
    let fs: Arc<dyn ProcFs> = remote_tree();
    std::thread::spawn(move || {
        let (sink, source) = server_end.split();
        let _ = plan9::ninep::server::serve(fs, Box::new(source), Box::new(sink));
    });
    let (sink, source) = client_end.split();
    let driver = plan9::core::mountdrv::MountDriver::from_client(
        plan9::ninep::client::NineClient::new(Box::new(sink), Box::new(source)),
    );
    // Build a minimal namespace around the mount.
    let rootfs = MemFs::new("root", "bootes");
    rootfs.put_dir("/n/remote").unwrap();
    let root_dyn: Arc<dyn ProcFs> = rootfs;
    let ns = plan9::core::namespace::Namespace::new(
        plan9::core::namespace::Source::attach(&root_dyn, "u", "").unwrap(),
    );
    let p = Proc::new(ns, "u");
    let drv_dyn: Arc<dyn ProcFs> = driver;
    p.mount_fs(&drv_dyn, "", "/n/remote", MREPL).expect("mount");
    exercise_mounted_tree(&p, "/n/remote");
}
