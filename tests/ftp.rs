//! Integration: ftpfs (§6.2) — FTP as a mounted file system with a
//! cache. Under the virtual clock.

mod oracle;

use oracle::world::ether_hosts;
use plan9::core::machine::Machine;
use plan9::core::namespace::MREPL;
use plan9::exportfs::ftpd::FtpServer;
use plan9::exportfs::ftpfs::FtpFs;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::{OpenMode, ProcFs};
use plan9_support::vtime;
use std::sync::Arc;

fn world() -> (Arc<Machine>, Arc<Machine>, Arc<FtpServer>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=site ip=10.41.0.1 proto=tcp\nsys=term ip=10.41.0.2 proto=tcp\n";
    let [site, term] = ether_hosts(&seg, 41, [("site", 1), ("term", 2)], ndb);
    let ftpd = Arc::new(FtpServer::new("guest"));
    ftpd.tree.put_file("/pub/README", b"hello ftp").unwrap();
    ftpd.tree.put_file("/pub/deep/leaf.txt", b"leaf").unwrap();
    Arc::clone(&ftpd).serve(site.proc(), 8).unwrap();
    (site, term, ftpd)
}

fn mounted_term(term: &Arc<Machine>) -> (plan9::core::proc::Proc, Arc<FtpFs>) {
    let p = term.proc();
    let fs = FtpFs::dial_and_login(term.proc(), "tcp!site!ftp", "philw", "guest").expect("login");
    let dynfs: Arc<dyn ProcFs> = fs.clone();
    p.mount_fs(&dynfs, "", "/n/ftp", MREPL).expect("mount");
    (p, fs)
}

#[test]
fn list_read_and_walk_deep() {
    let _vt = vtime::enter();
    let (_site, term, _ftpd) = world();
    let (p, _fs) = mounted_term(&term);
    let names: Vec<String> = p
        .ls("/n/ftp/pub")
        .expect("ls")
        .iter()
        .map(|d| d.name.clone())
        .collect();
    assert!(names.contains(&"README".to_string()));
    assert!(names.contains(&"deep".to_string()));
    let fd = p.open("/n/ftp/pub/deep/leaf.txt", OpenMode::READ).unwrap();
    assert_eq!(p.read_string(fd).unwrap(), "leaf");
}

#[test]
fn reads_are_cached() {
    let _vt = vtime::enter();
    let (_site, term, _ftpd) = world();
    let (p, fs) = mounted_term(&term);
    let fd = p.open("/n/ftp/pub/README", OpenMode::READ).unwrap();
    let _ = p.read_string(fd).unwrap();
    p.close(fd);
    let before = fs.round_trips.get();
    for _ in 0..5 {
        let fd = p.open("/n/ftp/pub/README", OpenMode::READ).unwrap();
        assert_eq!(p.read_string(fd).unwrap(), "hello ftp");
        p.close(fd);
    }
    assert_eq!(fs.round_trips.get(), before);
}

#[test]
fn create_updates_cache_and_server() {
    let _vt = vtime::enter();
    let (_site, term, ftpd) = world();
    let (p, _fs) = mounted_term(&term);
    let fd = p
        .create("/n/ftp/pub/new.txt", 0o644, OpenMode::WRITE)
        .expect("create");
    p.write(fd, b"created via ftpfs").unwrap();
    p.close(fd); // flush on clunk
    // Visible locally through the cache...
    let fd = p.open("/n/ftp/pub/new.txt", OpenMode::READ).unwrap();
    assert_eq!(p.read_string(fd).unwrap(), "created via ftpfs");
    // ...and on the server's own tree.
    let root = ftpd.tree.attach("ftp", "").unwrap();
    let node =
        plan9::ninep::procfs::walk_path(&*ftpd.tree, &root, "pub/new.txt").expect("server walk");
    let node = ftpd.tree.open(&node, OpenMode::READ).unwrap();
    assert_eq!(ftpd.tree.read(&node, 0, 100).unwrap(), b"created via ftpfs");
}

#[test]
fn remove_propagates() {
    let _vt = vtime::enter();
    let (_site, term, ftpd) = world();
    let (p, _fs) = mounted_term(&term);
    p.remove("/n/ftp/pub/README").expect("remove");
    let root = ftpd.tree.attach("ftp", "").unwrap();
    assert!(plan9::ninep::procfs::walk_path(&*ftpd.tree, &root, "pub/README").is_err());
}

#[test]
fn wrong_password_refused() {
    let _vt = vtime::enter();
    let (_site, term, _ftpd) = world();
    let err =
        FtpFs::dial_and_login(term.proc(), "tcp!site!ftp", "philw", "wrong").unwrap_err();
    assert!(err.0.contains("530") || err.0.contains("unexpected"), "{err}");
}

/// A login that ends leaves no TCP conversation behind on either
/// machine: ftpd's calls come through the one listener, which closes
/// each call's ctl file once the call is accepted, so nothing pins the
/// serving end in Close_wait after the client goes.
#[test]
fn an_ended_login_leaves_no_conversation() {
    let _vt = vtime::enter();
    let (site, term, _ftpd) = world();
    let machines = [&site, &term];
    let fs = FtpFs::dial_and_login(term.proc(), "tcp!site!ftp", "philw", "guest").expect("login");
    let during = machines.map(|m| m.ip.as_ref().unwrap().tcp_module().conn_count());
    assert!(during.iter().all(|&n| n > 0), "{during:?}");
    drop(fs);
    let left = machines.map(|m| m.ip.as_ref().unwrap().settle());
    assert_eq!(left, [0, 0], "conversations left on site and term");
}
