//! ftpfs (§6.2): FTP presented as a file system, with caching.
//!
//! A file-server machine runs an FTP daemon; the terminal dials its FTP
//! port, logs in, sets image mode, and mounts the remote tree on
//! `/n/ftp`. Reads hit the cache after the first fetch; a created file
//! appears on the server immediately.
//!
//! Run with `cargo run --example ftpfs_demo`.

use plan9::core::machine::MachineBuilder;
use plan9::core::namespace::MREPL;
use plan9::exportfs::ftpd::FtpServer;
use plan9::exportfs::ftpfs::FtpFs;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::{OpenMode, ProcFs};
use std::sync::Arc;

fn main() {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=tops20 ip=10.0.0.1 proto=tcp\nsys=term ip=10.0.0.2 proto=tcp\n";
    let server = MachineBuilder::new("tops20")
        .ether(&seg, [8, 0, 0, 0, 0, 1], IpConfig::local("10.0.0.1"))
        .ndb(ndb)
        .build()
        .expect("boot server");
    let term = MachineBuilder::new("term")
        .ether(&seg, [8, 0, 0, 0, 0, 2], IpConfig::local("10.0.0.2"))
        .ndb(ndb)
        .build()
        .expect("boot term");

    // The remote FTP site with some files.
    let ftpd = Arc::new(FtpServer::new("guest"));
    ftpd.tree
        .put_file("/pub/README", b"welcome to the simulated TOPS-20\n")
        .expect("seed");
    ftpd.tree
        .put_file("/pub/papers/plan9.ps", vec![0x25; 4096].as_slice())
        .expect("seed");
    Arc::clone(&ftpd)
        .serve(server.proc(), 4)
        .expect("start ftpd");

    // ftpfs: dial, login, mount on /n/ftp.
    let p = term.proc();
    println!("term% ftpfs -m /n/ftp tcp!tops20!ftp");
    let ftpfs = FtpFs::dial_and_login(term.proc(), "tcp!tops20!ftp", "philw", "guest")
        .expect("ftp login");
    let fs: Arc<dyn ProcFs> = ftpfs.clone();
    p.mount_fs(&fs, "", "/n/ftp", MREPL).expect("mount ftpfs");

    println!("term% ls /n/ftp/pub");
    for d in p.ls("/n/ftp/pub").expect("ls") {
        println!("{}", d.ls_line());
    }

    let fd = p.open("/n/ftp/pub/README", OpenMode::READ).expect("open");
    print!("term% cat /n/ftp/pub/README\n{}", p.read_string(fd).expect("read"));
    p.close(fd);

    // Second read comes from the cache: round trips must not grow.
    let before = ftpfs.round_trips.get();
    let fd = p.open("/n/ftp/pub/README", OpenMode::READ).expect("open");
    let _ = p.read_string(fd).expect("read");
    p.close(fd);
    let after = ftpfs.round_trips.get();
    println!("(second cat used the cache: {before} -> {after} round trips)");
    assert_eq!(before, after);

    // Creating a file updates the cache and the remote site.
    let fd = p
        .create("/n/ftp/pub/NOTE", 0o644, OpenMode::WRITE)
        .expect("create");
    p.write(fd, b"left by ftpfs\n").expect("write");
    p.close(fd);
    // Verify on the server's own tree.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let root = ftpd.tree.attach("ftp", "").expect("attach");
    let node = plan9::ninep::procfs::walk_path(&*ftpd.tree, &root, "pub/NOTE").expect("walk");
    let node = ftpd.tree.open(&node, OpenMode::READ).expect("open");
    let remote = ftpd.tree.read(&node, 0, 100).expect("read");
    println!("server sees pub/NOTE: {:?}", String::from_utf8_lossy(&remote));
    assert_eq!(remote, b"left by ftpfs\n");
    println!("\nftpfs_demo: OK");
}
