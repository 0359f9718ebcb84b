//! How often a path takes its locks, counted by lockdep (`graph_dump`'s
//! `acquires=` per named class, `site_counts` per line for a lock with
//! no name; kept in debug builds). The counts are process-wide, so these
//! tests are a binary of their own, and under the virtual clock they
//! repeat exactly: the totals are asserted as they stand.
//!
//! A fixed IL, TCP and URP exchange each count their conversation's
//! lock. Each shell takes the lock once per input — a segment or cell,
//! a timer firing, a send, a cell leaving the line, a read, a close —
//! and does what the step asked after dropping it (DESIGN.md, the inet
//! and Datakit sections); a second hold per input put back shows here.
//! EXPERIMENTS.md has the same run's totals before the cores were split
//! out.
//!
//! A 64-byte pread through a pipe that `serve_export` serves (the
//! benchmark's `rpc64_pipe`) counts every lock, by class and by site: a
//! lock put back on that path shows here, and which one it was.
#![cfg(debug_assertions)] // lockdep counts only in debug builds

mod oracle;

use oracle::world::ether_hosts;
use plan9::core::machine::MachineBuilder;
use plan9::core::namespace::MREPL;
use plan9::datakit::urp::{urp_dial, UrpListener};
use plan9::exportfs::exportfs::{exportfs_listener, serve_export};
use plan9::exportfs::import::import;
use plan9::inet::ip::{IpConfig, IpStack};
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;
use plan9_support::{lockdep, vtime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Request/reply rounds per exchange, 64 bytes each way.
const ROUNDS: u8 = 20;

/// A class's acquisitions so far, as `graph_dump` lists them.
fn acquires(class: &str) -> u64 {
    let prefix = format!("class {class} acquires=");
    lockdep::graph_dump()
        .lines()
        .find_map(|l| l.strip_prefix(&prefix).and_then(|n| n.parse().ok()))
        .unwrap_or(0)
}

fn stacks(net: u8) -> (Arc<IpStack>, Arc<IpStack>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let a = IpStack::new_pooled(seg.attach([8, 0, 0, 0x41, net, 1]), IpConfig::local(&format!("10.41.{net}.1")));
    let b = IpStack::new_pooled(seg.attach([8, 0, 0, 0x41, net, 2]), IpConfig::local(&format!("10.41.{net}.2")));
    (a, b)
}

/// Dials an echo server and runs `ROUNDS` 64-byte round trips, then
/// both ends close and the stacks settle.
fn il_exchange() {
    let (a, b) = stacks(1);
    let listener = b.il_module().listen(&b, 17008).expect("listen");
    let server = vtime::kproc("il-echo", move || {
        let conn = listener.accept().expect("accept");
        while let Some(msg) = conn.recv().expect("recv") {
            conn.send(&msg).expect("echo");
        }
        conn.close();
    })
    .expect("spawn il echo");
    let conn = a.il_module().connect(&a, b.addr(), 17008).expect("connect");
    for i in 0..ROUNDS {
        conn.send(&[i; 64]).expect("send");
        assert_eq!(conn.recv().expect("recv"), Some(vec![i; 64]));
    }
    conn.close();
    server.join().expect("il echo");
    assert_eq!([a.settle(), b.settle()], [0, 0], "conversations left");
}

fn tcp_exchange() {
    let (a, b) = stacks(2);
    let listener = b.tcp_module().listen(&b, 564).expect("listen");
    let server = vtime::kproc("tcp-echo", move || {
        let conn = listener.accept().expect("accept");
        loop {
            let data = conn.read(8192).expect("read");
            if data.is_empty() {
                break;
            }
            conn.write(&data).expect("echo");
        }
        conn.close();
    })
    .expect("spawn tcp echo");
    let conn = a.tcp_module().connect(&a, b.addr(), 564).expect("connect");
    for i in 0..ROUNDS {
        conn.write(&[i; 64]).expect("write");
        let mut got = Vec::new();
        while got.len() < 64 {
            got.extend(conn.read(8192).expect("read"));
        }
        assert_eq!(got, [i; 64]);
    }
    conn.close();
    server.join().expect("tcp echo");
    assert_eq!([a.settle(), b.settle()], [0, 0], "connections left");
}

/// The same rounds over URP on an unpaced Datakit line, then the
/// dialer closes and the echo server sees the end and closes too. Its
/// 215 holds: three a data cell (sent, leaving the line, arriving: 120),
/// one an ACK or CLOSE cell or the circuit's hangup arriving (12), one a
/// read (41) and one a wake a read waited for (40), one a close (2). Two
/// locks took 272 before URP's core was split out.
fn urp_exchange() {
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let near = switch.attach("nj/astro/near").expect("attach near");
    let listener = UrpListener::new(switch.attach("nj/astro/far").expect("attach far"));
    let server = vtime::kproc("urp-echo", move || {
        let (conn, _, _) = listener.accept().expect("accept");
        while let Some(msg) = conn.recv() {
            conn.send(&msg).expect("echo");
        }
        conn.close();
    })
    .expect("spawn urp echo");
    let conn = urp_dial(&near, "nj/astro/far!echo").expect("dial");
    for i in 0..ROUNDS {
        conn.send(&[i; 64]).expect("send");
        assert_eq!(conn.recv(), Some(vec![i; 64]));
    }
    conn.close();
    server.join().expect("urp echo");
}

#[test]
fn each_input_takes_the_conversation_lock_once() {
    let _vt = vtime::enter();
    let il = acquires("inet.il.conn");
    il_exchange();
    let il = acquires("inet.il.conn") - il;
    let tcp = acquires("inet.tcp.conn");
    tcp_exchange();
    let tcp = acquires("inet.tcp.conn") - tcp;
    let urp = acquires("datakit.urp.conn");
    urp_exchange();
    let urp = acquires("datakit.urp.conn") - urp;
    assert_eq!(
        (il, tcp, urp),
        (169, 257, 215),
        "inet.il.conn, inet.tcp.conn and datakit.urp.conn acquisitions"
    );
}

/// Every lock acquisition so far: each named class's, and each unnamed
/// lock's by the file that takes it (`site <file>`; `site_counts` has
/// the line).
fn all_acquires() -> BTreeMap<String, u64> {
    let mut all = BTreeMap::new();
    let dump = lockdep::graph_dump();
    let classes = dump.lines().filter_map(|l| {
        let (name, n) = l.strip_prefix("class ")?.split_once(" acquires=")?;
        Some((name.to_string(), n.parse().ok()?))
    });
    let sites = lockdep::site_counts().into_iter().map(|(site, n)| {
        let file = site.rsplit_once(':').map_or(&site[..], |(file, _)| file);
        (format!("site {file}"), n)
    });
    for (k, n) in classes.chain(sites) {
        *all.entry(k).or_default() += n;
    }
    all
}

/// Operations a path is counted over, after as many to warm up.
const OPS: u64 = 50;

/// Each lock's acquisitions per call of `op` (given the call's index),
/// and their sum.
fn per_op(mut op: impl FnMut(u64)) -> (BTreeMap<String, f64>, f64) {
    (0..OPS).for_each(&mut op);
    let before = all_acquires();
    (OPS..2 * OPS).for_each(&mut op);
    let counts: BTreeMap<String, f64> = all_acquires()
        .into_iter()
        .map(|(k, n)| (n - before.get(&k).copied().unwrap_or(0), k))
        .filter(|&(n, _)| n > 0)
        .map(|(n, k)| (k, n as f64 / OPS as f64))
        .collect();
    let total = counts.values().sum();
    (counts, total)
}

#[test]
fn a_pipe_rpc_takes_its_locks_by_count() {
    let _vt = vtime::enter();
    let machine = MachineBuilder::new("gnot").build().expect("boot gnot");
    machine.rootfs.put_file("/lib/perf/blob", &[0x5a; 8192]).expect("seed blob");
    let p = machine.proc();
    let (srv_fd, mnt_fd) = p.pipe().expect("pipe");
    let (srv, srv_fd) = p.fork_with_fd(srv_fd);
    let exportfs = vtime::kproc("exportfs", move || serve_export(&srv, srv_fd, false)).expect("spawn exportfs");
    p.write(mnt_fd, b"/lib/perf").expect("name the root");
    assert_eq!(p.read(mnt_fd, 64).expect("export reply"), b"OK");
    p.mount_fd(mnt_fd, "", "/n/pipe", MREPL, false).expect("mount pipe");
    let fd = p.open("/n/pipe/blob", OpenMode::READ).expect("open blob");
    let (counts, total) = per_op(|i| assert_eq!(p.pread(fd, i, 64).expect("pread"), [0x5a; 64]));
    println!("{total} acquisitions per pipe RPC: {counts:#?}");
    let want = WANT.map(|(k, n)| (k.to_string(), n));
    assert_eq!(counts, BTreeMap::from(want), "acquisitions per pipe RPC, by class and site");
    p.close(fd);
    p.ns.unmount("/n/pipe").expect("unmount");
    drop(p);
    let _ = exportfs.join();
}

/// A pipe RPC's 21 acquisitions, by class and site: the client's write
/// down the pipe runs exportfs's read of the file on the same thread,
/// and its reply lands in the read queue the client then reads.
/// EXPERIMENTS.md ("What a pipe RPC costs") has the 39 from before a
/// stream reached its device and read queue directly.
const WANT: [(&str, f64); 10] = [
    ("core.proc.fds", 1.0),
    ("ninep.client.pending", 3.0),
    ("ninep.client.source", 1.0),
    ("ninep.procfs", 1.0),
    ("ninep.server.fids", 1.0),
    ("ninep.sink", 5.0),
    ("site crates/exportfs/src/exportfs.rs", 1.0),
    ("site crates/ninep/src/server.rs", 1.0),
    ("streams.queue", 5.0),
    ("support.pool.shard", 2.0),
];

/// The benchmark's import workloads: 64-byte and 8 KiB preads of a file
/// helix exports over IL, and 8 KiB over TCP. Their totals are
/// asserted; the tables are printed (`-- --nocapture`), and
/// EXPERIMENTS.md has them.
#[test]
fn an_imported_read_takes_its_locks_by_count() {
    let _vt = vtime::enter();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let ndb = "sys=helix ip=10.43.0.1 proto=il proto=tcp\nsys=musca ip=10.43.0.9 proto=il proto=tcp\n";
    let [helix, musca] = ether_hosts(&seg, 43, [("helix", 1), ("musca", 9)], ndb);
    helix.rootfs.put_file("/lib/perf/blob", &[0x5a; 1 << 20]).expect("seed blob");
    for (proto, size, want) in [("il", 64, 43.0), ("il", 8192, 76.0), ("tcp", 8192, 105.0)] {
        let listener = exportfs_listener(helix.proc(), &format!("{proto}!*!exportfs"), 1).expect(proto);
        let p = musca.proc();
        import(&p, &format!("{proto}!helix!exportfs"), "/lib/perf", "/n/helix", MREPL).expect("import");
        let fd = p.open("/n/helix/blob", OpenMode::READ).expect("open blob");
        let (counts, total) = per_op(|i| assert_eq!(p.pread(fd, i * 64, size).expect("pread").len(), size));
        println!("{total} acquisitions per {proto} pread of {size}: {counts:#?}");
        assert_eq!(total, want, "acquisitions per {proto} pread of {size}");
        p.close(fd);
        p.ns.unmount("/n/helix").expect("unmount");
        drop(p);
        listener.join().expect("listener");
    }
    let left = [&helix, &musca].map(|m| m.ip.as_ref().expect("ip stack").settle());
    assert_eq!(left, [0, 0], "conversations left on helix and musca");
}
