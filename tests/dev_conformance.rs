//! Integration: every kernel device a booted machine mounts is the same
//! kind of file tree.
//!
//! One walk over each device checks what the generic layer promises
//! (§2.2–2.3: "each device driver is a kernel-resident file system",
//! "all protocol devices look identical"): a directory's listing, `walk`
//! and `stat` agree entry by entry; `..` leads to the parent and the
//! root is its own; `walk` from a file is "not a directory" and an
//! unknown name "file does not exist"; a directory cannot be opened for
//! writing, nor can a file whose entry has no write bits. Under the
//! virtual clock.

mod oracle;

use oracle::world::{echo_once, hosts_on};
use plan9::core::dev::PipeFs;
use plan9::core::dial::dial;
use plan9::core::machine::MachineBuilder;
use plan9::core::namespace::Source;
use plan9::core::proc::Proc;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::netsim::uart::uart_pair;
use plan9::ninep::dir::DIR_LEN;
use plan9::ninep::procfs::{OpenMode, ProcFs, ServeNode};
use plan9::ninep::{errstr, Dir, Qid};
use plan9_support::{time, vtime};
use std::sync::Arc;
use std::time::Duration;

type Fs = Arc<dyn ProcFs>;

/// A channel of its own on the file `n` names.
fn dup(fs: &Fs, n: &ServeNode) -> ServeNode {
    fs.clone_node(n).expect("clone")
}

fn err_of(r: plan9::ninep::Result<ServeNode>, what: &str) -> String {
    r.err().unwrap_or_else(|| panic!("{what}: succeeded")).0
}

fn listing(fs: &Fs, dir: &ServeNode, at: &str) -> Vec<Dir> {
    let open = fs.open(&dup(fs, dir), OpenMode::READ).unwrap_or_else(|e| panic!("{at}: open: {e}"));
    let mut out = Vec::new();
    loop {
        let bytes = fs.read(&open, (out.len() * DIR_LEN) as u64, 8 * DIR_LEN).expect("dirread");
        if bytes.is_empty() {
            break;
        }
        out.extend(bytes.chunks(DIR_LEN).map(|c| Dir::decode(c).expect("Dir")));
    }
    fs.clunk(&open);
    out
}

/// Checks directory `dir` (listed in `parent`) and everything below it;
/// returns how many files and directories it saw.
fn check_dir(fs: &Fs, dir: &ServeNode, parent: Qid, at: &str) -> usize {
    assert_eq!(fs.walk(&dup(fs, dir), "..").expect("..").qid, parent, "{at}/..");
    let missing = err_of(fs.walk(&dup(fs, dir), "no such file"), at);
    assert_eq!(missing, errstr::ENOTEXIST, "{at}/no such file");
    for mode in [OpenMode::WRITE, OpenMode::RDWR] {
        let refused = err_of(fs.open(&dup(fs, dir), mode), at);
        assert_eq!(refused, errstr::EISDIR, "{at}: open {mode:?}");
    }
    let mut seen = 1;
    for entry in listing(fs, dir, at) {
        let at = format!("{at}/{}", entry.name);
        let n = fs.walk(&dup(fs, dir), &entry.name).unwrap_or_else(|e| panic!("{at}: walk: {e}"));
        assert_eq!(n.qid, entry.qid, "{at}: walk and listing disagree");
        assert_eq!(fs.stat(&n).unwrap_or_else(|e| panic!("{at}: stat: {e}")), entry, "{at}");
        assert_eq!(entry.is_dir(), entry.qid.is_dir(), "{at}: mode and qid disagree");
        if entry.is_dir() {
            seen += check_dir(fs, &n, dir.qid, &at);
            continue;
        }
        seen += 1;
        for name in ["..", "ctl"] {
            assert_eq!(err_of(fs.walk(&dup(fs, &n), name), &at), errstr::ENOTDIR, "{at}/{name}");
        }
        if entry.mode & 0o222 == 0 {
            for mode in [OpenMode::WRITE, OpenMode::RDWR] {
                let refused = err_of(fs.open(&dup(fs, &n), mode), &at);
                assert_eq!(refused, errstr::EPERM, "{at}: open {mode:?}");
            }
            let open = fs.open(&dup(fs, &n), OpenMode::READ);
            fs.clunk(&open.unwrap_or_else(|e| panic!("{at}: open for read: {e}")));
        }
    }
    seen
}

fn cat(p: &Proc, path: &str) -> String {
    let fd = p.open(path, OpenMode::READ).unwrap_or_else(|e| panic!("{path}: {e}"));
    let text = p.read_string(fd).unwrap_or_else(|e| panic!("{path}: {e}"));
    p.close(fd);
    text
}

/// The metric each line of a `stats` file names, having checked the
/// line's shape: `name value`, or for a histogram the rows
/// `Histogram::render` prints (`name count N avg Nus`, `name LO-HIus
/// N`). A line whose first field ends in `:` is header, not metric.
fn metrics_shown(p: &Proc, path: &str) -> Vec<String> {
    let number = |f: &str| f.parse::<u64>().is_ok();
    let us = |f: &str| f.strip_suffix("us").is_some_and(|n| n.split('-').all(number));
    let text = cat(p, path);
    let rows = text.lines().filter(|l| !l.split(' ').next().is_some_and(|f| f.ends_with(':')));
    rows.map(|line| {
        let ok = match line.split(' ').collect::<Vec<_>>()[..] {
            [_, value] => number(value),
            [_, "count", n, "avg", avg] => number(n) && us(avg),
            [_, bucket, n] => us(bucket) && number(n),
            _ => false,
        };
        assert!(ok, "{path}: {line:?}");
        line.split(' ').next().expect("a name").to_string()
    })
    .collect()
}

/// Every counter a file under `/net` shows is a row of the machine's
/// registry, printed by its one renderer, and every row is sampled:
/// what the Ethernet device, the wire and URP count reaches
/// `/net/log/series` like what IL counts.
#[test]
fn the_stats_tree_conforms_to_the_registry() {
    let _vt = vtime::enter();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let ndb = "sys=helix ip=10.17.0.1 dk=nj/astro/helix\nsys=gnot ip=10.17.0.2 dk=nj/astro/gnot\n";
    let [helix, gnot] = hosts_on(&seg, Some((&switch, "nj/astro")), 17, [("helix", 1), ("gnot", 2)], ndb);
    let p = gnot.proc();
    let ctl = p.open("/net/log/ctl", OpenMode::RDWR).expect("log ctl");
    p.write_str(ctl, "series interval 20ms").expect("interval");
    p.write_str(ctl, "series start").expect("start");
    let calls = [
        ("il!*!echo", "il!helix!echo"),
        ("tcp!*!echo", "tcp!helix!echo"),
        ("dk!*!echo", "dk!nj/astro/helix!echo"),
    ];
    for (served, called) in calls {
        echo_once(&helix, served);
        let conn = dial(&p, called).unwrap_or_else(|e| panic!("{called}: {e}"));
        p.write(conn.data_fd, b"ping").expect("write");
        assert_eq!(p.read(conn.data_fd, 4096).expect("read"), b"ping", "{called}");
        p.close(conn.data_fd);
        p.close(conn.ctl_fd);
    }
    // The calls took no virtual time on these unpaced media: the
    // sampler's first tick is the first sample to hold them.
    let deadline = time::now() + Duration::from_secs(5);
    while !cat(&p, "/net/log/series").contains("\nsample ") {
        assert!(time::now() < deadline, "no sample in /net/log/series after 5 s at a 20 ms interval");
        time::sleep(Duration::from_millis(20));
    }
    p.write_str(ctl, "series stop").expect("stop");

    // An Ethernet conversation, so that its `stats` exists.
    let eclone = p.open("/net/ether0/clone", OpenMode::RDWR).expect("ether clone");
    let n = String::from_utf8(p.read(eclone, 16).expect("ether N")).expect("text");
    let ether = format!("/net/ether0/{n}/stats");
    let files = ["/net/il/stats", "/net/tcp/stats", "/net/udp/stats", "/net/dk/stats", &ether, "/net/log/copy"];
    let shown = files.map(|path| (path, metrics_shown(&p, path)));
    // Sampled after the reads: a table only grows.
    let registered: Vec<String> = gnot.netlog.registry.sample().into_iter().map(|(name, _)| name).collect();
    for (path, shown) in shown {
        assert!(!shown.is_empty(), "{path} shows nothing");
        for name in shown {
            assert!(registered.contains(&name), "{path} shows {name}, which no registry holds");
        }
    }
    // ...and every row of the table is in `/net/log/stats`.
    let all = metrics_shown(&p, "/net/log/stats");
    for name in &registered {
        assert!(all.contains(name), "/net/log/stats lacks {name}");
    }

    // The series counted what the device, the wire and URP counted.
    let series = cat(&p, "/net/log/series");
    for name in ["ether.in", "wire.sent", "urp.tx", "il.tx"] {
        let added: u64 = series
            .lines()
            .filter_map(|l| l.strip_prefix(name)?.strip_prefix(" +")?.parse::<u64>().ok())
            .sum();
        assert!(added > 0, "{name} never sampled:\n{series}");
    }
}

/// The `NetLog` is the machine's, not its IP stack's.
#[test]
fn a_datakit_only_machine_has_its_net_log() {
    let _vt = vtime::enter();
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let lone = MachineBuilder::new("lone")
        .datakit(&switch, "nj/astro/lone")
        .ndb("sys=lone dk=nj/astro/lone\n")
        .build()
        .expect("boot");
    let p = lone.proc();
    let names: Vec<String> = p.ls("/net/log").expect("ls /net/log").into_iter().map(|d| d.name).collect();
    assert_eq!(names, ["copy", "ctl", "data", "lockgraph", "series", "stats"]);
    assert_eq!(metrics_shown(&p, "/net/dk/stats"), ["urp.enq", "urp.rej", "urp.rexmit", "urp.tx"]);
    assert!(metrics_shown(&p, "/net/log/stats").contains(&"urp.tx".to_string()));
}

/// Figure 1 and the §2.2 listing, read through a booted machine's name
/// space: each Ethernet conversation's `type` holds what `connect`
/// wrote, and `ls -l /dev/eia*` shows the paper's `-rw-rw-rw-` files of
/// device type `t`.
#[test]
fn figure_1_and_the_eia_listing_read_like_the_paper() {
    let _vt = vtime::enter();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let (u1, _peer1) = uart_pair(9600);
    let (u2, _peer2) = uart_pair(9600);
    let cpu = MachineBuilder::new("cpu")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .uart(u1)
        .uart(u2)
        .ndb("sys=cpu ip=135.104.9.31\n")
        .build()
        .expect("boot");
    let p = cpu.proc();
    let eia: Vec<String> =
        p.ls("/dev").expect("ls /dev").iter().filter(|d| d.name.starts_with("eia")).map(Dir::ls_line).collect();
    let names: Vec<&str> = eia.iter().filter_map(|l| l.rsplit(' ').next()).collect();
    assert_eq!(names, ["eia1", "eia1ctl", "eia2", "eia2ctl"]);
    for line in &eia {
        assert!(line.starts_with("-rw-rw-rw- t "), "{line}");
    }
    // The ctl files stay open: a conversation lives while any of its
    // files is referenced.
    let mut convs = vec!["clone".to_string()];
    for ptype in ["2048", "2054", "-1"] {
        let ctl = p.open("/net/ether0/clone", OpenMode::RDWR).expect("clone");
        let n = String::from_utf8(p.read(ctl, 16).expect("ctl")).expect("text");
        p.write_str(ctl, &format!("connect {ptype}")).expect("connect");
        assert_eq!(cat(&p, &format!("/net/ether0/{n}/type")), ptype);
        convs.push(n);
    }
    let listed: Vec<String> = p.ls("/net/ether0").expect("ls").into_iter().map(|d| d.name).collect();
    assert_eq!(listed, convs);
}

#[test]
fn every_mounted_device_is_the_same_kind_of_tree() {
    let _vt = vtime::enter();
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let net = plan9::cs::SimInternet::new();
    let (uart, _peer) = uart_pair(9600);
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0, 16, 0, 1], IpConfig::local("10.16.0.1"))
        .datakit(&switch, "nj/astro/helix")
        .uart(uart)
        .internet(&net)
        .ndb("sys=helix ip=10.16.0.1 dk=nj/astro/helix proto=il proto=tcp\n")
        .build()
        .expect("boot");
    let p = helix.proc();
    // One conversation in every table, so the N/ directories exist.
    let tables = ["/net/il", "/net/tcp", "/net/udp", "/net/dk", "/net/ether0"];
    for dir in tables {
        p.open(&format!("{dir}/clone"), OpenMode::RDWR).expect("clone");
    }
    // Every protocol device lists `stats`, so every protocol fills it,
    // with rows of the machine's one metric table.
    for dir in &tables[..4] {
        let shown = metrics_shown(&p, &format!("{dir}/stats"));
        assert!(!shown.is_empty(), "{dir}/stats has no counter");
    }

    // (where it is mounted, the device names expected there, the files
    // and directories in all of them).
    let mounts: [(&str, &[&str], usize); 8] = [
        ("/net/il", &["il"], 10),
        ("/net/tcp", &["tcp"], 10),
        ("/net/udp", &["udp"], 10),
        ("/net/dk", &["dk"], 10),
        ("/net/ether0", &["ether"], 7),
        ("/net", &["netinfo", "netlog", "nettrace", "dns", "cs"], 2 + 8 + 4 + 2 + 2),
        ("/dev", &["eia", "devinfo"], 3 + 3),
        ("pipe", &["pipe"], 3),
    ];
    for (at, names, want) in mounts {
        let members: Vec<Source> = if at == "pipe" {
            // What `Proc::pipe` serves its two descriptors from.
            let fs: Fs = PipeFs::new();
            vec![Source::attach(&fs, "glenda", "").expect("attach")]
        } else {
            // Union members after the root file system's own directory.
            p.ns.resolve_all(at).into_iter().filter(|s| s.fs.fsname() != "root").collect()
        };
        let found: Vec<String> = members.iter().map(|s| s.fs.fsname()).collect();
        assert_eq!(found, names, "devices mounted at {at}");
        let seen: usize = members
            .iter()
            .map(|s| check_dir(&s.fs, &s.node, s.node.qid, &s.fs.fsname()))
            .sum();
        assert_eq!(seen, want, "files and directories under {at}");
    }
}
