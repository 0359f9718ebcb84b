//! Integration: every kernel device a booted machine mounts is the same
//! kind of file tree.
//!
//! One walk over each device checks what the generic layer promises
//! (§2.2–2.3: "each device driver is a kernel-resident file system",
//! "all protocol devices look identical"): a directory's listing, `walk`
//! and `stat` agree entry by entry; `..` leads to the parent and the
//! root is its own; `walk` from a file is "not a directory" and an
//! unknown name "file does not exist"; a directory cannot be opened for
//! writing, nor can a file whose entry has no write bits.

use plan9::core::dev::PipeFs;
use plan9::core::machine::MachineBuilder;
use plan9::core::namespace::Source;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9::netsim::uart::uart_pair;
use plan9::ninep::dir::DIR_LEN;
use plan9::ninep::procfs::{OpenMode, ProcFs, ServeNode};
use plan9::ninep::{errstr, Dir, Qid};
use std::sync::Arc;

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

#[test]
fn every_mounted_device_is_the_same_kind_of_tree() {
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
    // Every protocol device lists `stats`, so every protocol fills it:
    // ASCII `key: count` lines, and under them the rows of a histogram
    // (`il.rtt count 0 avg 0us`), which start with its dotted name.
    for dir in &tables[..4] {
        let fd = p.open(&format!("{dir}/stats"), OpenMode::READ).expect("stats");
        let text = p.read_string(fd).expect("read stats");
        p.close(fd);
        assert!(text.contains(": "), "{dir}/stats has no counter: {text:?}");
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let counter = fields.len() == 2 && fields[0].ends_with(':') && fields[1].parse::<u64>().is_ok();
            let histogram = fields.len() > 2 && fields[0].contains('.');
            assert!(counter || histogram, "{dir}/stats: {line:?}");
        }
    }

    // (where it is mounted, the device names expected there, the files
    // and directories in all of them).
    let mounts: [(&str, &[&str], usize); 8] = [
        ("/net/il", &["il"], 10),
        ("/net/tcp", &["tcp"], 10),
        ("/net/udp", &["udp"], 10),
        ("/net/dk", &["dk"], 10),
        ("/net/ether0", &["ether"], 7),
        ("/net", &["netinfo", "netlog", "nettrace", "dns", "cs"], 2 + 7 + 4 + 2 + 2),
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
