//! netstat: walk `/net` on a live simulated host and print every
//! connection plus the stats tree.
//!
//! Two machines share a lossy Ethernet; gnot turns on IL tracing via
//! `/net/log/ctl`, dials an echo service on helix, and then reads the
//! network state back out of the file tree the way Plan 9 tools do:
//! connection directories for the conversations, `stats` files for the
//! counters, `/net/log/data` for the event trace.
//!
//! Run with `cargo run --example netstat`; with `-- --json` the same
//! state is emitted as one JSON document on stdout for scripts.

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::MachineBuilder;
use plan9::core::proc::Proc;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::profile::Profiles;
use plan9::ninep::procfs::OpenMode;
use plan9_support::json::quote;

/// One row per conversation of every protocol directory, like
/// `netstat(8)`: the status file already carries proto/conn, state and
/// endpoints.
fn conn_rows(p: &Proc) -> Vec<(String, String, String, String)> {
    let mut rows = Vec::new();
    for proto in ["il", "tcp", "udp"] {
        let Ok(entries) = p.ls(&format!("/net/{proto}")) else {
            continue;
        };
        for d in entries {
            if d.name.parse::<usize>().is_err() {
                continue;
            }
            let dir = format!("/net/{proto}/{}", d.name);
            let read_file = |name: &str| -> String {
                let Ok(fd) = p.open(&format!("{dir}/{name}"), OpenMode::READ) else {
                    return String::new();
                };
                let text = p.read_string(fd).unwrap_or_default();
                p.close(fd);
                text.trim_end().to_string()
            };
            rows.push((
                format!("{proto}/{}", d.name),
                read_file("local"),
                read_file("remote"),
                read_file("status"),
            ));
        }
    }
    rows
}

fn read_path(p: &Proc, path: &str) -> String {
    let fd = p.open(path, OpenMode::READ).expect("open");
    let text = p.read_string(fd).expect("read");
    p.close(fd);
    text
}

/// A `stats` file as a JSON object, a member a line: `name value`
/// rows of the registry as they stand, a histogram's header as
/// `name.count` and `name.avg_us` and its buckets as `name.LO-HIus`,
/// and the Ethernet header's `key: value` lines under their keys.
fn stats_object(text: &str) -> String {
    let mut members: Vec<(String, &str)> = Vec::new();
    for line in text.lines() {
        match line.split(' ').collect::<Vec<_>>()[..] {
            [name, "count", n, "avg", avg] => {
                members.push((format!("{name}.count"), n));
                members.push((format!("{name}.avg_us"), avg.trim_end_matches("us")));
            }
            [name, bucket, n] => members.push((format!("{name}.{bucket}"), n)),
            [name, value] => members.push((name.trim_end_matches(':').to_string(), value)),
            _ => panic!("stats line {line:?}"),
        }
    }
    let members: Vec<String> = members
        .iter()
        .map(|(k, v)| match v.parse::<u64>() {
            // A station address is digits too, and keeps its zeros.
            Ok(n) if n.to_string() == *v => format!("{}: {n}", quote(k)),
            _ => format!("{}: {}", quote(k), quote(v)),
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn cat(p: &Proc, path: &str) {
    println!("\ngnot% cat {path}");
    print!("{}", read_path(p, path));
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // A 10 Mbit/s Ethernet that loses and duplicates a few frames, so
    // the stats tree has something to say.
    let profile = Profiles::ether_fast().with_loss(0.03).with_dup(0.02);
    let seg = EtherSegment::new(profile);
    let ndb = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 proto=il proto=tcp
sys=gnot ip=135.104.9.40 proto=il proto=tcp
";
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0xf0], IpConfig::local("135.104.9.31"))
        .ndb(ndb)
        .build()
        .expect("boot helix");
    let gnot = MachineBuilder::new("gnot")
        .ether(&seg, [8, 0, 0x69, 2, 0x22, 0x40], IpConfig::local("135.104.9.40"))
        .ndb(ndb)
        .build()
        .expect("boot gnot");

    let p = gnot.proc();

    // Turn on IL tracing before any traffic: netlog is a ctl write.
    if !json {
        println!("gnot% echo set il > /net/log/ctl");
    }
    let ctl = p.open("/net/log/ctl", OpenMode::RDWR).expect("open log ctl");
    p.write_str(ctl, "set il").expect("set il");

    // An echo service on helix, announced before its listener starts so
    // the dial below finds it.
    let hp = helix.proc();
    let (_afd, adir) = announce(&hp, "il!*!echo").expect("announce");
    std::thread::spawn(move || {
        loop {
            let Ok((lcfd, ldir)) = listen(&hp, &adir) else { return };
            let Ok(dfd) = accept(&hp, lcfd, &ldir) else { return };
            while let Ok(msg) = hp.read(dfd, 8192) {
                if msg.is_empty() {
                    break;
                }
                let _ = hp.write(dfd, &msg);
            }
            hp.close(dfd);
            hp.close(lcfd);
        }
    });

    // Dial and push enough traffic through the lossy wire for IL's
    // recovery machinery to earn its keep.
    let conn = dial(&p, "net!helix!echo").expect("dial net!helix!echo");
    let payload = vec![0x55u8; 512];
    for _ in 0..30 {
        p.write(conn.data_fd, &payload).expect("write");
        let reply = p.read(conn.data_fd, 8192).expect("read");
        assert_eq!(reply.len(), payload.len());
    }

    // Conversation directories appear when the clone file is opened,
    // as in Figure 1.
    let eclone = p.open("/net/ether0/clone", OpenMode::RDWR).expect("ether clone");

    if json {
        // Everything the prose mode prints, as one JSON document.
        let conns: Vec<String> = conn_rows(&p)
            .into_iter()
            .map(|(c, l, r, s)| {
                format!(
                    "{{\"conn\": {}, \"local\": {}, \"remote\": {}, \"status\": {}}}",
                    quote(&c),
                    quote(&l),
                    quote(&r),
                    quote(&s)
                )
            })
            .collect();
        let log_lines: Vec<String> = read_path(&p, "/net/log/data")
            .lines()
            .map(quote)
            .collect();
        let lock_lines: Vec<String> = read_path(&p, "/net/log/lockgraph")
            .lines()
            .map(quote)
            .collect();
        println!("{{");
        println!("  \"conns\": [{}],", conns.join(", "));
        println!(
            "  \"stats\": {{\"il\": {}, \"ether0\": {}}},",
            stats_object(&read_path(&p, "/net/il/stats")),
            stats_object(&read_path(&p, "/net/ether0/1/stats"))
        );
        println!("  \"log\": [{}],", log_lines.join(", "));
        println!("  \"lockgraph\": [{}]", lock_lines.join(", "));
        println!("}}");
    } else {
        // The connection table, straight out of the name space.
        println!("\ngnot% netstat");
        for (c, l, r, s) in conn_rows(&p) {
            println!("{c:<12} {l:<24} {r:<24} {s}");
        }

        // The protocol counters: IL with its adaptive-RTT histogram,
        // then the interface and the wire under it, then the whole
        // table they are rows of.
        cat(&p, "/net/il/stats");
        cat(&p, "/net/ether0/1/stats");
        cat(&p, "/net/log/stats");

        // The IL event trace collected since `set il`.
        cat(&p, "/net/log/data");

        // The runtime lock-order graph lockdep has observed so far
        // (debug builds; release serves a one-line marker).
        cat(&p, "/net/log/lockgraph");
    }

    // `clear` zeroes the mask and flushes the ring.
    if !json {
        println!("\ngnot% echo clear > /net/log/ctl");
    }
    p.write_str(ctl, "clear").expect("clear");
    let fd = p.open("/net/log/data", OpenMode::READ).expect("open log data");
    let drained = p.read_string(fd).expect("read");
    assert!(drained.is_empty(), "log not flushed: {drained}");
    p.close(fd);

    p.close(eclone);
    p.close(conn.data_fd);
    p.close(conn.ctl_fd);
    p.close(ctl);
    if !json {
        println!("\nnetstat: OK");
    }
}
