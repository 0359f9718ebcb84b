//! The generated internet's database round-trips: the topology
//! generator's ndb text parses back through the real ndb machinery,
//! and a gateway machine's own CS and DNS — fed nothing but that
//! text — resolve a sampled host from every city. The filler
//! population (padding the file toward the paper's 43k-line scale)
//! deliberately belongs to no DNS zone, so one of its names must
//! come back as a resolution error, not an answer. Under the virtual
//! clock.

use plan9_ndb::db::Db;
use plan9_ninep::procfs::OpenMode;
use plan9_scenario::Topology;
use plan9_support::vtime;

/// Reads a query file to exhaustion, one answer line per read.
fn drain(p: &plan9_core::proc::Proc, fd: i32) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let chunk = p.read(fd, 256).expect("read query file");
        if chunk.is_empty() {
            break;
        }
        lines.push(String::from_utf8_lossy(&chunk).into_owned());
    }
    lines
}

#[test]
fn generated_ndb_round_trips_through_cs_and_dns() {
    let _vt = vtime::enter();
    let hosts_per_city = 3;
    let mut topo = Topology::grid_with(3, hosts_per_city, 2_000, 0x9db);

    // Parse-back: the generated text through the real parser.
    let db = Db::from_texts(&[&topo.ndb.text]);
    assert!(db.len() > 100, "filler population missing from the ndb");
    for (c, city) in topo.cities.iter().enumerate() {
        let sample = &topo.ndb.hosts[c * hosts_per_city + (c % hosts_per_city)];
        let entry = db
            .find_system(&sample.sys)
            .unwrap_or_else(|| panic!("{} lost in parse-back", sample.sys));
        assert_eq!(entry.get("ip"), Some(sample.ip.as_str()));
        assert_eq!(entry.get("dom"), Some(sample.dom.as_str()));

        // CS on the city's own gateway: sys name to dial string.
        let p = city.gateway.proc();
        let fd = p.open("/net/cs", OpenMode::RDWR).expect("open /net/cs");
        p.write_str(fd, &format!("il!{}", sample.sys)).expect("cs query");
        let answers = drain(&p, fd);
        p.close(fd);
        assert!(
            answers.iter().any(|l| l.contains(&sample.ip)),
            "cs on gw{c} answered {answers:?}, wanted {}",
            sample.ip
        );

        // DNS: the fully qualified name, through the zone walk.
        let fd = p.open("/net/dns", OpenMode::RDWR).expect("open /net/dns");
        p.write_str(fd, &format!("{} ip", sample.dom)).expect("dns query");
        let answers = drain(&p, fd);
        p.close(fd);
        assert!(
            answers.iter().any(|l| l.contains(&sample.ip)),
            "dns on gw{c} answered {answers:?}, wanted {}",
            sample.ip
        );
    }

    // A filler system is in the ndb but in no zone: NXDOMAIN.
    let filler = topo
        .ndb
        .text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("dom=").map(str::to_string))
        .find(|d| d.ends_with(".att.com"))
        .expect("filler domain in the generated ndb");
    let p = topo.cities[0].gateway.proc();
    let fd = p.open("/net/dns", OpenMode::RDWR).expect("open /net/dns");
    let err = p
        .write_str(fd, &format!("{filler} ip"))
        .expect_err("a filler name must not resolve");
    assert!(err.0.contains("no answer"), "unexpected NXDOMAIN shape: {err}");
    p.close(fd);

    topo.shutdown();
}
