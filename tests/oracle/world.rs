//! The machines and the service the tests share.

use plan9::core::dial::{accept, announce, listen};
use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::proc::Proc;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9_support::vtime;
use std::sync::Arc;

/// Machines on the Ethernet `seg`, each reading `ndb`: host `(name, n)`
/// is 10.`net`.0.`n`, at MAC 08:00:00:`net`:00:`n`.
pub fn ether_hosts<const N: usize>(seg: &Arc<EtherSegment>, net: u8, hosts: [(&str, u8); N], ndb: &str) -> [Arc<Machine>; N] {
    hosts_on(seg, None, net, hosts, ndb)
}

/// [`ether_hosts`], each also on the Datakit `dk` at `{prefix}/{name}`.
pub fn hosts_on<const N: usize>(
    seg: &Arc<EtherSegment>,
    dk: Option<(&Arc<DatakitSwitch>, &str)>,
    net: u8,
    hosts: [(&str, u8); N],
    ndb: &str,
) -> [Arc<Machine>; N] {
    hosts.map(|(name, n)| {
        let ip = IpConfig::local(&format!("10.{net}.0.{n}"));
        let m = MachineBuilder::new(name).ether(seg, [8, 0, 0, net, 0, n], ip);
        let m = match dk {
            Some((switch, prefix)) => m.datakit(switch, &format!("{prefix}/{name}")),
            None => m,
        };
        m.ndb(ndb).build().expect(name)
    })
}

/// helix on the Ethernet (10.21.0.1) and the Datakit, musca on the
/// Ethernet only (10.21.0.9), gnot on the Datakit only; each reads
/// `ndb`.
pub fn helix_musca_gnot(ndb: &str) -> (Arc<Machine>, Arc<Machine>, Arc<Machine>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let [helix] = hosts_on(&seg, Some((&switch, "nj/astro")), 21, [("helix", 1)], ndb);
    let [musca] = ether_hosts(&seg, 21, [("musca", 9)], ndb);
    let gnot = MachineBuilder::new("gnot").datakit(&switch, "nj/astro/gnot").ndb(ndb).build().expect("boot gnot");
    (helix, musca, gnot)
}

/// Announces `addr` on `m`, so that a dial may follow at once, and in
/// a kproc called `name` takes one call there and hands its data file
/// to `serve`.
pub fn answer_once<T: Send + 'static>(
    m: &Arc<Machine>,
    addr: &str,
    name: &str,
    serve: impl FnOnce(&Proc, i32) -> T + Send + 'static,
) -> vtime::KprocHandle<T> {
    let p = m.proc();
    let (_afd, adir) = announce(&p, addr).expect("announce");
    let answer = move || {
        let (lcfd, ldir) = listen(&p, &adir).expect("listen");
        serve(&p, accept(&p, lcfd, &ldir).expect("accept"))
    };
    vtime::kproc(name, answer).expect(name)
}

/// Answers one call at `addr` on `m`, echoing until the caller hangs up.
pub fn echo_once(m: &Arc<Machine>, addr: &str) {
    answer_once(m, addr, "echo", |p, dfd| {
        while let Ok(msg) = p.read(dfd, 65536) {
            if msg.is_empty() || p.write(dfd, &msg).is_err() {
                break;
            }
        }
    });
}
