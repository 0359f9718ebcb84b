//! The layer ladder: a 64 B and an 8 KiB (or MTU) ping-pong through
//! each layer alone, timed by the benchmark's own spans around the
//! layer's public calls.
//!
//! Each rung reports the median round trip in nanoseconds. Self times
//! come from subtracting the rung below, up the stack `rpc64_il`
//! crosses: ether, IP/UDP, IL, the protocol device, then the 9P and
//! mount machinery (a pipe mount less the pipe). What they leave of a
//! whole `rpc64_il` round trip is `ladder.residual_pct`.
//!
//! The lower rungs build `IpStack::new_pooled` stacks and a
//! `NineService`; nothing here calls `IpStack::new` or
//! `ninep::server::serve`.

use crate::run::Metric;
use crate::stats::{mad_pct, quantile};
use crate::workloads::{self, EchoConversation, Lab, Workload};
use plan9_core::dial::cs_translate;
use plan9_core::namespace::MREPL;
use plan9_datakit::urp::{urp_dial, UrpListener};
use plan9_inet::il::{decode_il, encode_il, IlPacket, IlType, IL_PROTO};
use plan9_inet::ip::{decode_ip, encode_ip, IpConfig, IpHeader, IpStack};
use plan9_netsim::cyclone::cyclone_link;
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::fabric::DatakitSwitch;
use plan9_netsim::profile::Profiles;
use plan9_ninep::client::NineClient;
use plan9_ninep::codec::{decode_rmsg, decode_tmsg, encode_rmsg, encode_tmsg};
use plan9_ninep::fcall::{Rmsg, Tmsg, MAX_FDATA};
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_ninep::server::NineService;
use plan9_ninep::transport::{MsgPipeEnd, MsgSource};
use plan9_streams::stream_pipe;
use plan9_support::vtime::{self, KprocHandle};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle echo peer waits before it looks at its stop flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

struct Ladder {
    per_rung: Duration,
    samples: Vec<u32>,
    out: Vec<Metric>,
}

impl Ladder {
    /// Times `f` for `per_rung` after warming it for a tenth of that,
    /// `batch` calls per sample, and records the median per call.
    /// Sub-microsecond rungs take a batch so the clock reads vanish.
    fn rung(&mut self, name: &str, batch: u32, mut f: impl FnMut()) {
        let warm = Instant::now();
        while warm.elapsed() < self.per_rung / 10 {
            f();
        }
        self.samples.clear();
        let start = Instant::now();
        while start.elapsed() < self.per_rung {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            self.samples
                .push((t0.elapsed().as_nanos() / batch as u128) as u32);
        }
        self.samples.sort_unstable();
        let ns = quantile(&self.samples, 0.5) as f64;
        let as_f64: Vec<f64> = self.samples.iter().map(|&s| s as f64).collect();
        let (min, max) = (self.samples[0], self.samples[self.samples.len() - 1]);
        let over = format!(
            "min {min} max {max} mad {:.2}% n {}",
            mad_pct(&as_f64),
            self.samples.len()
        );
        self.out.push(Metric::new(name, "ns", ns).over(over));
    }

    /// A rung already measured.
    fn ns(&self, name: &str) -> f64 {
        let rung = self.out.iter().find(|m| m.name == name);
        rung.unwrap_or_else(|| panic!("no rung {name}")).value
    }
}

fn spawn_peer(name: &str, f: impl FnOnce() + Send + 'static) -> KprocHandle<()> {
    vtime::kproc(name, f).expect("spawn echo peer")
}

fn join(peer: KprocHandle<()>) {
    peer.join().expect("echo peer panicked");
}

fn pooled_pair() -> (Arc<IpStack>, Arc<IpStack>) {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let a = IpStack::new_pooled(seg.attach([8, 0, 2, 0, 0, 1]), IpConfig::local("10.1.0.1"));
    let b = IpStack::new_pooled(seg.attach([8, 0, 2, 0, 0, 2]), IpConfig::local("10.1.0.2"));
    (a, b)
}

fn codec_rungs(l: &mut Ladder) {
    for (label, size) in [("64", 64usize), ("8k", MAX_FDATA)] {
        let t = Tmsg::Read {
            fid: 1,
            offset: 4096,
            count: size as u16,
        };
        let r = Rmsg::Read {
            fid: 1,
            data: vec![0x5a; size],
        };
        l.rung(&format!("ninep.codec.rt{label}_ns"), 16, || {
            let tb = encode_tmsg(7, black_box(&t));
            black_box(decode_tmsg(&tb).expect("decode Tread"));
            let rb = encode_rmsg(7, black_box(&r));
            black_box(decode_rmsg(&rb).expect("decode Rread"));
        });
    }
    let il = IlPacket {
        typ: IlType::Data,
        src: 1,
        dst: 2,
        id: 9,
        ack: 8,
        payload: vec![0x5a; MAX_FDATA],
    };
    l.rung("inet.il.codec8k_ns", 16, || {
        let b = encode_il(black_box(&il));
        black_box(decode_il(&b).expect("decode il"));
    });
    let hdr = IpHeader {
        src: plan9_inet::IpAddr::parse("10.1.0.1").expect("addr"),
        dst: plan9_inet::IpAddr::parse("10.1.0.2").expect("addr"),
        proto: IL_PROTO,
        id: 1,
        frag_offset: 0,
        more_frags: false,
    };
    let payload = vec![0x5a; 1480];
    l.rung("inet.ip.codec1500_ns", 16, || {
        let b = encode_ip(black_box(&hdr), &payload);
        black_box(decode_ip(&b).expect("decode ip"));
    });
}

/// 9P client against a `NineService`, nothing but a message pipe
/// between them: the pooled service model without a network.
fn ninep_rpc_rungs(l: &mut Ladder) {
    let fs = MemFs::new("ladder", "bootes");
    fs.put_file("/blob", &vec![0x5a; MAX_FDATA])
        .expect("seed blob");
    let fs: Arc<dyn ProcFs> = fs;
    let (near, far) = MsgPipeEnd::pair();
    let (far_sink, mut far_source) = far.split();
    let svc = NineService::new(fs, Box::new(far_sink));
    // Never joined: the client's demux kproc owns the sending half for
    // as long as it waits on this peer's, so neither end of a message
    // pipe can hang up first. Both park until the process exits.
    spawn_peer("ladder-9p", move || {
        while let Ok(Some(m)) = far_source.recvmsg() {
            if svc.input(&m).is_err() {
                break;
            }
        }
        svc.hangup();
    });
    let (sink, source) = near.split();
    let client = NineClient::new(Box::new(sink), Box::new(source));
    let (fid, _) = client.attach("ladder", "").expect("attach");
    client.walk(fid, "blob").expect("walk");
    client.open(fid, OpenMode::READ).expect("open");
    for (label, size) in [("64", 64), ("8k", MAX_FDATA)] {
        l.rung(&format!("ninep.rpc.rt{label}_ns"), 1, || {
            assert_eq!(client.read(fid, 0, size).expect("read").len(), size);
        });
    }
}

fn stream_pipe_rungs(l: &mut Ladder) {
    let (near, far) = stream_pipe();
    let peer = spawn_peer("ladder-pipe", move || {
        while let Ok(m) = far.read(1 << 16) {
            if m.is_empty() || far.write(&m).is_err() {
                break;
            }
        }
    });
    for (label, size) in [("64", 64), ("8k", MAX_FDATA)] {
        let msg = vec![0x5a; size];
        l.rung(&format!("streams.pipe.rt{label}_ns"), 1, || {
            near.write(&msg).expect("pipe write");
            let mut got = 0;
            while got < size {
                got += near.read(1 << 16).expect("pipe read").len();
            }
        });
    }
    near.destroy();
    join(peer);
}

/// The procedural form: a MemFs bound into the name space, no RPC.
fn local_read_rung(l: &mut Ladder, lab: &Lab) {
    let fs = MemFs::new("local", "bootes");
    fs.put_file("/blob", &vec![0x5a; MAX_FDATA])
        .expect("seed blob");
    let fs: Arc<dyn ProcFs> = fs;
    let p = lab.gnot.proc();
    p.mount_fs(&fs, "", "/n/local", MREPL).expect("mount_fs");
    let fd = p.open("/n/local/blob", OpenMode::READ).expect("open");
    l.rung("core.local.read64_ns", 16, || {
        assert_eq!(black_box(p.pread(fd, 128, 64)).expect("pread").len(), 64);
    });
}

fn ether_rungs(l: &mut Ladder) {
    const ETHERTYPE: u16 = 0x88b5; // IEEE local experimental
    let seg = EtherSegment::new(Profiles::ether_fast());
    let (near, far) = (
        seg.attach([8, 0, 3, 0, 0, 1]),
        seg.attach([8, 0, 3, 0, 0, 2]),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let peer = spawn_peer("ladder-ether", {
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::SeqCst) {
                if let Some(f) = far.recv_timeout(IDLE_POLL) {
                    far.send(f.src, ETHERTYPE, &f.payload).expect("ether echo");
                }
            }
        }
    });
    for (label, size) in [("64", 64), ("1500", near.payload_mtu().min(1500))] {
        let msg = vec![0x5a; size];
        l.rung(&format!("netsim.ether.rt{label}_ns"), 1, || {
            near.send([8, 0, 3, 0, 0, 2], ETHERTYPE, &msg)
                .expect("ether send");
            assert_eq!(near.recv().expect("ether recv").payload.len(), size);
        });
    }
    stop.store(true, Ordering::SeqCst);
    join(peer);
}

fn udp_rung(l: &mut Ladder) {
    const PORT: u16 = 7;
    let (a, b) = pooled_pair();
    let far = b.udp_module().bind(&b, PORT).expect("bind echo");
    let near = a.udp_module().bind(&a, 0).expect("bind");
    let stop = Arc::new(AtomicBool::new(false));
    let peer = spawn_peer("ladder-udp", {
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::SeqCst) {
                if let Ok((src, sport, data)) = far.recv_timeout(IDLE_POLL) {
                    far.send_to(src, sport, &data).expect("udp echo");
                }
            }
        }
    });
    let msg = [0x5a; 64];
    l.rung("inet.udp.rt64_ns", 1, || {
        near.send_to(b.addr(), PORT, &msg).expect("udp send");
        assert_eq!(near.recv().expect("udp recv").2.len(), 64);
    });
    stop.store(true, Ordering::SeqCst);
    join(peer);
}

fn il_rungs(l: &mut Ladder) {
    const PORT: u16 = 17007;
    let (a, b) = pooled_pair();
    let listener = b.il_module().listen(&b, PORT).expect("listen");
    let near = a.il_module().connect(&a, b.addr(), PORT).expect("connect");
    let far = listener
        .accept_timeout(Duration::from_secs(30))
        .expect("accept");
    let peer = spawn_peer("ladder-il", move || {
        while let Ok(Some(m)) = far.recv() {
            if far.send(&m).is_err() {
                break;
            }
        }
        far.close();
    });
    for (label, size) in [("64", 64), ("8k", MAX_FDATA)] {
        let msg = vec![0x5a; size];
        l.rung(&format!("inet.il.rt{label}_ns"), 1, || {
            near.send(&msg).expect("il send");
            assert_eq!(near.recv().expect("il recv").expect("il eof").len(), size);
        });
    }
    near.close();
    join(peer);
}

fn tcp_rungs(l: &mut Ladder) {
    const PORT: u16 = 7;
    let (a, b) = pooled_pair();
    let listener = b.tcp_module().listen(&b, PORT).expect("listen");
    let near = a.tcp_module().connect(&a, b.addr(), PORT).expect("connect");
    let far = listener
        .accept_timeout(Duration::from_secs(30))
        .expect("accept");
    let peer = spawn_peer("ladder-tcp", move || {
        while let Ok(m) = far.read(1 << 16) {
            if m.is_empty() || far.write(&m).is_err() {
                break;
            }
        }
        far.close();
    });
    for (label, size) in [("64", 64), ("8k", MAX_FDATA)] {
        let msg = vec![0x5a; size];
        l.rung(&format!("inet.tcp.rt{label}_ns"), 1, || {
            near.write(&msg).expect("tcp write");
            let mut got = 0;
            while got < size {
                let m = near.read(1 << 16).expect("tcp read");
                assert!(!m.is_empty(), "tcp eof");
                got += m.len();
            }
        });
    }
    near.close();
    join(peer);
}

fn urp_rungs(l: &mut Ladder) {
    let sw = DatakitSwitch::new(Profiles::datakit_fast());
    let near_line = sw.attach("nj/astro/near").expect("attach near");
    let listener = UrpListener::new(sw.attach("nj/astro/far").expect("attach far"));
    let accept = vtime::kproc("ladder-urp-accept", move || {
        listener.accept().expect("accept").0
    })
    .expect("spawn urp accept");
    let near = urp_dial(&near_line, "nj/astro/far!echo").expect("dial");
    let far = accept.join().expect("urp accept panicked");
    let peer = spawn_peer("ladder-urp", move || {
        while let Some(m) = far.recv() {
            if far.send(&m).is_err() {
                break;
            }
        }
        far.close();
    });
    for (label, size) in [("64", 64), ("8k", MAX_FDATA)] {
        let msg = vec![0x5a; size];
        l.rung(&format!("datakit.urp.rt{label}_ns"), 1, || {
            near.send(&msg).expect("urp send");
            assert_eq!(near.recv().expect("urp eof").len(), size);
        });
    }
    near.close();
    join(peer);
}

fn cyclone_rungs(l: &mut Ladder) {
    let (near, far) = cyclone_link(Profiles::cyclone_fast());
    let peer = spawn_peer("ladder-cyclone", move || {
        while let Some(m) = far.recv() {
            if far.send(&m).is_err() {
                break;
            }
        }
    });
    for (label, size) in [("64", 64), ("8k", MAX_FDATA)] {
        let msg = vec![0x5a; size];
        l.rung(&format!("netsim.cyclone.rt{label}_ns"), 1, || {
            near.send(&msg).expect("cyclone send");
            assert_eq!(near.recv().expect("cyclone eof").len(), size);
        });
    }
    drop(near);
    join(peer);
}

/// Times a whole workload's operation as a rung, then hangs it up.
fn workload_rung(l: &mut Ladder, name: &str, mut w: Box<dyn Workload>) {
    l.rung(name, 1, || assert!(w.op(), "{name}: wrong bytes"));
    assert_eq!(w.finish().total(), 0, "{name}: failed final checks");
}

/// Runs every rung for `per_rung` and returns the (a) metrics.
pub fn measure(seed: u64, per_rung: Duration) -> Vec<Metric> {
    let mut l = Ladder {
        per_rung,
        samples: Vec::with_capacity(1 << 16),
        out: Vec::new(),
    };
    codec_rungs(&mut l);
    ninep_rpc_rungs(&mut l);
    stream_pipe_rungs(&mut l);
    ether_rungs(&mut l);
    udp_rung(&mut l);
    il_rungs(&mut l);
    tcp_rungs(&mut l);
    urp_rungs(&mut l);
    cyclone_rungs(&mut l);

    let lab = Lab::boot(Profiles::ether_fast());
    local_read_rung(&mut l, &lab);
    let p = lab.gnot.proc();
    l.rung("cs.translate_ns", 1, || {
        assert!(!cs_translate(&p, "net!helix!9fs").expect("cs").is_empty());
    });
    l.rung("ndb.lookup_ns", 16, || {
        black_box(
            lab.gnot
                .db
                .find_system(black_box("helix"))
                .expect("helix in ndb"),
        );
    });
    workload_rung(
        &mut l,
        "core.devproto.rt64_ns",
        Box::new(EchoConversation::new(lab, seed)),
    );
    workload_rung(
        &mut l,
        "core.mount.rt64_ns",
        (workloads::find("rpc64_pipe").expect("rpc64_pipe").build)(seed),
    );
    workload_rung(
        &mut l,
        "exportfs.import.rt64_ns",
        (workloads::find("rpc64_il").expect("rpc64_il").build)(seed),
    );

    // Self times, by subtraction up the stack rpc64_il crosses.
    let (ether, udp, il) = (
        l.ns("netsim.ether.rt64_ns"),
        l.ns("inet.udp.rt64_ns"),
        l.ns("inet.il.rt64_ns"),
    );
    let selfs = [
        ("ladder.self.ether_ns", ether),
        ("ladder.self.ip_udp_ns", udp - ether),
        ("ladder.self.il_ns", il - udp),
        (
            "ladder.self.devproto_ns",
            l.ns("core.devproto.rt64_ns") - il,
        ),
        (
            "ladder.self.ninep_mount_ns",
            l.ns("core.mount.rt64_ns") - l.ns("streams.pipe.rt64_ns"),
        ),
    ];
    let sum: f64 = selfs.iter().map(|(_, ns)| ns).sum();
    let import = l.ns("exportfs.import.rt64_ns");
    for (name, ns) in selfs {
        l.out.push(Metric::new(name, "ns", ns));
    }
    l.out.push(Metric::new(
        "ladder.residual_pct",
        "%",
        100.0 * (import - sum) / import,
    ));
    l.out
}
