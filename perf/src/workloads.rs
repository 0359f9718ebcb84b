//! The eight workloads, shared by `perf` and `perf-traced`.
//!
//! Every workload is a closed loop: one client thread, one
//! conversation, the next operation issued when the last has returned
//! and been checked byte for byte. The end-to-end workloads call only
//! the user-level surface (`MachineBuilder`, `Proc`, `dial`, `import`,
//! `exportfs_listener`, `serve_export`); README.md lists the exact
//! signatures pinned here.

use plan9_core::dial::{accept, announce, dial, listen};
use plan9_core::machine::{Machine, MachineBuilder};
use plan9_core::namespace::MREPL;
use plan9_core::proc::Proc;
use plan9_exportfs::{exportfs_listener, import, serve_export};
use plan9_inet::il::{IlConn, TryRecv};
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_ninep::client::NineClient;
use plan9_ninep::fcall::{Fid, MAX_FDATA};
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_ninep::server::NineService;
use plan9_ninep::transport::{MsgSink, MsgSource};
use plan9_support::rng::SmallRng;
use plan9_support::{pool, vtime};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Bytes in the served file: large against every cache line the loop
/// touches, small against memory.
pub const BLOB_LEN: usize = 1 << 20;

/// Seeds the lossy ether's impairment rolls.
const LOSS_SEED: u64 = 0x1993;

/// The directory helix exports and the file in it.
const EXPORT_DIR: &str = "/lib/perf";
const BLOB: &str = "blob";

/// What the checks after the last operation found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Finish {
    /// Read-back mismatches and hang-ups that went wrong.
    pub wrong: u64,
    /// IL and TCP conversations still open five seconds after hangup.
    pub leaked_convs: u64,
}

impl Finish {
    /// Everything that counts as a failed operation.
    pub fn total(&self) -> u64 {
        self.wrong + self.leaked_convs
    }
}

/// One benchmark workload as the runner sees it.
pub trait Workload {
    /// Runs one operation and checks its result; false when it failed
    /// or returned a wrong byte.
    fn op(&mut self) -> bool;

    /// Runs after the last operation: verifies what can only be checked
    /// at the end, hangs up, and waits for the conversation counts to
    /// return to what they were before the workload.
    fn finish(&mut self) -> Finish;

    /// The wire and stacks whose counters describe this workload;
    /// `None` when no network is involved.
    fn network(&self) -> Option<Network>;
}

/// An Ethernet and the IP stacks on it, client first.
pub type Network = (Arc<EtherSegment>, Vec<Arc<IpStack>>);

/// A workload's fixed parameters.
#[derive(Clone, Copy)]
pub struct Spec {
    /// The name used on the command line and in BENCHMARK.json.
    pub name: &'static str,
    /// Why the workload is in the set (one line, for BENCHMARK.json).
    pub why: &'static str,
    /// Payload bytes one operation moves.
    pub payload: usize,
    /// Operations run before timing starts (counted in `setup_s`).
    pub warmup: u64,
    /// `Some(n)`: runs on the virtual clock, `n` operations per trial,
    /// so every count is an exact function of the seed.
    pub vtime_ops: Option<u64>,
    /// Boots the machines and opens the conversation.
    pub build: fn(u64) -> Box<dyn Workload>,
}

/// The set, in report order.
pub const WORKLOADS: [Spec; 8] = [
    Spec {
        name: "rpc64_il",
        why: "64 B preads over an IL import: per-message cost (context switches, locks, allocations, headers) dominates",
        payload: 64,
        warmup: 20_000,
        vtime_ops: None,
        build: |seed| Box::new(ImportRead::new(seed, "il", 64, Profiles::ether_fast())),
    },
    Spec {
        name: "read8k_il",
        why: "8 KiB preads over the same IL import: per-byte cost (codec copies, IL segmentation, IP fragmentation) dominates",
        payload: MAX_FDATA,
        warmup: 5_000,
        vtime_ops: None,
        build: |seed| Box::new(ImportRead::new(seed, "il", MAX_FDATA, Profiles::ether_fast())),
    },
    Spec {
        name: "write8k_il",
        why: "8 KiB writes over the IL import, read back at the end: catches a read-side gain paid for by writes",
        payload: MAX_FDATA,
        warmup: 5_000,
        vtime_ops: None,
        build: |seed| Box::new(ImportWrite::new(seed)),
    },
    Spec {
        name: "read8k_tcp",
        why: "8 KiB preads over a TCP import (framed marshal, MSS segmentation, ack clocking): IL-only changes must not move it",
        payload: MAX_FDATA,
        warmup: 5_000,
        vtime_ops: None,
        build: |seed| Box::new(ImportRead::new(seed, "tcp", MAX_FDATA, Profiles::ether_fast())),
    },
    Spec {
        name: "dial_il",
        why: "dial il!helix!echo, one 64 B echo, close: connection set-up and teardown, cs and ndb, timers, conversation slots",
        payload: 64,
        warmup: 10_000,
        vtime_ops: None,
        build: |seed| Box::new(DialEcho::new(seed)),
    },
    Spec {
        name: "rpc64_pooled",
        why: "64 B reads by NineClient over IL between two pooled stacks served by NineService: the same IL code without core or devices",
        payload: 64,
        warmup: 20_000,
        vtime_ops: None,
        build: |seed| Box::new(PooledRead::new(seed)),
    },
    Spec {
        name: "rpc64_pipe",
        why: "64 B preads through serve_export over Proc::pipe: mount driver, ninep and streams only, so network changes must not move it",
        payload: 64,
        warmup: 20_000,
        vtime_ops: None,
        build: |seed| Box::new(PipeRead::new(seed)),
    },
    Spec {
        name: "lossy_il_vtime",
        why: "512 B preads over an IL import on the calibrated 5%-loss ether under the virtual clock: recovery cost, exact and repeatable",
        payload: 512,
        warmup: 8_000,
        vtime_ops: Some(4_000),
        build: |seed| {
            // The loss pattern is pinned; `seed` still picks contents
            // and offsets. Were it seeded too, the run-to-run spread
            // would be the spread of loss patterns, not of the machine.
            let profile = Profiles::ether_calibrated().with_loss(0.05).with_seed(LOSS_SEED);
            Box::new(ImportRead::new(seed, "il", 512, profile))
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// Whether a trial that has run `ops` operations in `since` is
    /// over: a modelled workload runs its fixed count, a real-clock
    /// one runs for `len`.
    pub fn trial_over(&self, ops: u64, since: Duration, len: Duration) -> bool {
        match self.vtime_ops {
            Some(n) => ops == n,
            None => since >= len,
        }
    }

    /// The `--quick` smoke: a tenth of the warm-up and of a modelled
    /// workload's operation count.
    pub fn quick(self) -> Spec {
        Spec {
            warmup: self.warmup / 10,
            vtime_ops: self.vtime_ops.map(|n| n / 10),
            ..self
        }
    }
}

/// The seeded file contents every read is compared against.
fn blob(seed: u64) -> Vec<u8> {
    let mut data = vec![0u8; BLOB_LEN];
    SmallRng::seed_from_u64(seed).fill_bytes(&mut data);
    data
}

/// Seeded offsets into the blob for reads or writes of `size` bytes.
struct Offsets {
    rng: SmallRng,
    size: usize,
}

impl Offsets {
    fn new(seed: u64, size: usize) -> Offsets {
        // A different stream from the contents, same seed.
        Offsets {
            rng: SmallRng::seed_from_u64(seed ^ 0x6f66_6673),
            size,
        }
    }

    fn next(&mut self) -> usize {
        self.rng.gen_range(0..=BLOB_LEN - self.size)
    }
}

const NDB: &str = "\
sys=helix dom=helix.research.bell-labs.com ip=135.104.9.31 proto=il proto=tcp
sys=gnot ip=135.104.9.40 proto=il proto=tcp
";

/// The paper's file server and terminal on one Ethernet.
pub(crate) struct Lab {
    pub(crate) seg: Arc<EtherSegment>,
    pub(crate) helix: Arc<Machine>,
    pub(crate) gnot: Arc<Machine>,
}

impl Lab {
    pub(crate) fn boot(profile: LinkProfile) -> Lab {
        let seg = EtherSegment::new(profile);
        let helix = MachineBuilder::new("helix")
            .ether(
                &seg,
                [8, 0, 0x69, 2, 0x22, 0xf0],
                IpConfig::local("135.104.9.31"),
            )
            .ndb(NDB)
            .build()
            .expect("boot helix");
        let gnot = MachineBuilder::new("gnot")
            .ether(
                &seg,
                [8, 0, 0x69, 2, 0x22, 0x40],
                IpConfig::local("135.104.9.40"),
            )
            .ndb(NDB)
            .build()
            .expect("boot gnot");
        Lab { seg, helix, gnot }
    }

    fn network(&self) -> Network {
        (Arc::clone(&self.seg), self.stacks())
    }

    fn stacks(&self) -> Vec<Arc<IpStack>> {
        [&self.gnot, &self.helix]
            .into_iter()
            .map(|m| Arc::clone(m.ip.as_ref().expect("machine has an ether")))
            .collect()
    }

    /// helix serves `EXPORT_DIR` over `proto`; gnot imports it at
    /// `/n/helix` and opens the blob.
    fn import_blob(&self, proto: &str, contents: &[u8], mode: OpenMode) -> (Proc, i32) {
        self.helix
            .rootfs
            .put_file(&format!("{EXPORT_DIR}/{BLOB}"), contents)
            .expect("seed blob");
        let addr = format!("{proto}!*!exportfs");
        if proto == "tcp" {
            tcp_exportfs_listener(self.helix.proc(), &addr);
        } else {
            exportfs_listener(self.helix.proc(), &addr, usize::MAX).expect("exportfs listener");
        }
        let p = self.gnot.proc();
        import(
            &p,
            &format!("{proto}!helix!exportfs"),
            EXPORT_DIR,
            "/n/helix",
            MREPL,
        )
        .expect("import");
        let fd = p
            .open(&format!("/n/helix/{BLOB}"), mode)
            .expect("open imported blob");
        (p, fd)
    }

    /// Undoes `import_blob`. `import` leaves the conversation's data
    /// file open in the importing process, so the conversation ends
    /// when that process does. Returns 1 if the mount was not there.
    fn hang_up(&self, p: &mut Proc, fd: i32) -> u64 {
        p.close(fd);
        let missing = p.ns.unmount("/n/helix").is_err() as u64;
        drop(std::mem::replace(p, self.gnot.proc()));
        missing
    }
}

/// `exportfs_listener` for TCP. The library routine never closes the
/// control file `listen` hands it, and a protocol device keeps a
/// conversation while any file in its directory is referenced; IL's
/// close handshake ends the conversation regardless, but a TCP call
/// would sit in Close_wait for good and fail the leak check. This one
/// differs only in closing that file (README.md, "Left for later").
fn tcp_exportfs_listener(p: Proc, addr: &str) {
    // The announcement stands while `p`, which holds its fd, lives.
    let (_afd, adir) = announce(&p, addr).expect("announce exportfs");
    vtime::kproc("perf-exportfs-listener", move || {
        while let Ok((lcfd, ldir)) = listen(&p, &adir) {
            if let Ok(dfd) = accept(&p, lcfd, &ldir) {
                let (wp, wfd) = p.fork_with_fd(dfd);
                vtime::kproc("perf-exportfs", move || {
                    let _ = serve_export(&wp, wfd, true);
                })
                .expect("spawn exportfs worker");
            }
            p.close(lcfd);
        }
    })
    .expect("spawn exportfs listener");
}

/// Open IL and TCP conversations across `stacks`.
fn conv_count(stacks: &[Arc<IpStack>]) -> usize {
    stacks
        .iter()
        .map(|s| s.il_module().conn_count() + s.tcp_module().conn_count())
        .sum()
}

/// Waits for the closing handshakes to finish; returns the
/// conversations still open after five seconds, which are leaks: the
/// stacks were booted for this workload and had none before it.
fn leaked_convs(stacks: &[Arc<IpStack>]) -> u64 {
    let deadline = plan9_support::time::now() + Duration::from_secs(5);
    while conv_count(stacks) > 0 && plan9_support::time::now() < deadline {
        plan9_support::time::sleep(Duration::from_millis(10));
    }
    conv_count(stacks) as u64
}

/// `rpc64_il`, `read8k_il`, `read8k_tcp`, `lossy_il_vtime`: preads of
/// one size at seeded offsets of an imported file.
struct ImportRead {
    lab: Lab,
    p: Proc,
    fd: i32,
    contents: Vec<u8>,
    offsets: Offsets,
}

impl ImportRead {
    fn new(seed: u64, proto: &str, size: usize, profile: LinkProfile) -> ImportRead {
        let lab = Lab::boot(profile);
        let contents = blob(seed);
        let (p, fd) = lab.import_blob(proto, &contents, OpenMode::READ);
        ImportRead {
            lab,
            p,
            fd,
            contents,
            offsets: Offsets::new(seed, size),
        }
    }
}

impl Workload for ImportRead {
    fn op(&mut self) -> bool {
        let off = self.offsets.next();
        let size = self.offsets.size;
        let got = self.p.pread(self.fd, off as u64, size);
        got.is_ok_and(|data| data == self.contents[off..off + size])
    }

    fn finish(&mut self) -> Finish {
        let wrong = self.lab.hang_up(&mut self.p, self.fd);
        Finish {
            wrong,
            leaked_convs: leaked_convs(&self.lab.stacks()),
        }
    }

    fn network(&self) -> Option<Network> {
        Some(self.lab.network())
    }
}

/// `write8k_il`: seek + write of `MAX_FDATA` seeded bytes at seeded
/// offsets; `finish` reads the whole file back against a shadow copy.
struct ImportWrite {
    lab: Lab,
    p: Proc,
    fd: i32,
    source: Vec<u8>,
    shadow: Vec<u8>,
    offsets: Offsets,
}

impl ImportWrite {
    fn new(seed: u64) -> ImportWrite {
        let lab = Lab::boot(Profiles::ether_fast());
        let shadow = vec![0u8; BLOB_LEN];
        let (p, fd) = lab.import_blob("il", &shadow, OpenMode::RDWR);
        ImportWrite {
            lab,
            p,
            fd,
            source: blob(seed),
            shadow,
            offsets: Offsets::new(seed, MAX_FDATA),
        }
    }
}

impl Workload for ImportWrite {
    fn op(&mut self) -> bool {
        // Where the bytes come from and where they go are independent
        // draws, so a write landing at the wrong offset cannot pass.
        let from = self.offsets.next();
        let to = self.offsets.next();
        let data = &self.source[from..from + MAX_FDATA];
        self.shadow[to..to + MAX_FDATA].copy_from_slice(data);
        self.p.seek(self.fd, to as u64).is_ok() && self.p.write(self.fd, data) == Ok(MAX_FDATA)
    }

    fn finish(&mut self) -> Finish {
        let wrong = self
            .shadow
            .chunks(MAX_FDATA)
            .enumerate()
            .filter(|(i, want)| {
                let got = self.p.pread(self.fd, (i * MAX_FDATA) as u64, MAX_FDATA);
                got.as_deref() != Ok(want)
            })
            .count() as u64;
        let wrong = wrong + self.lab.hang_up(&mut self.p, self.fd);
        Finish {
            wrong,
            leaked_convs: leaked_convs(&self.lab.stacks()),
        }
    }

    fn network(&self) -> Option<Network> {
        Some(self.lab.network())
    }
}

/// helix answers `il!*!echo`, one call at a time as the one client
/// makes them: echo until the caller hangs up, then hang up too.
fn spawn_echo_server(lab: &Lab) {
    let hp = lab.helix.proc();
    let (_afd, adir) = announce(&hp, "il!*!echo").expect("announce echo");
    vtime::kproc("perf-echo", move || {
        while let Ok((lcfd, ldir)) = listen(&hp, &adir) {
            if let Ok(dfd) = accept(&hp, lcfd, &ldir) {
                while let Ok(msg) = hp.read(dfd, MAX_FDATA) {
                    if msg.is_empty() || hp.write(dfd, &msg).is_err() {
                        break;
                    }
                }
                hp.close(dfd);
            }
            hp.close(lcfd);
        }
    })
    .expect("spawn echo server");
}

/// `dial_il`: a whole conversation per operation.
struct DialEcho {
    lab: Lab,
    p: Proc,
    contents: Vec<u8>,
    offsets: Offsets,
}

impl DialEcho {
    fn new(seed: u64) -> DialEcho {
        let lab = Lab::boot(Profiles::ether_fast());
        spawn_echo_server(&lab);
        let p = lab.gnot.proc();
        DialEcho {
            lab,
            p,
            contents: blob(seed),
            offsets: Offsets::new(seed, 64),
        }
    }
}

impl Workload for DialEcho {
    fn op(&mut self) -> bool {
        let off = self.offsets.next();
        let msg = &self.contents[off..off + 64];
        let Ok(conn) = dial(&self.p, "il!helix!echo") else {
            return false;
        };
        let ok = self.p.write(conn.data_fd, msg) == Ok(64)
            && self.p.read(conn.data_fd, MAX_FDATA).as_deref() == Ok(msg);
        self.p.close(conn.data_fd);
        self.p.close(conn.ctl_fd);
        ok
    }

    fn finish(&mut self) -> Finish {
        Finish {
            wrong: 0,
            leaked_convs: leaked_convs(&self.lab.stacks()),
        }
    }

    fn network(&self) -> Option<Network> {
        Some(self.lab.network())
    }
}

/// The ladder's protocol-device rung: `dial_il` with the dial taken
/// out, a 64 B echo through `/net/il/n/data` on one conversation.
pub(crate) struct EchoConversation {
    lab: Lab,
    p: Proc,
    data_fd: i32,
    contents: Vec<u8>,
    offsets: Offsets,
}

impl EchoConversation {
    pub(crate) fn new(lab: Lab, seed: u64) -> EchoConversation {
        spawn_echo_server(&lab);
        let p = lab.gnot.proc();
        let conn = dial(&p, "il!helix!echo").expect("dial echo");
        p.close(conn.ctl_fd);
        EchoConversation {
            lab,
            p,
            data_fd: conn.data_fd,
            contents: blob(seed),
            offsets: Offsets::new(seed, 64),
        }
    }
}

impl Workload for EchoConversation {
    fn op(&mut self) -> bool {
        let off = self.offsets.next();
        let msg = &self.contents[off..off + 64];
        self.p.write(self.data_fd, msg) == Ok(64)
            && self.p.read(self.data_fd, MAX_FDATA).as_deref() == Ok(msg)
    }

    fn finish(&mut self) -> Finish {
        self.p.close(self.data_fd);
        Finish {
            wrong: 0,
            leaked_convs: leaked_convs(&self.lab.stacks()),
        }
    }

    fn network(&self) -> Option<Network> {
        Some(self.lab.network())
    }
}

/// An IL conversation as a delimited 9P transport.
#[derive(Clone)]
struct IlIo(Arc<IlConn>);

impl MsgSink for IlIo {
    fn sendmsg(&mut self, msg: &[u8]) -> plan9_ninep::Result<()> {
        self.0.send(msg)
    }
}

impl MsgSource for IlIo {
    fn recvmsg(&mut self) -> plan9_ninep::Result<Option<Vec<u8>>> {
        self.0.recv()
    }
}

/// Feeds everything queued on a pool-serviced conversation to the 9P
/// service. Runs as a pool job on the conversation's shard.
fn drain(svc: &Weak<NineService>, conn: &Weak<IlConn>) {
    let (Some(svc), Some(conn)) = (svc.upgrade(), conn.upgrade()) else {
        return;
    };
    loop {
        match conn.try_recv() {
            Ok(TryRecv::Msg(m)) => {
                if svc.input(&m).is_err() {
                    conn.close();
                    return;
                }
            }
            Ok(TryRecv::Empty) => return,
            Ok(TryRecv::Eof) | Err(_) => {
                svc.hangup();
                return;
            }
        }
    }
}

/// `rpc64_pooled`: the cityload and scenario kernel. No machine, no
/// devices, no thread on the serving side: readiness submits a drain
/// job to the conversation's pool shard.
struct PooledRead {
    seg: Arc<EtherSegment>,
    stacks: Vec<Arc<IpStack>>,
    conn: Arc<IlConn>,
    _svc: Arc<NineService>,
    client: NineClient,
    fid: Fid,
    contents: Vec<u8>,
    offsets: Offsets,
}

impl PooledRead {
    fn new(seed: u64) -> PooledRead {
        const PORT: u16 = 17008;
        let seg = EtherSegment::new(Profiles::ether_fast());
        let client_stack =
            IpStack::new_pooled(seg.attach([8, 0, 1, 0, 0, 1]), IpConfig::local("10.0.0.1"));
        let server_stack =
            IpStack::new_pooled(seg.attach([8, 0, 1, 0, 0, 2]), IpConfig::local("10.0.0.2"));
        let contents = blob(seed);
        let fs = MemFs::new("perf", "bootes");
        fs.put_file(&format!("/{BLOB}"), &contents)
            .expect("seed blob");
        let fs: Arc<dyn ProcFs> = fs;

        let listener = server_stack
            .il_module()
            .listen(&server_stack, PORT)
            .expect("listen");
        let conn = client_stack
            .il_module()
            .connect(&client_stack, server_stack.addr(), PORT)
            .expect("dial");
        let srv = listener
            .accept_timeout(Duration::from_secs(30))
            .expect("accept");
        let svc = Arc::new(NineService::new(fs, Box::new(IlIo(Arc::clone(&srv)))));
        let (wsvc, wconn) = (Arc::downgrade(&svc), Arc::downgrade(&srv));
        let key = srv.conv_id();
        // The hook may fire under the conversation's lock: enqueue only.
        srv.set_rx_notify({
            let (wsvc, wconn) = (wsvc.clone(), wconn.clone());
            move || {
                let (wsvc, wconn) = (wsvc.clone(), wconn.clone());
                let _ = pool::submit(key, move || drain(&wsvc, &wconn));
            }
        });
        // Catch what landed before the hook was registered.
        drain(&wsvc, &wconn);

        let io = IlIo(Arc::clone(&conn));
        let client = NineClient::new(Box::new(io.clone()), Box::new(io));
        let (fid, _) = client.attach("perf", "").expect("attach");
        client.walk(fid, BLOB).expect("walk");
        client.open(fid, OpenMode::READ).expect("open");
        PooledRead {
            seg,
            stacks: vec![client_stack, server_stack],
            conn,
            _svc: svc,
            client,
            fid,
            contents,
            offsets: Offsets::new(seed, 64),
        }
    }
}

impl Workload for PooledRead {
    fn op(&mut self) -> bool {
        let off = self.offsets.next();
        let got = self.client.read(self.fid, off as u64, 64);
        got.is_ok_and(|data| data == self.contents[off..off + 64])
    }

    fn finish(&mut self) -> Finish {
        let wrong = self.client.clunk(self.fid).is_err() as u64;
        self.conn.close();
        Finish {
            wrong,
            leaked_convs: leaked_convs(&self.stacks),
        }
    }

    fn network(&self) -> Option<Network> {
        Some((Arc::clone(&self.seg), self.stacks.clone()))
    }
}

/// `rpc64_pipe`: exportfs on one end of a pipe, the mount driver on the
/// other; no network stack is ever built.
struct PipeRead {
    p: Proc,
    fd: i32,
    contents: Vec<u8>,
    offsets: Offsets,
}

impl PipeRead {
    fn new(seed: u64) -> PipeRead {
        let machine = MachineBuilder::new("gnot").build().expect("boot gnot");
        let contents = blob(seed);
        machine
            .rootfs
            .put_file(&format!("{EXPORT_DIR}/{BLOB}"), &contents)
            .expect("seed blob");
        let p = machine.proc();
        let (srv_fd, mnt_fd) = p.pipe().expect("pipe");
        let (srv, srv_fd) = p.fork_with_fd(srv_fd);
        vtime::kproc("perf-exportfs", move || {
            let _ = serve_export(&srv, srv_fd, false);
        })
        .expect("spawn exportfs");
        // The import command's initial protocol, spoken over the pipe.
        p.write(mnt_fd, EXPORT_DIR.as_bytes())
            .expect("name the root");
        assert_eq!(p.read(mnt_fd, 256).expect("export reply"), b"OK");
        p.mount_fd(mnt_fd, "", "/n/pipe", MREPL, false)
            .expect("mount pipe");
        let fd = p
            .open(&format!("/n/pipe/{BLOB}"), OpenMode::READ)
            .expect("open blob");
        PipeRead {
            p,
            fd,
            contents,
            offsets: Offsets::new(seed, 64),
        }
    }
}

impl Workload for PipeRead {
    fn op(&mut self) -> bool {
        let off = self.offsets.next();
        let got = self.p.pread(self.fd, off as u64, 64);
        got.is_ok_and(|data| data == self.contents[off..off + 64])
    }

    fn finish(&mut self) -> Finish {
        self.p.close(self.fd);
        Finish {
            wrong: self.p.ns.unmount("/n/pipe").is_err() as u64,
            leaked_convs: 0,
        }
    }

    fn network(&self) -> Option<Network> {
        None
    }
}
