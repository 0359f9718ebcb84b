//! Announcements against a lifecycle model. For IL, TCP and Datakit a
//! seeded sequence of the §5.2 operations runs over two names of one
//! machine: announce, a `listen` that parks, a dial from elsewhere,
//! accept, `hangup` written to the announcement's ctl, close of its
//! descriptor, and announce again. A model says whether each name is
//! free or announced, and holds the system to it:
//!
//! - announce succeeds exactly when the name is free;
//! - every parked listen returns once: with a call, or after the
//!   announcement ends with an error;
//! - every dial to an announced name is accepted once or hung up, and a
//!   call still queued when its announcement ends is hung up;
//! - a dial to a free name fails: IL and TCP are refused, and a Datakit
//!   call is rejected with `unknown service: S`;
//! - at the end both IP stacks settle to no conversation and the kernel
//!   processes are as they were.
//!
//! Every case runs under the virtual clock (a binary of its own) and is
//! a function of its seed; a failing one replays with `P9_CHECK_SEED`,
//! a wedged one with `P9_LIFECYCLE_CASE`.

mod oracle;

use plan9::core::dial::{accept, announce, dial, listen};
use plan9::core::machine::{Machine, MachineBuilder};
use plan9::core::proc::Proc;
use plan9::datakit::urp::UrpConn;
use plan9::inet::ip::IpConfig;
use plan9::netsim::ether::EtherSegment;
use plan9::netsim::fabric::{DatakitLine, DatakitSwitch};
use plan9::netsim::profile::Profiles;
use plan9_support::chan::{unbounded, Receiver, Sender};
use plan9_support::check::Gen;
use plan9_support::{time, vtime, wheel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Virtual time a listen or a hangup is given to show.
const PATIENCE: Duration = Duration::from_secs(2);

/// Calls placed to one name, and listens parked on it, at most.
const MOST: usize = 5;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Proto {
    Il,
    Tcp,
    Dk,
}

impl Proto {
    fn net(self) -> &'static str {
        match self {
            Proto::Il => "il",
            Proto::Tcp => "tcp",
            Proto::Dk => "dk",
        }
    }

    /// The name of service `n`: a port for IP, a service for Datakit.
    fn name(self, n: usize) -> String {
        match self {
            Proto::Dk => format!("svc{n}"),
            _ => format!("{}", 17100 + n),
        }
    }
}

/// The dialing end of a call: a conversation of the dialing machine, or
/// a URP end on a line of its own (the one place a Datakit rejection's
/// reason can be read).
#[derive(Clone)]
enum Dialed {
    Net { data: i32, ctl: i32 },
    Dk(Arc<UrpConn>),
}

/// A call's 8-byte token, which the accepting end reads first, and the
/// answer it writes back.
fn token(call: usize) -> Vec<u8> {
    format!("call{call:04}").into_bytes()
}
const ANSWER: &[u8] = b"answered";

/// Reads `n` bytes (a TCP read may return fewer); `None` at the end of
/// the conversation or on an error.
fn read_n(p: &Proc, fd: i32, n: usize) -> Option<Vec<u8>> {
    let mut got = Vec::new();
    while got.len() < n {
        match p.read(fd, n - got.len()) {
            Ok(b) if !b.is_empty() => got.extend_from_slice(&b),
            _ => return None,
        }
    }
    Some(got)
}

/// Reads what comes next on a dialed call, in a process of its own:
/// `Err` if nothing comes in [`PATIENCE`], else the answer, or `None`
/// if the call was hung up.
fn next_on(cp: &Arc<Proc>, call: &Dialed) -> Result<Option<Vec<u8>>, ()> {
    let (tx, rx) = unbounded();
    let (cp, call) = (Arc::clone(cp), call.clone());
    vtime::kproc("lifecycle-read", move || {
        let got = match &call {
            Dialed::Net { data, .. } => read_n(&cp, *data, ANSWER.len()),
            Dialed::Dk(conn) => conn.recv(),
        };
        let _ = tx.send(got);
    })
    .expect("spawn reader");
    rx.recv_timeout(PATIENCE).map_err(|_| ())
}

/// What a listen returned: the call's ctl descriptor and directory.
type Listened = Result<(i32, String), String>;

/// One name's state, as the model has it and as the system gave it.
struct Name {
    name: String,
    /// The live announcement: its ctl descriptor and directory.
    ann: Option<(i32, String)>,
    /// Announcement descriptors hung up but still open.
    dead: Vec<i32>,
    /// Listens parked, whose results come back on `results`.
    parked: usize,
    results: (Sender<Listened>, Receiver<Listened>),
    /// Calls placed that no listen has taken, in the order placed.
    queued: VecDeque<usize>,
    /// Calls a listen took, and the listens' results not yet accepted.
    taken: Vec<usize>,
    ready: Vec<(i32, String)>,
}

/// What a case works on.
struct World {
    proto: Proto,
    helix: Arc<Machine>,
    musca: Arc<Machine>,
    /// The announcing process, shared by the listens it parks.
    sp: Arc<Proc>,
    /// The dialing process and the dialing Datakit line.
    cp: Arc<Proc>,
    line: DatakitLine,
    names: Vec<Name>,
    /// Every call placed to an announced name; `None` once it is over.
    calls: Vec<Option<Dialed>>,
    /// Accepted calls: the server's data descriptor and the call.
    accepted: Vec<(i32, usize)>,
}

impl World {
    fn ctx(&self, n: usize) -> String {
        format!("{} {}", self.proto.net(), self.names[n].name)
    }

    fn announce(&mut self, n: usize) -> Result<(), String> {
        let addr = format!("{}!*!{}", self.proto.net(), self.names[n].name);
        let free = self.names[n].ann.is_none();
        match (announce(&self.sp, &addr), free) {
            (Ok(ann), true) => self.names[n].ann = Some(ann),
            (Ok((fd, _)), false) => {
                self.sp.close(fd);
                return Err(format!("{}: announced twice", self.ctx(n)));
            }
            (Err(e), true) => return Err(format!("{}: announce of a free name failed: {e}", self.ctx(n))),
            (Err(_), false) => {}
        }
        Ok(())
    }

    /// Parks a listen; if a call is queued it must return with it.
    fn listen(&mut self, n: usize) -> Result<(), String> {
        let name = &mut self.names[n];
        let Some((_, adir)) = name.ann.clone() else { return Ok(()) };
        let (sp, tx) = (Arc::clone(&self.sp), name.results.0.clone());
        vtime::kproc("lifecycle-listen", move || {
            let _ = tx.send(listen(&sp, &adir).map_err(|e| e.to_string()));
        })
        .expect("spawn listen");
        name.parked += 1;
        if !name.queued.is_empty() {
            self.take(n)?;
        }
        Ok(())
    }

    /// A parked listen takes the first queued call.
    fn take(&mut self, n: usize) -> Result<(), String> {
        let ctx = self.ctx(n);
        let name = &mut self.names[n];
        match name.results.1.recv_timeout(PATIENCE) {
            Ok(Ok(call)) => {
                name.parked -= 1;
                name.ready.push(call);
                let first = name.queued.pop_front().expect("a queued call");
                name.taken.push(first);
                Ok(())
            }
            Ok(Err(e)) => Err(format!("{ctx}: a listen with a call queued failed: {e}")),
            Err(_) => Err(format!("{ctx}: a listen with a call queued still parked after {PATIENCE:?}")),
        }
    }

    fn dial(&mut self, n: usize) -> Result<(), String> {
        let ctx = self.ctx(n);
        let announced = self.names[n].ann.is_some();
        let call = self.calls.len();
        let name = self.names[n].name.clone();
        let dialed = match self.proto {
            Proto::Dk => {
                let dest = format!("nj/astro/helix!{name}");
                let circuit = self.line.dial(&dest).map_err(|e| format!("{ctx}: {e}"))?;
                if !announced {
                    let reason = (circuit.recv(), circuit.reject_reason());
                    let want = format!("unknown service: {name}");
                    return match reason {
                        (None, Some(r)) if r == want => Ok(()),
                        got => Err(format!("{ctx}: a call to a free name read {got:?}, not {want:?}")),
                    };
                }
                let conn = UrpConn::new(circuit);
                conn.send(&token(call)).map_err(|e| format!("{ctx}: send: {e}"))?;
                Dialed::Dk(conn)
            }
            proto => {
                let dest = format!("{}!10.21.0.1!{name}", proto.net());
                match (dial(&self.cp, &dest), announced) {
                    (Ok(d), true) => {
                        self.cp.write(d.data_fd, &token(call)).map_err(|e| format!("{ctx}: write: {e}"))?;
                        Dialed::Net { data: d.data_fd, ctl: d.ctl_fd }
                    }
                    (Ok(d), false) => {
                        self.cp.close(d.data_fd);
                        self.cp.close(d.ctl_fd);
                        return Err(format!("{ctx}: a dial to a free name was answered"));
                    }
                    (Err(e), true) => return Err(format!("{ctx}: a dial to an announced name failed: {e}")),
                    (Err(e), false) if e.to_string().contains("refused") => return Ok(()),
                    (Err(e), false) => return Err(format!("{ctx}: a dial to a free name: {e}, not refused")),
                }
            }
        };
        self.calls.push(Some(dialed));
        self.names[n].queued.push_back(call);
        if self.names[n].parked > 0 {
            self.take(n)?;
        }
        Ok(())
    }

    /// Accepts the oldest listen's call: it is a call a listen took, it
    /// is accepted once, and it answers.
    fn accept(&mut self, n: usize) -> Result<(), String> {
        let ctx = self.ctx(n);
        if self.names[n].ready.is_empty() {
            return Ok(());
        }
        let (lcfd, ldir) = self.names[n].ready.remove(0);
        let dfd = accept(&self.sp, lcfd, &ldir);
        self.sp.close(lcfd);
        let dfd = dfd.map_err(|e| format!("{ctx}: accept: {e}"))?;
        let Some(got) = read_n(&self.sp, dfd, 8) else {
            return Err(format!("{ctx}: an accepted call read nothing"));
        };
        let call = (0..self.calls.len()).find(|c| token(*c) == got);
        let Some(at) = call.and_then(|c| self.names[n].taken.iter().position(|t| *t == c)) else {
            return Err(format!("{ctx}: accepted {:?}, which no listen took", String::from_utf8_lossy(&got)));
        };
        let call = self.names[n].taken.remove(at);
        self.sp.write(dfd, ANSWER).map_err(|e| format!("{ctx}: answer: {e}"))?;
        let dialed = self.calls[call].clone().expect("a live call");
        match next_on(&self.cp, &dialed) {
            Ok(Some(a)) if a == ANSWER => {}
            got => return Err(format!("{ctx}: call {call} read {got:?} after it was accepted")),
        }
        self.accepted.push((dfd, call));
        Ok(())
    }

    /// Ends the announcement by `hangup` on its ctl or by closing its
    /// descriptor: its parked listens fail, and its queued calls are
    /// hung up.
    fn end(&mut self, n: usize, hangup: bool) -> Result<(), String> {
        let ctx = self.ctx(n);
        let Some((afd, _)) = self.names[n].ann.take() else {
            // Closing an announcement already hung up ends nothing more.
            if !hangup {
                if let Some(fd) = self.names[n].dead.pop() {
                    self.sp.close(fd);
                }
            }
            return Ok(());
        };
        if hangup {
            self.sp.write(afd, b"hangup").map_err(|e| format!("{ctx}: hangup: {e}"))?;
            self.names[n].dead.push(afd);
        } else {
            self.sp.close(afd);
        }
        let how = if hangup { "hung up" } else { "closed" };
        let parked = format!("{ctx}: a listen parked on an announcement {how}");
        while self.names[n].parked > 0 {
            match self.names[n].results.1.recv_timeout(PATIENCE) {
                Ok(Err(_)) => self.names[n].parked -= 1,
                Ok(Ok((_, ldir))) => return Err(format!("{parked} returned call {ldir}")),
                Err(_) => return Err(format!("{parked} is still parked {PATIENCE:?} later")),
            }
        }
        while let Some(call) = self.names[n].queued.pop_front() {
            self.hung_up(call, &format!("{ctx}: call {call}, queued on an announcement {how},"))?;
        }
        Ok(())
    }

    /// A call that must be over: its dialer reads the end of it.
    fn hung_up(&mut self, call: usize, what: &str) -> Result<(), String> {
        let dialed = self.calls[call].take().expect("a live call");
        let read = next_on(&self.cp, &dialed);
        self.hang(dialed);
        match read {
            Ok(None) => Ok(()),
            Ok(Some(b)) => Err(format!("{what} read {:?}", String::from_utf8_lossy(&b))),
            Err(()) => Err(format!("{what} is still open {PATIENCE:?} later")),
        }
    }

    fn hang(&self, dialed: Dialed) {
        match dialed {
            Dialed::Net { data, ctl } => {
                self.cp.close(data);
                self.cp.close(ctl);
            }
            Dialed::Dk(conn) => conn.close(),
        }
    }

    /// Ends everything, and checks that nothing is left.
    fn teardown(&mut self) -> Result<(), String> {
        for n in 0..self.names.len() {
            self.end(n, false)?;
            for fd in std::mem::take(&mut self.names[n].dead) {
                self.sp.close(fd);
            }
            // A listen's call not accepted ends with its ctl file.
            for (lcfd, _) in std::mem::take(&mut self.names[n].ready) {
                self.sp.close(lcfd);
            }
            let ctx = self.ctx(n);
            for call in std::mem::take(&mut self.names[n].taken) {
                self.hung_up(call, &format!("{ctx}: call {call}, taken by a listen whose call was closed,"))?;
            }
        }
        for (dfd, call) in std::mem::take(&mut self.accepted) {
            self.sp.close(dfd);
            let dialed = self.calls[call].take().expect("a live call");
            self.hang(dialed);
        }
        match self.calls.iter().position(Option::is_some) {
            Some(call) => Err(format!("{}: call {call} was neither accepted nor hung up", self.proto.net())),
            None => Ok(()),
        }
    }
}

fn world(proto: Proto) -> Result<World, String> {
    let seg = EtherSegment::new(Profiles::ether_fast());
    let switch = DatakitSwitch::new(Profiles::datakit_fast());
    let ndb = "\
sys=helix ip=10.21.0.1 dk=nj/astro/helix proto=il proto=tcp
sys=musca ip=10.21.0.9 proto=il proto=tcp
";
    let helix = MachineBuilder::new("helix")
        .ether(&seg, [8, 0, 0, 21, 0, 1], IpConfig::local("10.21.0.1"))
        .datakit(&switch, "nj/astro/helix")
        .ndb(ndb)
        .build()
        .map_err(|e| format!("boot helix: {e}"))?;
    let musca = MachineBuilder::new("musca")
        .ether(&seg, [8, 0, 0, 21, 0, 9], IpConfig::local("10.21.0.9"))
        .ndb(ndb)
        .build()
        .map_err(|e| format!("boot musca: {e}"))?;
    let line = switch.attach("nj/astro/caller").map_err(|e| format!("attach caller: {e}"))?;
    let names = (0..2)
        .map(|n| Name {
            name: proto.name(n),
            ann: None,
            dead: Vec::new(),
            parked: 0,
            results: unbounded(),
            queued: VecDeque::new(),
            taken: Vec::new(),
            ready: Vec::new(),
        })
        .collect();
    Ok(World {
        proto,
        sp: Arc::new(helix.proc()),
        cp: Arc::new(musca.proc()),
        helix,
        musca,
        line,
        names,
        calls: Vec::new(),
        accepted: Vec::new(),
    })
}

fn case(proto: Proto, seed: u64) -> Result<(), String> {
    // The timer wheel's thread is the clock's, made by its first timer:
    // make it before counting the case's processes.
    wheel::cancel(wheel::schedule(0, time::now() + PATIENCE, || {}).expect("arm the wheel"));
    let before = oracle::kprocs();
    let done = Arc::new(AtomicBool::new(false));
    let dog = oracle::watchdog("lifecycle", seed, &done, move || proto.net().to_string());
    let run = steps(proto, seed);
    done.store(true, Ordering::Release);
    dog.join().expect("watchdog panicked");
    let (helix, musca) = run?;
    let stacks = [&helix, &musca].map(|m| Arc::clone(m.ip.as_ref().expect("an IP stack")));
    oracle::settled("lifecycle", seed, proto.net(), || stacks.iter().map(|s| s.settle()).sum())?;
    drop((helix, musca, stacks));
    let deadline = time::now() + PATIENCE;
    while oracle::kprocs() > before && time::now() < deadline {
        time::sleep(Duration::from_millis(1));
    }
    match oracle::kprocs() {
        k if k == before => Ok(()),
        k => Err(format!("{}: {k} kernel processes at the end, {before} at the start", proto.net())),
    }
}

/// A case's operations, drawn from its seed, then its teardown; returns
/// the machines, to be settled.
fn steps(proto: Proto, seed: u64) -> Result<(Arc<Machine>, Arc<Machine>), String> {
    let mut g = Gen::from_seed(seed);
    let mut w = world(proto)?;
    for _ in 0..g.usize_in(4..40) {
        let n = g.usize_in(0..2);
        let name = &w.names[n];
        let calls = name.queued.len() + name.taken.len();
        match g.usize_in(0..12) {
            0..=1 => w.announce(n)?,
            2..=3 if name.parked < MOST => w.listen(n)?,
            4..=6 if calls < MOST => w.dial(n)?,
            7..=8 => w.accept(n)?,
            9 => w.end(n, true)?,
            10 => w.end(n, false)?,
            _ => {}
        }
    }
    w.teardown()?;
    Ok((Arc::clone(&w.helix), Arc::clone(&w.musca)))
}

plan9_support::props! {
    fn prop_an_il_announcement_lives_until_it_is_hung_up(g, cases = 200) {
        oracle::run(oracle::next_seed("lifecycle", g), |seed| case(Proto::Il, seed));
    }

    fn prop_a_tcp_announcement_lives_until_it_is_hung_up(g, cases = 200) {
        oracle::run(oracle::next_seed("lifecycle", g), |seed| case(Proto::Tcp, seed));
    }

    fn prop_a_datakit_announcement_lives_until_it_is_hung_up(g, cases = 200) {
        oracle::run(oracle::next_seed("lifecycle", g), |seed| case(Proto::Dk, seed));
    }
}
