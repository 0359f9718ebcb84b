//! `ninep::server::serve` under the virtual clock. Not among the
//! crate's unit tests: a virtual run is process-wide, and those run on
//! the real clock.

mod oracle;

use oracle::fs::{Hooked, Hooks};
use plan9_ninep::client::NineClient;
use plan9_ninep::codec::{decode_rmsg, encode_tmsg};
use plan9_ninep::procfs::{MemFs, OpenMode, ServeNode};
use plan9_ninep::server::{serve, NineService};
use plan9_ninep::transport::{MsgPipeEnd, MsgPipeSink, MsgSink};
use plan9_ninep::{Result, Rmsg, Tmsg};
use plan9_support::{time, vtime};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

#[test]
fn hangup_leaves_an_empty_kproc_census() {
    let vt = vtime::enter();
    let fs = MemFs::new("ram", "bootes");
    fs.put_file("/f", b"data").unwrap();
    let (client_end, server_end) = MsgPipeEnd::pair();
    let (ssink, ssource) = server_end.split();
    let server = vtime::kproc("serve", move || serve(fs, Box::new(ssource), Box::new(ssink))).unwrap();
    let (csink, csource) = client_end.split();
    let c = NineClient::new(Box::new(csink), Box::new(csource));
    // Two callers at once, so `serve` makes a second worker for their
    // walks and opens (it answers their reads itself) and one caller
    // reads the other's replies.
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let c = c.clone();
            vtime::kproc("caller", move || {
                let (fid, _) = c.attach("u", "").unwrap();
                c.walk(fid, "f").unwrap();
                c.open(fid, OpenMode::READ).unwrap();
                for _ in 0..50 {
                    assert_eq!(c.read(fid, 0, 8).unwrap(), b"data");
                }
                c.clunk(fid).unwrap();
            })
            .unwrap()
        })
        .collect();
    for h in callers {
        h.join().unwrap();
    }
    // The last clone of the client goes, and the transport with it.
    drop(c);
    server.join().unwrap().unwrap();
    // `serve` joined its workers before it returned: only this thread
    // is left on the clock.
    assert_eq!(vt.clock().census(), (1, 0));
}

/// A `MemFs` that does not say its files are data at hand, so every
/// operation on it takes a `9p-worker`, as one on a `listen` file does.
struct MayBlock(Arc<MemFs>);

impl Hooks for MayBlock {
    fn mem(&self) -> &MemFs {
        &self.0
    }
    fn may_block(&self, _n: Option<&ServeNode>) -> bool {
        true
    }
}

/// A sink that waits before a message is out, as an IL conversation
/// with a full window does, and keeps what it sent, passing it on to
/// the sink it wraps if there is one.
struct SlowSink(Arc<Mutex<Vec<Vec<u8>>>>, Option<MsgPipeSink>);

impl MsgSink for SlowSink {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        time::sleep(Duration::from_millis(5));
        self.0.lock().unwrap().push(msg.to_vec());
        self.1.as_mut().map_or(Ok(()), |to| to.sendmsg(msg))
    }
}

/// Aborts the process unless `done` is sent on within 30 s of real
/// time: the virtual clock stops for good when the one thread it lets
/// run blocks where it cannot see.
fn watchdog(what: &'static str) -> mpsc::Sender<()> {
    let (done, wedged) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if wedged.recv_timeout(Duration::from_secs(30)) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("{what} wedged the virtual clock");
            std::process::abort();
        }
    });
    done
}

/// Two callers on one client, and a sink in which the first one's
/// request waits: the second must park where the virtual clock can see
/// it, and not on an OS mutex held across the first one's send.
#[test]
fn a_request_waiting_in_the_sink_does_not_stop_the_next_callers_request() {
    let done = watchdog("a caller waiting for the client's sink");
    let vt = vtime::enter();
    let fs = MemFs::new("ram", "bootes");
    let (client_end, server_end) = MsgPipeEnd::pair();
    let (ssink, ssource) = server_end.split();
    let server = vtime::kproc("serve", move || serve(fs, Box::new(ssource), Box::new(ssink))).unwrap();
    let (csink, csource) = client_end.split();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let c = NineClient::new(Box::new(SlowSink(Arc::clone(&sent), Some(csink))), Box::new(csource));
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let c = c.clone();
            vtime::kproc("caller", move || c.attach("u", "").map(drop)).unwrap()
        })
        .collect();
    for h in callers {
        h.join().unwrap().unwrap();
    }
    assert_eq!(sent.lock().unwrap().len(), 2);
    drop(c);
    server.join().unwrap().unwrap();
    assert_eq!(vt.clock().census(), (1, 0));
    done.send(()).unwrap();
}

/// Two workers with a reply each, and a sink in which the first one's
/// waits: the second must park where the virtual clock can see it. On
/// an OS mutex it would be the one thread the clock lets run, blocked
/// for good on a holder that only the clock can wake — so the watchdog
/// is a real-time one, virtual time having stopped.
#[test]
fn a_reply_waiting_in_the_sink_does_not_stop_the_next_workers_reply() {
    let done = watchdog("a 9p-worker waiting for the reply sink");
    let vt = vtime::enter();
    let mem = MemFs::new("ram", "bootes");
    mem.put_file("/f", b"data").unwrap();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let svc = NineService::new(Arc::new(Hooked(MayBlock(mem))), Box::new(SlowSink(Arc::clone(&sent), None)));
    let attach = Tmsg::Attach { fid: 1, uname: "u".into(), aname: String::new(), ticket: Vec::new() };
    let setup = [attach, Tmsg::Walk { fid: 1, name: "f".into() }, Tmsg::Open { fid: 1, mode: OpenMode::READ.0 }];
    for (tag, t) in setup.iter().enumerate() {
        svc.input(&encode_tmsg(tag as u16, t)).unwrap();
        time::sleep(Duration::from_millis(20));
    }
    // Two reads in before either worker has run: one worker each.
    for tag in [7, 8] {
        svc.input(&encode_tmsg(tag, &Tmsg::Read { fid: 1, offset: 0, count: 8 })).unwrap();
    }
    time::sleep(Duration::from_millis(50));
    let replies: Vec<(u16, Rmsg)> =
        sent.lock().unwrap().iter().map(|raw| decode_rmsg(raw).unwrap()).collect();
    let reads: Vec<u16> = replies[3..]
        .iter()
        .map(|(tag, r)| match r {
            Rmsg::Read { data, .. } if data == b"data" => *tag,
            other => panic!("tag {tag}: {other:?}"),
        })
        .collect();
    assert_eq!(reads, [7, 8], "{replies:?}");
    svc.hangup();
    svc.wait();
    assert_eq!(vt.clock().census(), (1, 0));
    done.send(()).unwrap();
}
