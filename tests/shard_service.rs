//! `inet::il::serve_on_shard` under the virtual clock, where a kproc
//! shows in the census the moment it is made: a conversation fed from
//! its worker-pool shard costs a thread only for an operation that may
//! block. In a binary of its own: a virtual run is process-wide.

use plan9_inet::il::{serve_on_shard, IlConn, IlIo};
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::{LinkProfile, Profiles};
use plan9_ninep::client::NineClient;
use plan9_ninep::codec::{decode_rmsg, encode_tmsg};
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs, ServeNode};
use plan9_ninep::{Dir, Result, Rmsg, Tmsg};
use plan9_support::chan::{unbounded, Receiver, Sender};
use plan9_support::{pool, time, vtime};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const PORT: u16 = 17008;

/// Two pooled stacks on a segment of their own: a client and a server.
fn stacks(net: u8, wire: LinkProfile) -> [Arc<IpStack>; 2] {
    let seg = EtherSegment::new(wire);
    let mac = |host: u8| [8, 0, 77, net, 0, host];
    let stacks = [1, 2].map(|host| {
        let cfg = IpConfig::local(&format!("10.77.{net}.{host}"));
        IpStack::new_pooled(seg.attach(mac(host)), cfg)
    });
    // ARP is not the subject, and a lossy wire would make it one.
    stacks[0].arp.learn(stacks[1].addr(), mac(2));
    stacks[1].arp.learn(stacks[0].addr(), mac(1));
    stacks
}

/// [`stacks`] and an IL conversation between them: the dialing end and
/// the accepted end.
fn conversation(net: u8) -> (Arc<IlConn>, Arc<IlConn>, [Arc<IpStack>; 2]) {
    let [client, server] = stacks(net, Profiles::ether_fast());
    let listener = server.il_module().listen(&server, PORT).expect("listen");
    let conn = client.il_module().connect(&client, server.addr(), PORT).expect("dial");
    let srv = listener.accept_timeout(Duration::from_secs(30)).expect("accept");
    (conn, srv, [client, server])
}

/// Closes `conn` and waits for both ends to leave their tables. A
/// conversation left open keeps its timer on the wheel, which is the
/// process's: it would fire in the middle of the next test's run, at a
/// moment that depends on the real time between the two.
fn hang_up(conn: &Arc<IlConn>, stacks: &[Arc<IpStack>; 2]) {
    conn.close();
    let deadline = time::now() + Duration::from_secs(60);
    while stacks.iter().any(|s| s.il_module().conn_count() > 0) {
        assert!(time::now() < deadline, "a closed conversation is still in its table");
        time::sleep(Duration::from_millis(1));
    }
}

fn client_of(conn: &Arc<IlConn>) -> NineClient {
    let io = IlIo(Arc::clone(conn));
    NineClient::new(Box::new(io.clone()), Box::new(io))
}

fn tree() -> Arc<MemFs> {
    let mem = MemFs::new("ram", "bootes");
    mem.put_file("/f", b"data").unwrap();
    mem.put_file("/gate", b"late").unwrap();
    mem
}

#[test]
fn a_memfs_served_from_a_shard_makes_no_kproc() {
    let vt = vtime::enter();
    let (conn, srv, stacks) = conversation(1);
    let before = vt.clock().census().0;
    let _svc = serve_on_shard(&srv, tree());
    let c = client_of(&conn);
    // Each of these is placed by what `MemFs` says of the file, the
    // attach, the walk and the open as much as the reads: on the shard.
    let (fid, _) = c.attach("u", "").unwrap();
    assert_eq!(vt.clock().census().0, before);
    c.walk(fid, "f").unwrap();
    assert_eq!(vt.clock().census().0, before);
    c.open(fid, OpenMode::READ).unwrap();
    assert_eq!(vt.clock().census().0, before);
    for _ in 0..50 {
        assert_eq!(c.read(fid, 0, 8).unwrap(), b"data");
    }
    c.clunk(fid).unwrap();
    assert_eq!(vt.clock().census().0, before);
    hang_up(&conn, &stacks);
}

/// [`tree`], with reads of `/gate` waiting for the test's word as reads
/// of a `listen` file wait for a call; `/gate` alone may block.
struct GateFs {
    mem: Arc<MemFs>,
    open: Receiver<()>,
}

impl GateFs {
    fn is_gate(&self, n: &ServeNode) -> bool {
        self.mem.stat(n).map_or(true, |d| d.name == "gate")
    }
}

impl ProcFs for GateFs {
    fn fsname(&self) -> String {
        self.mem.fsname()
    }
    fn attach(&self, uname: &str, aname: &str) -> Result<ServeNode> {
        self.mem.attach(uname, aname)
    }
    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        self.mem.clone_node(n)
    }
    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        self.mem.walk(n, name)
    }
    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        self.mem.open(n, mode)
    }
    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        if self.is_gate(n) {
            self.open.recv().expect("the test holds the gate");
        }
        self.mem.read(n, offset, count)
    }
    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        self.mem.write(n, offset, data)
    }
    fn clunk(&self, n: &ServeNode) {
        self.mem.clunk(n)
    }
    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        self.mem.stat(n)
    }
    fn may_block(&self, n: Option<&ServeNode>) -> bool {
        n.is_some_and(|n| self.is_gate(n))
    }
}

fn open_file(c: &NineClient, name: &str) -> u16 {
    let (fid, _) = c.attach("u", "").unwrap();
    c.walk(fid, name).unwrap();
    c.open(fid, OpenMode::READ).unwrap();
    fid
}

#[test]
fn a_parked_read_takes_a_kproc_and_the_shard_answers_on() {
    let vt = vtime::enter();
    let (conn, srv, stacks) = conversation(2);
    let (gate_open, open): (Sender<()>, _) = unbounded();
    let _svc = serve_on_shard(&srv, Arc::new(GateFs { mem: tree(), open }));
    let c = client_of(&conn);
    let f = open_file(&c, "f");
    let before = vt.clock().census().0;
    let parked = {
        let c = c.clone();
        // The open of `/gate` is the first operation that may block.
        vtime::kproc("caller", move || c.read(open_file(&c, "gate"), 0, 8)).unwrap()
    };
    // While that read waits, the shard is free for the file at hand.
    for _ in 0..50 {
        assert_eq!(c.read(f, 0, 8).unwrap(), b"data");
    }
    assert!(!parked.is_finished());
    // The caller, and the one `9p-worker` its read is parked on.
    assert_eq!(vt.clock().census().0, before + 2);
    gate_open.send(()).unwrap();
    assert_eq!(parked.join().unwrap().unwrap(), b"late");
    // Kept until the hangup, as `serve` keeps its own.
    assert_eq!(vt.clock().census().0, before + 1);
    hang_up(&conn, &stacks);
    // The hangup reaches the shard; the worker ends with its channel.
    // A minute of virtual time is thousands of times what that takes.
    let deadline = time::now() + Duration::from_secs(60);
    while vt.clock().census().0 != before {
        let census = vt.clock().census();
        assert!(time::now() < deadline, "(registered, parked) = {census:?}, was {before} registered");
        time::sleep(Duration::from_millis(1));
    }
}

/// Sixty-four reads sent down `conn` before any reply is read: three
/// windows of replies for the service at `srv` to send, and on a wire
/// that loses some of them, more left unacknowledged at a time than a
/// window holds.
fn pipelined_reads(conn: &Arc<IlConn>, srv: &Arc<IlConn>) {
    let _svc = serve_on_shard(srv, tree());
    let fid = open_file(&client_of(conn), "f");
    let tags = 1000..1064u16;
    for tag in tags.clone() {
        conn.send(&encode_tmsg(tag, &Tmsg::Read { fid, offset: 0, count: 8 })).unwrap();
    }
    let mut answered = HashSet::new();
    for _ in tags.clone() {
        let raw = conn.recv().unwrap().expect("a reply, not the end of the conversation");
        match decode_rmsg(&raw).unwrap() {
            (tag, Rmsg::Read { data, .. }) if data == b"data" => assert!(answered.insert(tag)),
            other => panic!("got {other:?}"),
        }
    }
    assert_eq!(answered, tags.collect());
}

/// A worker that parked in `IlConn::send` on a full window would hold
/// up its shard: the timer that asks after the lost reply fires there,
/// and the acknowledgments that open the window come in by the
/// station's, which may be the same one — it would wait for good.
/// Eight conversations, one on each shard, so that whichever the
/// server's station is on, one of them shares it.
#[test]
fn a_full_window_stops_the_feeder_and_not_its_shard() {
    let _vt = vtime::enter();
    let case = vtime::kproc("case", || {
        let [client, server] = stacks(3, Profiles::ether_fast().with_loss(0.1).with_seed(23));
        let listener = server.il_module().listen(&server, PORT).expect("listen");
        let mut shards = HashSet::new();
        for lport in 6000.. {
            if shards.len() == pool::NSHARDS {
                break;
            }
            let il = client.il_module();
            let conn = il.connect_from(&client, lport, server.addr(), PORT).expect("dial");
            let srv = listener.accept_timeout(Duration::from_secs(30)).expect("accept");
            if shards.insert(pool::shard_of(srv.conv_id())) {
                pipelined_reads(&conn, &srv);
            }
            hang_up(&conn, &[Arc::clone(&client), Arc::clone(&server)]);
        }
    })
    .unwrap();
    // With every process parked and no timer armed a virtual clock
    // never moves: this one is the timer that makes a wedge a failure.
    let deadline = time::now() + Duration::from_secs(600);
    while !case.is_finished() {
        assert!(time::now() < deadline, "wedged: a shard is parked on a full window");
        time::sleep(Duration::from_millis(100));
    }
    case.join().unwrap();
}
