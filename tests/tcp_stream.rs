//! TCP against a stream oracle: whatever the wire loses, repeats,
//! reorders or corrupts, each end reads the bytes the other wrote — in
//! order, once, with end of file after the writer's `close` and not
//! before — and both stacks end with no conversation. The oracle knows
//! nothing of how `tcp.rs` queues or acknowledges: it is a reference,
//! and ran against the queues before they were rewritten. Every case
//! runs under the virtual clock (so this file is a binary of its own:
//! a virtual run is process-wide) and is a function of its seed.

mod oracle;

use plan9::inet::ip::{IpConfig, IpStack};
use plan9::inet::tcp::TcpConn;
use plan9::netsim::ether::{EtherSegment, MacAddr};
use plan9::netsim::profile::Profiles;
use plan9_support::check::Gen;
use plan9_support::vtime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const A_MAC: MacAddr = [8, 0, 0x69, 0x22, 0, 1];
const B_MAC: MacAddr = [8, 0, 0x69, 0x22, 0, 2];
const PORT: u16 = 564;

const ACCEPT: Duration = Duration::from_secs(30);

/// The largest single write: past `SND_BUF_MAX`'s free space often
/// enough that writers block, and never a multiple of a segment.
const MAX_WRITE: usize = 40 * 1024;

/// Writes `data` in seeded sizes, then closes this end's half.
fn write_all(conn: &Arc<TcpConn>, data: &[u8], g: &mut Gen) -> Result<(), String> {
    let mut off = 0;
    while off < data.len() {
        let n = match g.usize_in(0..4) {
            0 => 1,
            1 => g.usize_in(1..64),
            _ => g.usize_in(1..MAX_WRITE + 1),
        }
        .min(data.len() - off);
        conn.write(&data[off..off + n]).map_err(|e| format!("write at {off}: {e}"))?;
        off += n;
    }
    conn.close();
    Ok(())
}

/// Reads with seeded `max` until end of file, holding every byte
/// against `expect` at its offset in the stream.
fn read_all(conn: &Arc<TcpConn>, expect: &[u8], g: &mut Gen) -> Result<(), String> {
    let mut off = 0;
    let mut ones = 0;
    loop {
        if ones == 0 && g.usize_in(0..16) == 0 {
            ones = g.usize_in(1..200); // a run of one-byte reads
        }
        let max = if ones > 0 {
            ones -= 1;
            1
        } else {
            g.usize_in(1..65537)
        };
        let got = conn.read(max).map_err(|e| format!("read at {off}: {e}"))?;
        if got.is_empty() {
            return if off == expect.len() {
                Ok(())
            } else {
                Err(format!("end of file at {off} of {}", expect.len()))
            };
        }
        if got.len() > max {
            return Err(format!("read({max}) at {off} returned {} bytes", got.len()));
        }
        if expect.get(off..off + got.len()) != Some(&got[..]) {
            let at = (0..got.len()).find(|&i| expect.get(off + i) != Some(&got[i]));
            return Err(format!(
                "{} bytes at {off} of {} differ from what was written, first at {:?}",
                got.len(),
                expect.len(),
                at.map(|i| off + i)
            ));
        }
        off += got.len();
    }
}

/// The connections of a case, for the watchdog to describe.
type Conns = Arc<Mutex<Vec<Arc<TcpConn>>>>;

/// One end of a case: a writer and a reader of the same connection, as
/// kernel processes. A failure aborts the connection, so that nothing
/// of the case is left waiting on it.
fn both_ways(
    conn: Arc<TcpConn>,
    conns: &Conns,
    mine: Arc<Vec<u8>>,
    theirs: Arc<Vec<u8>>,
    seed: u64,
) -> Result<(), String> {
    conns.lock().unwrap().push(Arc::clone(&conn));
    let wconn = Arc::clone(&conn);
    let writer = vtime::kproc("stream-writer", move || {
        let r = write_all(&wconn, &mine, &mut Gen::from_seed(seed));
        if r.is_err() {
            wconn.abort();
        }
        r
    })
    .expect("spawn writer");
    let r = read_all(&conn, &theirs, &mut Gen::from_seed(!seed));
    if r.is_err() {
        conn.abort();
    }
    let w = writer.join().expect("writer panicked");
    r.and(w)
}

fn case(seed: u64) -> Result<(), String> {
    let mut g = Gen::from_seed(seed);
    let mut profile = Profiles::ether_calibrated().with_seed(g.u64());
    // One case in eight on a clean wire; the rest draw each impairment
    // or leave it out.
    if g.usize_in(0..8) != 0 {
        let mut roll = |max: f64| if g.bool() { g.f64_in(0.0..max) } else { 0.0 };
        profile = profile
            .with_loss(roll(0.08))
            .with_dup(roll(0.10))
            .with_reorder(roll(0.25))
            .with_corrupt(roll(0.05));
    }
    let wire = format!(
        "loss {:.3} dup {:.3} reorder {:.3} corrupt {:.3}",
        profile.loss, profile.dup, profile.reorder, profile.corrupt
    );
    let seg = EtherSegment::new(profile);
    let a = IpStack::new_pooled(seg.attach(A_MAC), IpConfig::local("10.22.0.1"));
    let b = IpStack::new_pooled(seg.attach(B_MAC), IpConfig::local("10.22.0.2"));
    // ARP is not the subject, and has no checksum: a corrupted reply
    // would be believed, and the case spent calling a station that is
    // not there.
    a.arp.learn(b.addr(), B_MAC);
    b.arp.learn(a.addr(), A_MAC);
    let stream = |g: &mut Gen| {
        let len = match g.usize_in(0..6) {
            0 => 0,
            1 => g.usize_in(0..2000),
            _ => g.usize_in(0..300_000),
        };
        Arc::new(g.bytes(len..len + 1))
    };
    let (a_to_b, b_to_a) = (stream(&mut g), stream(&mut g));
    let (seed_a, seed_b) = (g.u64(), g.u64());

    let conns = Conns::default();
    let done = Arc::new(AtomicBool::new(false));
    let (wconns, wwire) = (Arc::clone(&conns), wire.clone());
    let dog = oracle::watchdog("tcp", seed, &done, move || {
        let conns = wconns.lock().unwrap();
        let status: Vec<String> = conns.iter().map(|c| format!("{c:?} {}", c.status_string())).collect();
        format!("({wwire}) {}", status.join("; "))
    });
    let listener = b.tcp_module().listen(&b, PORT).map_err(|e| format!("listen: {e}"))?;
    let (to_b, from_b, sconns) = (Arc::clone(&a_to_b), Arc::clone(&b_to_a), Arc::clone(&conns));
    let server = vtime::kproc("stream-server", move || {
        // Longer than `connect` keeps trying: a call that failed leaves
        // nobody to wait for.
        let conn = listener.accept_timeout(ACCEPT).map_err(|e| format!("accept: {e}"))?;
        both_ways(conn, &sconns, from_b, to_b, seed_b)
    })
    .expect("spawn server");
    let client = a
        .tcp_module()
        .connect(&a, b.addr(), PORT)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|conn| both_ways(conn, &conns, a_to_b, b_to_a, seed_a));
    let served = server.join().expect("server panicked");
    done.store(true, Ordering::Release);
    dog.join().expect("watchdog panicked");
    client.map_err(|e| format!("a ({wire}): {e}"))?;
    served.map_err(|e| format!("b ({wire}): {e}"))?;

    // Both halves closed: past the FINs, their acknowledgments and the
    // first closer's TIME-WAIT, neither table holds the conversation.
    oracle::settled("tcp", seed, &wire, || a.settle() + b.settle())
}

plan9_support::props! {
    /// 200 seeds; a failing one is printed by the runner and replays
    /// with `P9_CHECK_SEED`, a wedged one by the watchdog and replays
    /// with `P9_TCP_CASE`.
    fn prop_what_is_written_is_read_in_order_once_then_eof(g, cases = 200) {
        oracle::run(oracle::next_seed("tcp", g), case);
    }
}
