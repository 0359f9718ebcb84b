//! IL against a stream oracle: whatever the wire loses, repeats or
//! reorders, each end reads the messages the other wrote — in order,
//! once, each with the boundaries it was written with — and both stacks
//! end with no conversation. IL promises no more at a close than that
//! what was read before it was right: a `close` sends no message again,
//! so an end that closes with messages still unacknowledged may leave
//! its peer a prefix of them. The oracle holds both: where both ends
//! stay until both have read everything, everything is read; where one
//! hangs up on its last write, the other reads a prefix and then the
//! end, and neither waits for good. It knows nothing of how `il.rs`
//! queues, acknowledges or asks, nor of which thread runs it. Every
//! case runs under the virtual clock (so this file is a binary of its
//! own: a virtual run is process-wide) and is a function of its seed.

mod oracle;

use plan9::inet::il::IlConn;
use plan9::inet::ip::{IpConfig, IpStack};
use plan9::netsim::ether::{EtherSegment, MacAddr};
use plan9::netsim::profile::Profiles;
use plan9_support::check::Gen;
use plan9_support::{time, vtime};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const A_MAC: MacAddr = [8, 0, 0x69, 0x23, 0, 1];
const B_MAC: MacAddr = [8, 0, 0x69, 0x23, 0, 2];
const PORT: u16 = 17008;

const ACCEPT: Duration = Duration::from_secs(30);

/// What one end of a case is to do.
struct End {
    /// The messages it writes, and the ones it is to read.
    mine: Arc<Vec<Vec<u8>>>,
    theirs: Arc<Vec<Vec<u8>>>,
    /// Hang up on the last write rather than wait for both readers.
    hasty: bool,
}

/// The connections of a case, for the watchdog to describe and close,
/// and how many of its two readers have read all there was to read.
#[derive(Default)]
struct Case {
    conns: Mutex<Vec<Arc<IlConn>>>,
    read_all: AtomicUsize,
    done: Arc<AtomicBool>,
}

/// Writes `msgs`, one `send` each. A peer that has hung up ends it.
fn write_all(conn: &Arc<IlConn>, msgs: &[Vec<u8>]) {
    for m in msgs {
        if conn.send(m).is_err() {
            return;
        }
    }
}

/// Reads until the end of the conversation, holding each message
/// against the one written at its place. Returns how many were read.
fn read_until_end(conn: &Arc<IlConn>, expect: &[Vec<u8>], case: &Case) -> Result<usize, String> {
    let mut n = 0;
    loop {
        if n == expect.len() {
            case.read_all.fetch_add(1, Ordering::SeqCst);
        }
        let Some(got) = conn.recv().map_err(|e| format!("read of message {n}: {e}"))? else {
            return Ok(n);
        };
        match expect.get(n) {
            Some(want) if *want == got => n += 1,
            Some(want) => {
                let place = expect.iter().position(|m| *m == got);
                return Err(format!(
                    "message {n} of {} read as {} bytes, written as {}; those bytes were written at {place:?}",
                    expect.len(),
                    got.len(),
                    want.len()
                ));
            }
            None => return Err(format!("a message of {} bytes after the last one written", got.len())),
        }
    }
}

/// One end of a case: a writer and a reader of the same conversation,
/// as kernel processes. The end hangs up when its writer is done and,
/// unless it is hasty, both readers have read everything.
fn both_ways(conn: Arc<IlConn>, case: &Arc<Case>, end: End) -> Result<(), String> {
    case.conns.lock().unwrap().push(Arc::clone(&conn));
    let (wconn, wcase, mine, hasty) = (Arc::clone(&conn), Arc::clone(case), end.mine, end.hasty);
    let writer = vtime::kproc("stream-writer", move || {
        write_all(&wconn, &mine);
        while !hasty && wcase.read_all.load(Ordering::SeqCst) < 2 && !wcase.done.load(Ordering::SeqCst) {
            // A hasty peer leaves this end's reader short: the end of
            // the conversation is then all there is to wait for.
            if wconn.state() != plan9::inet::il::IlState::Established {
                break;
            }
            time::sleep(Duration::from_millis(5));
        }
        wconn.close();
    })
    .expect("spawn writer");
    let read = read_until_end(&conn, &end.theirs, case);
    if read.is_err() {
        conn.close();
    }
    writer.join().expect("writer panicked");
    read.map(|_| ())
}

fn case(seed: u64) -> Result<(), String> {
    let mut g = Gen::from_seed(seed);
    let mut profile = Profiles::ether_calibrated().with_seed(g.u64());
    // One case in eight on a clean wire; the rest draw each impairment
    // or leave it out.
    if g.usize_in(0..8) != 0 {
        let mut roll = |max: f64| if g.bool() { g.f64_in(0.0..max) } else { 0.0 };
        profile = profile.with_loss(roll(0.08)).with_dup(roll(0.10)).with_reorder(roll(0.25));
    }
    let seg = EtherSegment::new(profile.clone());
    let a = IpStack::new_pooled(seg.attach(A_MAC), IpConfig::local("10.23.0.1"));
    let b = IpStack::new_pooled(seg.attach(B_MAC), IpConfig::local("10.23.0.2"));
    // ARP is not the subject.
    a.arp.learn(b.addr(), B_MAC);
    b.arp.learn(a.addr(), A_MAC);
    // Empty messages, one-frame messages, and ones IP must fragment.
    let messages = |g: &mut Gen| {
        let n = if g.usize_in(0..6) == 0 { 0 } else { g.usize_in(0..120) };
        Arc::new((0..n).map(|_| match g.usize_in(0..8) {
            0 => Vec::new(),
            1 => g.bytes(1400..9000),
            _ => g.bytes(1..600),
        }).collect::<Vec<_>>())
    };
    let (a_to_b, b_to_a) = (messages(&mut g), messages(&mut g));
    let (hasty_a, hasty_b) = (g.usize_in(0..3) == 0, g.usize_in(0..3) == 0);
    let wire = format!(
        "loss {:.3} dup {:.3} reorder {:.3}, {} and {} messages, hasty {hasty_a} {hasty_b}",
        profile.loss, profile.dup, profile.reorder, a_to_b.len(), b_to_a.len()
    );

    let shared = Arc::new(Case::default());
    let (wcase, wwire) = (Arc::clone(&shared), wire.clone());
    let dog = oracle::watchdog("il", seed, &shared.done, move || {
        let conns = wcase.conns.lock().unwrap();
        let status: Vec<String> = conns.iter().map(|c| format!("{c:?} {}", c.status_string())).collect();
        format!("({wwire}) {}", status.join("; "))
    });
    let listener = b.il_module().listen(&b, PORT).map_err(|e| format!("listen: {e}"))?;
    let (scase, b_end) = (Arc::clone(&shared), End { mine: Arc::clone(&b_to_a), theirs: Arc::clone(&a_to_b), hasty: hasty_b });
    let server = vtime::kproc("stream-server", move || {
        // Longer than `connect` keeps trying: a call that failed leaves
        // nobody to wait for. Nor does one whose caller hung up before
        // anything it said arrived: a Close that overtakes the rest of
        // the handshake ends the call before the listener has it.
        match listener.accept_timeout(ACCEPT) {
            Ok(conn) => both_ways(conn, &scase, b_end),
            Err(_) if hasty_a => Ok(()),
            Err(e) => Err(format!("accept: {e}")),
        }
    })
    .expect("spawn server");
    let a_end = End { mine: Arc::clone(&a_to_b), theirs: Arc::clone(&b_to_a), hasty: hasty_a };
    let client = a
        .il_module()
        .connect(&a, b.addr(), PORT)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|conn| both_ways(conn, &shared, a_end));
    let served = server.join().expect("server panicked");
    shared.done.store(true, Ordering::Release);
    dog.join().expect("watchdog panicked");
    client.map_err(|e| format!("a ({wire}): {e}"))?;
    served.map_err(|e| format!("b ({wire}): {e}"))?;
    // With nobody hasty, nobody hung up before both had read it all.
    if !hasty_a && !hasty_b && shared.read_all.load(Ordering::SeqCst) != 2 {
        return Err(format!("({wire}): an end that waited for its peer still read short"));
    }

    // Both ends closed: past the handshake, or the timers of an end
    // whose peer's Close was lost, neither table holds the conversation.
    oracle::settled("il", seed, &wire, || a.settle() + b.settle())
}

plan9_support::props! {
    /// 200 seeds; a failing one is printed by the runner and replays
    /// with `P9_CHECK_SEED`, a wedged one by the watchdog and replays
    /// with `P9_IL_CASE`.
    fn prop_what_is_written_is_read_in_order_once_with_its_boundaries(g, cases = 200) {
        oracle::run(oracle::next_seed("il", g), case);
    }
}

/// The case the oracle's first sweep wedged on, some five hundred seeds
/// in: the hasty end's Close is answered, the answer is lost, and an
/// acknowledgment that empties its send queue takes the timer that
/// would have sent the Close again with it — Closing for good, its
/// reader with it.
#[test]
fn a_close_whose_answer_is_lost_is_sent_again() {
    oracle::run(8832669866552219877, case);
}
