//! URP against a stream oracle: whatever the circuit loses or repeats,
//! each end reads the messages the other wrote — in order, once, each
//! with the boundaries it was written with — and a closed conversation
//! leaves no kernel process behind. A Datakit circuit does not reorder
//! and checks its cells, so loss and duplication are all there is to
//! draw. A `close` says so once, in a cell the line may lose: where both
//! ends stay until both have read everything, everything is read; where
//! one hangs up on its last write, the other reads a prefix and then
//! the end, and neither waits for good. The oracle knows nothing of how
//! `urp.rs` acknowledges or probes, nor of which thread runs it. Every
//! case runs on the calibrated line under the virtual clock (so this
//! file is a binary of its own: a virtual run is process-wide) and is a
//! function of its seed.

mod oracle;

use plan9::datakit::urp::{urp_dial, UrpConn, UrpListener};
use plan9::netsim::fabric::DatakitSwitch;
use plan9::netsim::profile::Profiles;
use plan9_support::check::Gen;
use plan9_support::{time, vtime, wheel};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Virtual time a closed case is given to let its kernel processes go.
const SETTLE: Duration = Duration::from_secs(10);

/// What one end of a case is to do.
struct End {
    /// The messages it writes, and the ones it is to read.
    mine: Arc<Vec<Vec<u8>>>,
    theirs: Arc<Vec<Vec<u8>>>,
    /// Hang up on the last write rather than wait for both readers.
    hasty: bool,
}

/// The conversations of a case, for the watchdog to describe (held
/// weakly: an end that has let its conversation go hangs up the
/// circuit), and how many of its two readers have read all there was.
#[derive(Default)]
struct Case {
    conns: Mutex<Vec<Weak<UrpConn>>>,
    read_all: AtomicUsize,
    done: Arc<AtomicBool>,
}

/// Writes `msgs`, one `send` each. A peer that has hung up ends it.
fn write_all(conn: &UrpConn, msgs: &[Vec<u8>]) {
    for m in msgs {
        if conn.send(m).is_err() {
            return;
        }
    }
}

/// Reads until the end of the conversation, holding each message
/// against the one written at its place.
fn read_until_end(conn: &UrpConn, expect: &[Vec<u8>], case: &Case) -> Result<(), String> {
    let mut n = 0;
    loop {
        if n == expect.len() {
            case.read_all.fetch_add(1, Ordering::SeqCst);
        }
        let Some(got) = conn.recv() else { return Ok(()) };
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
/// as kernel processes. The end closes when its writer is done and,
/// unless it is hasty, both readers have read everything or its peer
/// has hung up.
fn both_ways(conn: Arc<UrpConn>, case: &Arc<Case>, end: End) -> Result<(), String> {
    case.conns.lock().unwrap().push(Arc::downgrade(&conn));
    let (wconn, wcase, mine, hasty) = (Arc::clone(&conn), Arc::clone(case), end.mine, end.hasty);
    let writer = vtime::kproc("stream-writer", move || {
        write_all(&wconn, &mine);
        while !hasty && wcase.read_all.load(Ordering::SeqCst) < 2 && !wcase.done.load(Ordering::SeqCst) {
            if wconn.status_string().starts_with("Hungup") {
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
    read
}

fn case(seed: u64) -> Result<(), String> {
    // The timer wheel's thread is the clock's, made by its first timer:
    // make it before counting the case's processes.
    wheel::cancel(wheel::schedule(0, time::now() + SETTLE, || {}).expect("arm the wheel"));
    let before = oracle::kprocs();
    let mut g = Gen::from_seed(seed);
    let mut profile = Profiles::datakit_calibrated().with_seed(g.u64());
    // One case in eight on a clean line; the rest draw each impairment
    // or leave it out.
    if g.usize_in(0..8) != 0 {
        let mut roll = |max: f64| if g.bool() { g.f64_in(0.0..max) } else { 0.0 };
        profile = profile.with_loss(roll(0.08)).with_dup(roll(0.10));
    }
    // Empty messages, one-cell messages, and ones of several cells.
    let messages = |g: &mut Gen| {
        let n = if g.usize_in(0..6) == 0 { 0 } else { g.usize_in(0..120) };
        Arc::new(
            (0..n)
                .map(|_| match g.usize_in(0..8) {
                    0 => Vec::new(),
                    1 => g.bytes(2000..9000),
                    _ => g.bytes(1..600),
                })
                .collect::<Vec<_>>(),
        )
    };
    let (a_to_b, b_to_a) = (messages(&mut g), messages(&mut g));
    let (hasty_a, hasty_b) = (g.usize_in(0..3) == 0, g.usize_in(0..3) == 0);
    let wire = format!(
        "loss {:.3} dup {:.3}, {} and {} messages, hasty {hasty_a} {hasty_b}",
        profile.loss,
        profile.dup,
        a_to_b.len(),
        b_to_a.len()
    );

    let switch = DatakitSwitch::new(profile);
    let a = switch.attach("nj/astro/a").map_err(|e| format!("attach a: {e}"))?;
    let listener = UrpListener::new(switch.attach("nj/astro/b").map_err(|e| format!("attach b: {e}"))?);
    let shared = Arc::new(Case::default());
    let (wcase, wwire) = (Arc::clone(&shared), wire.clone());
    let dog = oracle::watchdog("urp", seed, &shared.done, move || {
        let conns = wcase.conns.lock().unwrap();
        let status: Vec<String> = conns.iter().filter_map(Weak::upgrade).map(|c| c.status_string()).collect();
        format!("({wwire}) {}", status.join("; "))
    });
    let (scase, b_end) =
        (Arc::clone(&shared), End { mine: Arc::clone(&b_to_a), theirs: Arc::clone(&a_to_b), hasty: hasty_b });
    let server = vtime::kproc("stream-server", move || {
        let (conn, _, _) = listener.accept().ok_or("the line went down before the call came")?;
        both_ways(conn, &scase, b_end)
    })
    .expect("spawn server");
    let a_end = End { mine: Arc::clone(&a_to_b), theirs: Arc::clone(&b_to_a), hasty: hasty_a };
    let client = urp_dial(&a, "nj/astro/b!oracle")
        .map_err(|e| format!("dial: {e}"))
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

    // Both ends closed: no process is left on either's behalf.
    oracle::settled("urp", seed, &wire, || {
        let deadline = time::now() + SETTLE;
        while oracle::kprocs() > before && time::now() < deadline {
            time::sleep(Duration::from_millis(1));
        }
        oracle::kprocs().saturating_sub(before)
    })
}

plan9_support::props! {
    /// 200 seeds; a failing one is printed by the runner and replays
    /// with `P9_CHECK_SEED`, a wedged one by the watchdog and replays
    /// with `P9_URP_CASE`.
    fn prop_what_is_written_is_read_in_order_once_with_its_boundaries(g, cases = 200) {
        oracle::run(oracle::next_seed("urp", g), case);
    }
}
