//! Connection scale, measured: can the fabric carry a city's worth of
//! machines without a city's worth of threads?
//!
//! "The system networks were designed for the... CPU servers [that]
//! provide the computing muscle for hundreds of machines" — and the
//! thread-per-conversation seed kernel capped out long before that.
//! This bench drives the sharded worker pool and the shared timer
//! wheel through dial storms, listen/accept churn, and per-conversation
//! 9P traffic across 1k → 10k simulated machines, with the service
//! side of every conversation running pool-serviced (no parked thread
//! per connection: [`serve_on_shard`]'s readiness hook feeds
//! `NineService::input`, which runs a `MemFs` operation where it
//! stands). Each row records the most kernel processes the virtual
//! clock ever counted (`peak_kprocs`), so a service model that made a
//! worker per conversation would show.
//!
//! Machines come in pairs on private Ethernet segments — the scaling
//! cost under test is conversations and timers, not broadcast-domain
//! crosstalk. Every pair's stacks are `IpStack::new_pooled`, so frame
//! delivery, protocol timers, and 9P service all ride the fixed pool;
//! the only per-driver threads are the eight storm drivers themselves.
//!
//! The sweep runs on the virtual clock (a 10k-machine fabric would
//! otherwise wait out real ack timers), so every column is modelled.
//! Results land in `BENCH_cityload.json` at the repository root.
//!
//! Usage: `cargo run -p plan9-bench --release --bin cityload`

use plan9_bench::{within_budget, write_artifact};
use plan9_inet::il::{serve_on_shard, IlIo};
use plan9_inet::ip::{IpConfig, IpStack};
use plan9_netsim::ether::EtherSegment;
use plan9_netsim::profile::Profiles;
use plan9_ninep::client::NineClient;
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_support::{pool, time, vtime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent dial-storm drivers. Together with the pool's fixed
/// shards and the one wheel thread, the whole fabric runs on O(cores)
/// threads no matter how many machines the row simulates.
const DRIVERS: usize = 8;

/// Payload sizes cycled across conversations; each gets its own p99.
const SIZES: [usize; 3] = [64, 512, 4096];

const PORT: u16 = 17008;

/// The wall clock the sweep may take.
const BUDGET_S: f64 = 120.0;

/// The most kernel processes the virtual clock has counted in this
/// row, sampled while each conversation is still being served (a worker
/// made for it would be alive then).
static PEAK_KPROCS: AtomicUsize = AtomicUsize::new(0);

/// One machine pair: a dialing client stack and a serving stack, both
/// pool-serviced, on a private segment that stays alive for the whole
/// row so the fabric really holds `machines` stations at once.
struct Pair {
    client: Arc<IpStack>,
    server: Arc<IpStack>,
    fs: Arc<dyn ProcFs>,
}

fn build_pair(idx: usize) -> Pair {
    let (hi, lo) = ((idx >> 8) as u8, (idx & 0xff) as u8);
    // The calibrated 10 Mbit/s profile paces every frame, so the
    // per-size p99s below reflect modeled wire time, not just the
    // host's compute speed.
    let seg = EtherSegment::new(Profiles::ether_calibrated());
    let client = IpStack::new_pooled(
        seg.attach([8, 0, 1, hi, lo, 1]),
        IpConfig::local(&format!("10.{hi}.{lo}.1")),
    );
    let server = IpStack::new_pooled(
        seg.attach([8, 0, 1, hi, lo, 2]),
        IpConfig::local(&format!("10.{hi}.{lo}.2")),
    );
    let fs = MemFs::new("city", "bootes");
    for size in SIZES {
        fs.put_file(&format!("/b{size}"), &vec![0x5au8; size])
            .expect("seed file");
    }
    Pair { client, server, fs }
}

/// One full conversation: listen, dial, accept, serve 9P from the
/// pool, read one payload, hang up. Returns the read's latency.
fn converse(pair: &Pair, size: usize) -> Duration {
    let listener = pair
        .server
        .il_module()
        .listen(&pair.server, PORT)
        .expect("listen");
    let conn = pair
        .client
        .il_module()
        .connect(&pair.client, pair.server.addr(), PORT)
        .expect("dial");
    let srv = listener
        .accept_timeout(Duration::from_secs(30))
        .expect("accept");
    drop(listener); // listener churn: every conversation re-announces

    // The service side: no thread, a job on the conversation's shard
    // whenever something arrives.
    let _svc = serve_on_shard(&srv, Arc::clone(&pair.fs));

    let io = IlIo(Arc::clone(&conn));
    let client = NineClient::new(Box::new(io.clone()), Box::new(io));
    let (fid, _) = client.attach("city", "").expect("attach");
    client.walk(fid, &format!("b{size}")).expect("walk");
    client.open(fid, OpenMode::READ).expect("open");
    let t0 = time::now();
    let d = client.read(fid, 0, size).expect("read");
    let lat = time::now().saturating_duration_since(t0);
    assert_eq!(d.len(), size, "short read");
    if let Some(clock) = vtime::active() {
        PEAK_KPROCS.fetch_max(clock.census().0, Ordering::Relaxed);
    }
    conn.close();
    lat
}

/// What one storm driver brings home: per-size read latencies (µs).
type DriverTake = Vec<(usize, Vec<u64>)>;

struct Row {
    machines: usize,
    conversations: usize,
    rpcs: usize,
    virtual_s: f64,
    peak_kprocs: usize,
    lat_us: Vec<(usize, Vec<u64>)>,
}

/// Runs one fabric row: `machines / 2` live pairs, churned through
/// `convs_per_pair` conversations each by the storm drivers.
fn run_row(machines: usize, convs_per_pair: usize) -> Row {
    PEAK_KPROCS.store(0, Ordering::Relaxed);
    let row = vtime::kproc("city-row", move || {
        let pairs_total = machines / 2;
        let t0 = time::now();
        let drivers: Vec<_> = (0..DRIVERS)
            .map(|d| {
                vtime::kproc(&format!("storm-{d}"), move || {
                    // This driver's slice of the fabric, built and held
                    // live for the whole row.
                    let mine: Vec<Pair> = (0..pairs_total)
                        .filter(|i| i % DRIVERS == d)
                        .map(build_pair)
                        .collect();
                    let mut take: DriverTake =
                        SIZES.iter().map(|&s| (s, Vec::new())).collect();
                    for c in 0..convs_per_pair {
                        for (i, pair) in mine.iter().enumerate() {
                            let size = SIZES[(c + i) % SIZES.len()];
                            let lat = converse(pair, size);
                            take.iter_mut()
                                .find(|(s, _)| *s == size)
                                .expect("size bucket")
                                .1
                                .push(lat.as_micros() as u64);
                        }
                    }
                    (mine.len() * convs_per_pair, take)
                })
                // checked: spawn fails only on OS thread exhaustion
                .expect("spawn storm driver")
            })
            .collect();
        let mut conversations = 0usize;
        let mut lat_us: Vec<(usize, Vec<u64>)> =
            SIZES.iter().map(|&s| (s, Vec::new())).collect();
        for d in drivers {
            let (convs, take) = d.join().expect("storm driver");
            conversations += convs;
            for (size, mut v) in take {
                lat_us
                    .iter_mut()
                    .find(|(s, _)| *s == size)
                    .expect("size bucket")
                    .1
                    .append(&mut v);
            }
        }
        let virtual_s = time::now().saturating_duration_since(t0).as_secs_f64();
        (conversations, virtual_s, lat_us)
    })
    // checked: spawn fails only on OS thread exhaustion
    .expect("spawn city row");
    let (conversations, virtual_s, lat_us) = row.join().expect("city row");
    Row {
        machines,
        conversations,
        // attach + walk + open + read per conversation
        rpcs: conversations * 4,
        virtual_s,
        peak_kprocs: PEAK_KPROCS.load(Ordering::Relaxed),
        lat_us,
    }
}

fn p99(v: &mut [u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[(v.len() - 1) * 99 / 100]
}

fn row_json(r: &mut Row) -> String {
    let p99s: Vec<String> = r
        .lat_us
        .iter_mut()
        .map(|(size, v)| format!("\"{size}\": {}", p99(v)))
        .collect();
    format!(
        "{{\"machines\": {}, \"conversations\": {}, \"rpcs\": {}, \
         \"virtual_s\": {:.4}, \"rpc_per_virtual_s\": {:.0}, \
         \"peak_kprocs\": {}, \"p99_us\": {{{}}}}}",
        r.machines,
        r.conversations,
        r.rpcs,
        r.virtual_s,
        r.rpcs as f64 / r.virtual_s.max(1e-9),
        r.peak_kprocs,
        p99s.join(", "),
    )
}

fn main() {
    println!(
        "cityload — dial storms and 9P churn over the worker pool \
         ({DRIVERS} drivers, {} pool shards)",
        pool::NSHARDS
    );
    let started = time::real_now();
    let guard = vtime::enter();
    let mut rows: Vec<Row> = [(1000usize, 4usize), (4000, 4), (10_000, 10)]
        .iter()
        .map(|&(machines, convs)| {
            let r = run_row(machines, convs);
            println!(
                "{:>7} machines {:>7} convs {:>8} rpcs | virtual {:>8.3}s | peak {} kprocs",
                r.machines, r.conversations, r.rpcs, r.virtual_s, r.peak_kprocs
            );
            r
        })
        .collect();
    drop(guard);

    let (top_machines, top_convs) = {
        let last = rows.last().expect("sweep rows");
        (last.machines, last.conversations)
    };
    assert!(
        top_machines == 10_000 && top_convs >= 50_000,
        "the top row must be a 10k-machine, 50k-conversation fabric"
    );

    write_artifact(
        "BENCH_cityload.json",
        &format!(
            "{{\n  \"bench\": \"cityload\",\n  \"vtime\": true,\n  \
             \"drivers\": {DRIVERS}, \"pool_shards\": {},\n  \
             \"sweep\": [\n    {}\n  ]\n}}\n",
            pool::NSHARDS,
            rows.iter_mut().map(row_json).collect::<Vec<_>>().join(",\n    "),
        ),
    );
    within_budget("cityload", started, BUDGET_S);
    println!(
        "cityload: OK (10k machines, {top_convs} conversations, {} service threads)",
        DRIVERS + pool::NSHARDS + 1,
    );
}
