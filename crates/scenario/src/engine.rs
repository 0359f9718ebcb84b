//! The scenario engine: arms the script on the timer wheel, inflicts
//! it on a generated topology, and renders a canonical report.
//!
//! Execution is a single director kproc. Every `at` line becomes a
//! timer-wheel entry on the director's shard whose callback posts the
//! event index onto a channel; the wheel fires in deadline order and
//! one shard serializes the posts, so the director dispatches the
//! script identically on every run. Flash crowds fan out to a fixed
//! set of driver kprocs with precomputed (seeded) arrival plans; flaps
//! and partitions down trunk media now and schedule the heal; a
//! gateway kill tears down the exportfs listener and hangs up every
//! conversation the gateway carries.
//!
//! The report is the determinism contract: counters are rendered as
//! deltas from scenario start (the pool and wheel are process-global),
//! media are fresh per topology, latencies are sorted before the p99
//! is taken, and every line is emitted in a fixed order. Two runs of
//! the same script under the virtual clock must produce byte-identical
//! text.

use crate::dsl::{Event, Scenario};
use crate::topology::{Topology, SERVE_PORT};
use plan9_core::machine::Machine;
use plan9_core::namespace::MAFTER;
use plan9_exportfs::{exportfs_listener, import};
use plan9_inet::nine::IlIo;
use plan9_inet::ip::IpStack;
use plan9_inet::{IlListener, IpAddr};
use plan9_core::proc::Proc;
use plan9_netlog::{series, Registry};
use plan9_ninep::client::NineClient;
use plan9_ninep::server::serve_on_shard;
use plan9_ninep::procfs::{MemFs, OpenMode, ProcFs};
use plan9_ninep::server::NineService;
use plan9_support::chan::unbounded;
use plan9_support::rng::SmallRng;
use plan9_support::{pool, time, vtime, wheel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flash-crowd driver kprocs per event, cityload's storm shape.
const DRIVERS: usize = 8;

/// Wheel shard for scenario control events: one shard serializes the
/// dispatch order.
const DIRECTOR_KEY: u64 = 0xd12e_c702;

/// Sentinel the end-of-scenario timer posts.
const END_MARK: usize = usize::MAX;

/// What a finished scenario reports.
pub struct Report {
    /// The canonical render — byte-identical across same-seed runs.
    pub text: String,
    /// Flash-crowd conversations that completed their read.
    pub dials_ok: usize,
    /// Conversations that failed (partitioned, killed, refused).
    pub dials_failed: usize,
    /// Per-event p99 of the dial-to-read latency, µs (flash crowds
    /// only, event index preserved).
    pub p99_us: Vec<(usize, u64)>,
    /// Media violating the conservation identity (must be 0).
    pub conservation_violations: usize,
    /// IL conversations still open after teardown (must be 0).
    pub residual_conns: usize,
    /// Wheel timers still armed after the bounded drain (must be 0 —
    /// a leaked timer is as much a leak as a leaked conversation).
    pub residual_timers: usize,
    /// When the script had a `netmon` line: each gateway's rendered
    /// `/net/log/series`, as `(sys-name, text)` in city order, fetched
    /// across the fabric through exportfs. An unreachable gateway
    /// contributes an empty text.
    pub series: Vec<(String, String)>,
    /// Virtual seconds the script took.
    pub virtual_s: f64,
}

impl Report {
    /// The scenario's pass criteria: frames conserved everywhere and
    /// nothing leaked — neither conversations nor armed timers.
    pub fn clean(&self) -> bool {
        self.conservation_violations == 0
            && self.residual_conns == 0
            && self.residual_timers == 0
    }
}

/// Runs a scenario to completion and reports. Call under
/// [`vtime::enter`] for the deterministic clock; the engine itself is
/// clock-agnostic (the runner's smoke mode uses real time).
pub fn run(sc: &Scenario) -> Report {
    let sc = sc.clone();
    vtime::kproc("scenario-director", move || direct(sc))
        .expect("spawn scenario director")
        .join()
        .expect("scenario director")
}

// ---------------------------------------------------------------------------
// City file servers
// ---------------------------------------------------------------------------

/// The payload files every city server offers.
const SIZES: [usize; 3] = [64, 512, 4096];

struct CityServer {
    listener: Arc<IlListener>,
    handle: vtime::KprocHandle<usize>,
}

/// A persistent IL listener on a city's `hosts[0]` stack. Accepted
/// conversations are pool-serviced (no thread per conversation); the
/// acceptor exits, reporting how many calls it served, when the
/// listener is closed at scenario end.
fn spawn_city_server(stack: &Arc<IpStack>) -> CityServer {
    let listener = Arc::new(
        stack
            .il_module()
            .listen(stack, SERVE_PORT)
            .expect("city server listen"),
    );
    let accepting = Arc::clone(&listener);
    let fs = MemFs::new("city", "bootes");
    for size in SIZES {
        fs.put_file(&format!("/b{size}"), &vec![0x5au8; size])
            .expect("seed payload file");
    }
    let handle = vtime::kproc("city-server", move || {
        let fs: Arc<dyn ProcFs> = fs;
        let mut kept: Vec<Arc<NineService>> = Vec::new();
        loop {
            let conn = match accepting.accept() {
                Ok(c) => c,
                Err(_) => return kept.len(),
            };
            kept.push(serve_on_shard(&conn, Arc::clone(&fs)));
        }
    })
    .expect("spawn city server");
    CityServer { listener, handle }
}

// ---------------------------------------------------------------------------
// Gateway flows
// ---------------------------------------------------------------------------

/// A standing import flow: gateway `i` imports its lower neighbor's
/// `/net` through exportfs (§6.1) and polls the neighbor's `il/stats`
/// through the relay every half second. Returns (ok, err) read counts;
/// reads fail while the peer is partitioned away past its patience or
/// once either gateway is killed.
fn spawn_importer(
    m: &Arc<Machine>,
    peer_sys: &str,
    peer_ip: &str,
    stop: Arc<AtomicBool>,
) -> vtime::KprocHandle<(u64, u64)> {
    let p = m.proc();
    let local = format!("/n/{peer_sys}");
    let _ = m.rootfs.put_dir(&local);
    let dest = format!("il!{peer_ip}!exportfs");
    vtime::kproc("gw-importer", move || {
        let mut ok = 0u64;
        let mut err = 0u64;
        if import(&p, &dest, "/net", &local, MAFTER).is_err() {
            // One settle-and-retry; a gateway that can't reach its
            // neighbor at boot just reports every poll as an error.
            time::sleep(Duration::from_millis(100));
            let _ = import(&p, &dest, "/net", &local, MAFTER);
        }
        let stats = format!("{local}/il/stats");
        while !stop.load(Ordering::Relaxed) {
            match p.open(&stats, OpenMode::READ) {
                Ok(fd) => {
                    match p.read(fd, 4096) {
                        Ok(data) if !data.is_empty() => ok += 1,
                        _ => err += 1,
                    }
                    p.close(fd);
                }
                Err(_) => err += 1,
            }
            time::sleep(Duration::from_millis(500));
        }
        (ok, err)
    })
    .expect("spawn gateway importer")
}

// ---------------------------------------------------------------------------
// Flash crowds
// ---------------------------------------------------------------------------

/// What one driver brings home: (ok, failed, latencies µs).
type DriverTake = (usize, usize, Vec<u64>);

/// One client conversation: dial the city server, attach, walk, read
/// `size` bytes, hang up. The latency spans the whole exchange.
fn one_dial(client: &Arc<IpStack>, server: IpAddr, size: usize) -> Result<u64, ()> {
    let t0 = time::now();
    let conn = client
        .il_module()
        .connect(client, server, SERVE_PORT)
        .map_err(|_| ())?;
    let io = IlIo(Arc::clone(&conn));
    let nine = NineClient::new(Box::new(io.clone()), Box::new(io));
    let outcome = (|| {
        let (fid, _) = nine.attach("city", "").map_err(|_| ())?;
        nine.walk(fid, &format!("b{size}")).map_err(|_| ())?;
        nine.open(fid, OpenMode::READ).map_err(|_| ())?;
        let data = nine.read(fid, 0, size).map_err(|_| ())?;
        if data.len() != size {
            return Err(());
        }
        Ok(())
    })();
    conn.close();
    outcome.map(|_| time::now().saturating_duration_since(t0).as_micros() as u64)
}

/// Launches one flash crowd: a seeded arrival plan (offset within the
/// window, client host drawn from the whole internet) dealt round-robin
/// to the drivers. Returns the driver handles for end-of-run joining.
fn launch_flashcrowd(
    topo: &Topology,
    seed: u64,
    ev_idx: usize,
    city: usize,
    dials: usize,
    size: usize,
    window: Duration,
) -> Vec<vtime::KprocHandle<DriverTake>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (0xf1a5_0000 + ev_idx as u64));
    let n_cities = topo.cities.len();
    let server_ip = topo.cities[city].hosts[0].addr();
    let base = time::now();
    let span = window.as_micros().max(1) as u64;
    let mut plan: Vec<(Instant, Arc<IpStack>)> = (0..dials)
        .map(|_| {
            let off = Duration::from_micros(rng.gen_range(0..span));
            let cc = rng.gen_range(0..n_cities);
            let hosts = &topo.cities[cc].hosts;
            // hosts[0] of the target city is the server itself; every
            // other slot anywhere may dial.
            let lo = if cc == city && hosts.len() > 1 { 1 } else { 0 };
            let h = lo + rng.gen_range(0..hosts.len() - lo);
            (base + off, Arc::clone(&hosts[h]))
        })
        .collect();
    plan.sort_by_key(|(t, _)| *t);
    (0..DRIVERS)
        .map(|d| {
            let mine: Vec<(Instant, Arc<IpStack>)> = plan
                .iter()
                .enumerate()
                .filter(|(i, _)| i % DRIVERS == d)
                .map(|(_, x)| x.clone())
                .collect();
            vtime::kproc(&format!("crowd-{ev_idx}-{d}"), move || {
                let (mut ok, mut failed, mut lat) = (0usize, 0usize, Vec::new());
                for (when, client) in mine {
                    let now = time::now();
                    if when > now {
                        time::sleep(when - now);
                    }
                    match one_dial(&client, server_ip, size) {
                        Ok(us) => {
                            ok += 1;
                            lat.push(us);
                        }
                        Err(()) => failed += 1,
                    }
                }
                (ok, failed, lat)
            })
            .expect("spawn crowd driver")
        })
        .collect()
}

fn p99(v: &mut [u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[(v.len() - 1) * 99 / 100]
}

// ---------------------------------------------------------------------------
// The director
// ---------------------------------------------------------------------------

fn direct(sc: Scenario) -> Report {
    // The pool and the wheel outlive the run: the report shows what
    // this run added to them, as a series sample would.
    let process = Registry::new();
    let pool0 = process.refresh().sample();
    let mut topo = Topology::grid_with(sc.cities, sc.hosts_per_city, sc.ndb_lines, sc.seed);
    let stop = Arc::new(AtomicBool::new(false));

    // City file servers.
    let servers: Vec<CityServer> = topo
        .cities
        .iter()
        .map(|c| spawn_city_server(&c.hosts[0]))
        .collect();

    // Gateway exports, then the standing import flows between
    // neighbors: an export has announced by the time it returns.
    let mut exports: Vec<_> = topo
        .cities
        .iter()
        .map(|c| {
            let svc = exportfs_listener(c.gateway.proc(), "il!*!exportfs", usize::MAX);
            Some(svc.expect("gateway exportfs"))
        })
        .collect();
    let importers: Vec<_> = (1..sc.cities)
        .map(|c| {
            let peer = &topo.ndb.gateways[c - 1];
            spawn_importer(
                &topo.cities[c].gateway,
                &peer.sys,
                &peer.ip,
                Arc::clone(&stop),
            )
        })
        .collect();

    // netmon: every gateway samples its registry into /net/log/series
    // on the shared interval. Started before the script is armed so
    // the sample base precedes every event; stopped at the end mark so
    // the sample count is a function of the script, not of teardown.
    if let Some(interval) = sc.netmon {
        for c in &topo.cities {
            c.gateway.netlog.series.set_interval(interval).expect("netmon interval");
            series::start(&c.gateway.netlog).expect("netmon start");
        }
    }

    // Arm the script. One shard, deadlines in script time: the wheel
    // fires them in (deadline, arming) order, so dispatch is fixed.
    let t0 = time::now();
    let (etx, erx) = unbounded::<usize>();
    for (i, te) in sc.events.iter().enumerate() {
        let tx = etx.clone();
        wheel::schedule(DIRECTOR_KEY, t0 + te.at, move || {
            // blocking-ok: unbounded channel send never waits
            let _ = tx.send(i);
        })
        .expect("arm event");
    }
    wheel::schedule(DIRECTOR_KEY, t0 + sc.end, move || {
        // blocking-ok: unbounded channel send never waits
        let _ = etx.send(END_MARK);
    })
    .expect("arm end");

    // Dispatch.
    let mut crowd_sets: Vec<(usize, Vec<vtime::KprocHandle<DriverTake>>)> = Vec::new();
    let mut notes: Vec<String> = sc.events.iter().map(|_| String::new()).collect();
    loop {
        let i = erx.recv().expect("event channel");
        if i == END_MARK {
            break;
        }
        match &sc.events[i].ev {
            Event::FlashCrowd {
                city,
                dials,
                size,
                window,
            } => {
                crowd_sets.push((
                    i,
                    launch_flashcrowd(&topo, sc.seed, i, *city, *dials, *size, *window),
                ));
                notes[i] = "launched".to_string();
            }
            Event::Flap { a, b, down_for } => {
                let trunk = Arc::clone(topo.trunk_between(*a, *b).expect("flap trunk"));
                trunk.set_up(false);
                let t = Arc::clone(&trunk);
                wheel::schedule(DIRECTOR_KEY, time::now() + *down_for, move || {
                    t.set_up(true);
                })
                .expect("arm flap heal");
                notes[i] = "down".to_string();
            }
            Event::Partition { left, heal, .. } => {
                let crossing: Vec<_> = topo
                    .trunks
                    .iter()
                    .filter(|t| t.crosses(left))
                    .cloned()
                    .collect();
                for t in &crossing {
                    t.set_up(false);
                }
                let cut = crossing.clone();
                wheel::schedule(DIRECTOR_KEY, time::now() + *heal, move || {
                    for t in &cut {
                        t.set_up(true);
                    }
                })
                .expect("arm partition heal");
                notes[i] = format!("cut {} trunks", crossing.len());
            }
            Event::KillGateway { city } => {
                if let Some(svc) = exports[*city].take() {
                    svc.hangup();
                }
                let stack = topo.cities[*city]
                    .gateway
                    .ip
                    .as_ref()
                    .expect("gateway has a stack");
                let hung = stack.il_module().hangup_all();
                notes[i] = format!("hung up {hung} conversations");
            }
        }
    }

    // Freeze every sampler at the end mark: each gateway's sample
    // count is now pinned, and the fabric fetch below cannot perturb
    // the series it is about to read.
    if sc.netmon.is_some() {
        for c in &topo.cities {
            c.gateway.netlog.series.stop();
        }
    }

    // Collect the crowds (event order, then driver order).
    let mut dials_ok = 0usize;
    let mut dials_failed = 0usize;
    let mut p99_us: Vec<(usize, u64)> = Vec::new();
    for (i, drivers) in crowd_sets {
        let (mut ok, mut failed, mut lat) = (0usize, 0usize, Vec::<u64>::new());
        for d in drivers {
            let (o, f, mut l) = d.join().expect("crowd driver");
            ok += o;
            failed += f;
            lat.append(&mut l);
        }
        let p = p99(&mut lat);
        notes[i] = format!("ok={ok} failed={failed} p99_us={p}");
        dials_ok += ok;
        dials_failed += failed;
        p99_us.push((i, p));
    }

    // Fabric aggregation: city 0's gateway plays collector, importing
    // every peer gateway's /net over exportfs and reading log/series
    // remotely — its own series comes off its local /net. A peer that
    // cannot be imported (killed gateway, still-partitioned trunk)
    // contributes an empty series; that outcome is as deterministic as
    // a healthy read.
    let mut series_texts: Vec<(String, String)> = Vec::new();
    if sc.netmon.is_some() {
        let collector = &topo.cities[0].gateway;
        let p = collector.proc();
        for c in 0..sc.cities {
            let gw = &topo.ndb.gateways[c];
            let text = if c == 0 {
                read_text(&p, "/net/log/series")
            } else {
                let local = format!("/n/netmon-{}", gw.sys);
                let _ = collector.rootfs.put_dir(&local);
                match import(&p, &format!("il!{}!exportfs", gw.ip), "/net", &local, MAFTER) {
                    Ok(()) => read_text(&p, &format!("{local}/log/series")),
                    Err(_) => None,
                }
            };
            series_texts.push((gw.sys.clone(), text.unwrap_or_default()));
        }
    }

    // Teardown, in an order that can't deadlock: stop flag first, then
    // close every listener, then hang up all conversations (which
    // errors any importer read still stalled), then join everything.
    stop.store(true, Ordering::Relaxed);
    for s in &servers {
        s.listener.close();
    }
    for svc in exports.into_iter().flatten() {
        svc.hangup();
    }
    for s in topo.stacks() {
        s.il_module().hangup_all();
    }
    let mut served = 0usize;
    for s in servers {
        served += s.handle.join().expect("city server");
    }
    let (mut import_ok, mut import_err) = (0u64, 0u64);
    for h in importers {
        let (o, e) = h.join().expect("gateway importer");
        import_ok += o;
        import_err += e;
    }

    // Quiesce: wait for close handshakes to clear the conversation
    // tables, then drain the wheel and the pool.
    let residual_conns = topo.settle();
    let drain_deadline = time::now() + Duration::from_secs(120);
    // The wheel/pool drain is bounded by a deadline: a timer
    // that never clears must surface as a residual in the report, not
    // hang the run. (An unstopped netmon sampler would do exactly that
    // — it re-arms forever — which is why the series stop above is
    // part of the protocol and why the leak audit counts timers.)
    while (wheel::armed() > 0 || pool::backlog() > 0) && time::now() < drain_deadline {
        time::sleep(Duration::from_millis(1));
    }
    let residual_timers = wheel::armed();
    let virtual_s = time::now().saturating_duration_since(t0).as_secs_f64();

    // The canonical render.
    let cons = topo.conservation();
    let conservation_violations = cons.violations();
    let mut text = String::new();
    text.push_str(&format!(
        "scenario seed={} cities={} hosts-per-city={} events={}\n",
        sc.seed,
        sc.cities,
        sc.hosts_per_city,
        sc.events.len()
    ));
    for (i, te) in sc.events.iter().enumerate() {
        text.push_str(&format!(
            "event {i} at={:?} {}: {}\n",
            te.at,
            event_name(&te.ev),
            notes[i]
        ));
    }
    text.push_str(&format!("dials ok={dials_ok} failed={dials_failed}\n"));
    text.push_str(&format!("served conversations={served}\n"));
    text.push_str(&format!("import reads ok={import_ok} err={import_err}\n"));
    for (sys, body) in &series_texts {
        if body.is_empty() {
            text.push_str(&format!("netmon {sys} unavailable\n"));
        } else {
            let samples = body.lines().filter(|l| l.starts_with("sample ")).count();
            text.push_str(&format!(
                "netmon {sys} samples={samples} bytes={}\n",
                body.len()
            ));
        }
    }
    text.push_str(&format!("residual conns={residual_conns}\n"));
    text.push_str(&format!("residual timers={residual_timers}\n"));
    text.push_str(&cons.render());
    let (mut tx, mut rx, mut q, mut a, mut r) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in topo.stacks() {
        let st = &s.il_module().stats;
        tx += st.tx_msgs.get();
        rx += st.rx_msgs.get();
        q += st.queries.get();
        a += st.acks.get();
        r += st.retransmit_msgs.get();
    }
    text.push_str(&format!(
        "il tx_msgs={tx} rx_msgs={rx} queries={q} acks={a} retransmits={r}\n"
    ));
    let added = series::delta_lines(&pool0, &process.refresh().sample());
    text.extend(added.iter().filter(|l| l.starts_with("pool.")).map(|l| format!("{l}\n")));
    text.push_str(&format!("virtual_s={virtual_s:.6}\n"));

    topo.shutdown();

    Report {
        text,
        dials_ok,
        dials_failed,
        p99_us,
        conservation_violations,
        residual_conns,
        residual_timers,
        series: series_texts,
        virtual_s,
    }
}

/// Reads a whole text file through a machine's proc; `None` on any
/// failure (the collector treats absence as an empty series).
fn read_text(p: &Proc, path: &str) -> Option<String> {
    let fd = p.open(path, OpenMode::READ).ok()?;
    let text = p.read_string(fd).ok();
    p.close(fd);
    text
}

fn event_name(ev: &Event) -> String {
    match ev {
        Event::FlashCrowd {
            city, dials, size, ..
        } => format!("flashcrowd city={city} dials={dials} size={size}"),
        Event::Flap { a, b, down_for } => format!("flap trunk={a}-{b} for={down_for:?}"),
        Event::Partition { left, right, heal } => format!(
            "partition {left:?}|{right:?} heal={heal:?}"
        ),
        Event::KillGateway { city } => format!("kill gateway city={city}"),
    }
}
