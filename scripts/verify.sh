#!/bin/sh
# Tier-1 verification: the build must be hermetic (offline, empty
# registry cache), the netcheck lint gate must find nothing, and every
# test must pass. This is the gate every PR runs; a new
# registry dependency anywhere in the workspace fails both plan9-check
# and the --offline build immediately.
set -eu

cd "$(dirname "$0")/.."

# checkflow: the interprocedural passes (blocking-context, panic
# reachability, static lock order cross-checked against the runtime
# lockdep dump) plus the netcheck line rules; any violation fails. It
# runs before the build on purpose: a blocking call on a pool shard
# should fail the gate before any compile time is spent. The binary
# holds its own analysis to a 10 s wall budget.
cargo run --release --offline -q -p plan9-check

# The machine-readable report must keep the checkflow-v1 shape: every
# consumer field present, zero kernel-wide blocking/panic findings,
# zero lock-order cycles, every static lock edge confirmed by the
# runtime dump, and no lock receiver the resolver cannot type. The
# method calls resolved by their receiver's type may not fall below
# the tree's count, lowered only when code is deleted: a call that
# loses its type fans out by name again. (5290 since one shell drives
# IL, TCP and URP (`support::step::Shell`), measured by reverting one
# file at a time on a copy: the old shells in il.rs, tcp.rs and urp.rs
# held 16, 15 and 17 typed calls more than what replaced them there,
# the one shell holds 34, and `plan9-check`'s reading of a generic
# type's lock class and of calls through a generic bound 14. 5303 had
# come when URP changed state in one pure step: its two-lock shell, with `probe_and_wait` and the
# drop-and-retake sequences, held 16 more typed calls than the core and
# the one-lock shell that replaced it, measured by reverting urp.rs on a
# copy. 5319 had come when a stream reached
# its device and read queue directly: the read's block assembly moved
# into the queue (+18 there, -11 in stream.rs), the pipe's peer lost
# its lock (-3), `MemFs` locks once an operation (-8), lockdep counts
# unnamed locks by site (+5, sync.rs -1), TCP drains in sequence order
# (+4) and the pool runs a drainer's own job (+1), each measured by
# reverting the one file on a copy. 5315 had come when IL and TCP each
# changed state in one pure step: the shells' eight-odd functions per
# protocol, each calling methods on the conversation's guard, held 26
# more typed calls than the cores and the one-hold shells that replaced
# them. 5341 had come when a frame paid only
# for what its medium models: 5338 before, and the one-lock ARP cache,
# the unpaced wire's deadline (`Medium::put`, `Medium::due`), the IL
# ack's in-place removal and `support::fnv` hold three more typed
# calls than the code they replaced. 5338 had come when a pool job's send booked the line
# instead of sleeping and each scenario trunk bridge became two
# handlers, from 5348: the deleted code held 10 more than the code
# that replaced it.)
python3 - <<'EOF'
import json, sys
r = json.load(open("REPORT_checkflow.json"))
if r.get("schema") != "checkflow-v1":
    sys.exit(f"verify: REPORT_checkflow.json schema is {r.get('schema')!r}")
g = r["graph"]
for field in ("functions", "call_sites", "resolved_calls", "typed_calls", "roots", "lock_classes"):
    if not isinstance(g.get(field), int):
        sys.exit(f"verify: REPORT graph.{field} missing or non-integer")
if g["functions"] < 500 or g["roots"] < 5:
    sys.exit(f"verify: call graph implausibly small ({g['functions']} fns, {g['roots']} roots)")
if g["typed_calls"] < 5290:
    sys.exit(f"verify: {g['typed_calls']} method calls resolved by receiver type (need >= 5290)")
for pass_ in ("blocking_context", "panic_reach"):
    p = r[pass_]
    if p["count"] != 0 or p["findings"]:
        sys.exit(f"verify: {pass_}: {p['count']} findings")
lo = r["lock_order"]
if lo["cycles"]:
    sys.exit(f"verify: lock-order cycles: {lo['cycles']}")
if not lo["cross_checked"]:
    sys.exit("verify: static lock edges never cross-checked against a runtime dump")
if lo["ambiguous_receivers"] != 0:
    sys.exit(f"verify: {lo['ambiguous_receivers']} lock receivers of unknown type")
if lo["untested"] or not all(e["confirmed"] for e in lo["static_edges"]):
    sys.exit(f"verify: static lock edges no test takes: {lo['untested']}")
if not lo["static_edges"]:
    sys.exit("verify: no static lock edge derived")
if lo["dead_classes"]:
    sys.exit(f"verify: dead lockdep classes: {lo['dead_classes']}")
for e in lo["static_edges"]:
    for field in ("from", "to", "via", "site"):
        if not e.get(field):
            sys.exit(f"verify: static edge missing {field}: {e}")
EOF

# Teardown has one owner: `IpStack::settle` waits for a stack's
# conversations to leave, so nothing outside crates/inet (and perf/,
# which keeps a drain of its own for now) polls `conn_count()` in a
# loop. And a service answers once `serve_calls` (under
# exportfs_listener, cpu_listener and FtpServer::serve) returns, since
# it announces before it spawns its listener: no sleep may follow one.
# A test waits for an event, never for the OS clock: nothing under
# tests/ sleeps a thread or reads `Instant::now` (a budget reads
# `time::real_now`), and every root test file runs on the virtual clock
# (`vtime::enter`, or `oracle::run`) but the two named real-clock
# witnesses: ninep_transports.rs, a smoke test per transport on the OS
# clock, and protocol_checker.rs, which runs no kernel at all.
python3 - <<'EOF'
import os, re, sys
drain = re.compile(r"\bwhile\b.*conn_count\(\)")
start = re.compile(r"(\b(serve_calls|exportfs_listener|cpu_listener)|\.serve)\(")
witnesses = {"tests/ninep_transports.rs", "tests/protocol_checker.rs"}
bad = []
for d, _, files in os.walk("tests"):
    for path in sorted(os.path.join(d, f) for f in files if f.endswith(".rs")):
        text = open(path).read()
        for n, line in enumerate(text.splitlines(), 1):
            for word in ("thread::sleep(", "Instant::now("):
                if word in line:
                    bad.append(f"{path}:{n}: {word} in a test; wait for the event")
        root = d == "tests"
        if root and path not in witnesses and "vtime::enter" not in text and "oracle::run" not in text:
            bad.append(f"{path}: a root test file off the virtual clock")
for root in ("src", "tests", "examples", "crates"):
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs if x != "target"]
        for path in sorted(os.path.join(d, f) for f in files if f.endswith(".rs")):
            in_start = after_start = False
            for n, line in enumerate(open(path), 1):
                if drain.search(line) and not path.startswith("crates/inet/"):
                    bad.append(f"{path}:{n}: a loop on conn_count(); IpStack::settle is the wait")
                if after_start and "sleep(" in line:
                    bad.append(f"{path}:{n}: a sleep after a service start, which has announced already")
                in_start = in_start or (start.search(line) is not None and "fn " not in line)
                after_start = in_start and line.rstrip().endswith(";")
                in_start = in_start and not after_start
if bad:
    sys.exit("verify: " + "\nverify: ".join(bad))
EOF

# Neither a Datakit conversation nor a medium costs a kernel process:
# URP's input is the circuit's handler and its prober a timer-wheel
# entry, the switch routes a call to its announcement on the dialer's
# thread, every wire hands its frames to handlers, and a scenario
# trunk's bridge is two handlers (a pool job's send books the line, it
# does not wait). So no non-test code under crates/datakit/src or
# crates/netsim/src, in the scenario topology or in the machine that
# plugs a line in spawns one.
python3 - <<'EOF'
import os, sys
bad = []
paths = ["crates/scenario/src/topology.rs", "crates/core/src/machine.rs"]
for root in ("crates/datakit/src", "crates/netsim/src"):
    for d, _, files in os.walk(root):
        paths += sorted(os.path.join(d, f) for f in files if f.endswith(".rs"))
for path in paths:
    for n, line in enumerate(open(path), 1):
        if line.strip().startswith("#[cfg(test)]"):
            break
        if "kproc(" in line:
            bad.append(f"{path}:{n}")
if bad:
    sys.exit("verify: a kproc spawned by Datakit, media or trunk-bridge code: " + ", ".join(bad))
EOF

# IL, TCP and URP each change state in one pure step (`il/fsm.rs`,
# `tcp/fsm.rs`, `urp/fsm.rs`): a core holds no lock, reads no clock and
# touches no wheel, pool, condition variable or copy site — its shell
# does all of that around the step. A core file that names one has let
# an effect back in. And one shell drives all three cores
# (`support::step::Shell`): it steps the core, aims the timer wheel and
# holds the waiters. A protocol's own file (`il.rs`, `tcp.rs`, `urp.rs`)
# that names the wheel or a condition variable, or hands its core the
# time itself (`Now::`, or the old `fsm::step(`), drives its core again.
python3 - <<'EOF'
import sys
bad = []
for path in ("crates/inet/src/il/fsm.rs", "crates/inet/src/tcp/fsm.rs", "crates/datakit/src/urp/fsm.rs"):
    for n, line in enumerate(open(path), 1):
        for word in (".lock(", "time::", "wheel::", "pool::", "Condvar", "copysite"):
            if word in line:
                bad.append(f"{path}:{n}: {word}")
if bad:
    sys.exit("verify: an effect in a protocol core: " + ", ".join(bad))
for path in ("crates/inet/src/il.rs", "crates/inet/src/tcp.rs", "crates/datakit/src/urp.rs"):
    for n, line in enumerate(open(path), 1):
        for word in ("wheel::", "Condvar", "Now::", "fsm::step("):
            if word in line:
                bad.append(f"{path}:{n}: {word}")
if bad:
    sys.exit("verify: a protocol shell drives its core itself: " + ", ".join(bad))
EOF

# Clippy, when the toolchain ships it; warnings are errors so the tree
# stays warning-free. A guard in an `if let`/`match` scrutinee lives to
# the end of the block, so a table lock would be held across whatever
# the block does with the entry (a clunk, a hangup, a timer cancel):
# take, drop the guard, then act.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy -q --offline --workspace --all-targets -- -D warnings -D clippy::significant_drop_in_scrutinee
else
    echo "verify: NOTICE: cargo clippy not installed, skipping lint" >&2
fi

cargo build --release --offline --workspace
# --workspace: the root manifest is a package as well as the workspace,
# so without it only tests/*.rs run and no crate's own tests do.
cargo test -q --offline --workspace

# The protocol checker (tests/protocol_checker.rs) searches the three
# cores' interleavings, losses and duplications breadth-first to its one
# depth; `cargo test` above ran it, and here it runs again alone, its
# state counts and wall time printed and held to 60 s (each search
# asserts 45 s of its own, for a loaded host).
checker_t0=$(date +%s)
cargo test -q --offline --test protocol_checker -- --nocapture 2>&1 | grep ' states to depth '
checker_s=$(( $(date +%s) - checker_t0 ))
echo "verify: protocol checker took ${checker_s} s (budget 60 s)"
[ "$checker_s" -le 60 ] || { echo "verify: protocol checker over its 60 s budget" >&2; exit 1; }

# The paper's flagship listings must run end to end, still offline
# (snoop is the one end-to-end user of /net/ether0's promiscuous mode;
# echo_server, import_gateway and ftpfs_demo are the §5.2 and §6.1
# listings, which walk, stat and list the devices through exportfs).
for ex in quickstart csquery netstat snoop echo_server import_gateway ftpfs_demo; do
    cargo run --release --offline --example "$ex" >/dev/null
done

# tracerpc prints its retransmitted RPC as gnot's /net/trace/data
# serves it: the root, its spans, and the IL events of gnot's
# /net/log ring that name it. An event is one ring entry; a root with
# no `  event il ` line under it means the entry lost its trace id.
mkdir -p target
cargo run --release --offline --example tracerpc >target/tracerpc.out
sed -n '/^a retransmitted RPC, end to end/,/^$/p' target/tracerpc.out | grep -q '^  event il ' ||
    { echo "verify: tracerpc's retransmitted RPC lists no IL event under its root" >&2; exit 1; }

# nettrace is pay-for-use: with tracing off (the default) the same RPC
# workload must add zero blocks to the span ring (the example asserts).
cargo run --release --offline --example tracerpc -- off >/dev/null

# netstat --json must emit valid JSON.
cargo run --release --offline --example netstat -- --json | python3 -m json.tool >/dev/null

# §3 size claim: IL must stay smaller than TCP (the binary asserts
# il.rs non-test LoC < tcp.rs non-test LoC and exits nonzero if not).
# And the ratchet: no crate's non-test LoC, nor the workspace's, above
# its line in scripts/loc-ratchet.txt (`loc --update` rewrites it).
cargo run --release --offline -p plan9-bench --bin loc >/dev/null

# The committed artifacts are outputs. Every BENCH_*.json,
# REPORT_netmon.txt and REPORT_checkflow.json (written by plan9-check
# above) is a function of the source tree: the binaries run on the
# virtual clock, print their wall clock to stdout and hold it to their
# own budgets. Regenerate them all (the 4x250 walkthrough runs once, in
# scenariobench, with netmon on), check their content, then fail if any
# differs from the committed file: a change that moves a modelled
# number shows it in its diff, and a hand-edited number fails here.
cargo run --release --offline -p plan9-bench --bin table1 >/dev/null
cargo run --release --offline -p plan9-bench --bin ilvstcp >/dev/null
cargo run --release --offline -p plan9-bench --bin cityload >/dev/null
cargo run --release --offline -p plan9-scenario --bin scenario -- --demo >/dev/null
cargo run --release --offline -p plan9-bench --bin scenariobench >/dev/null
python3 - <<'EOF'
import json, sys
def load(name):
    b = json.load(open(name))
    if b.get("vtime") is not True:
        sys.exit(f"verify: {name} lacks \"vtime\": true")
    return b

# Table 1, modelled: pipes are unpaced (null cells); over the paced
# paths both of the paper's orderings hold, and a cell more than 20 %
# from the paper names the calibration constant that owns the miss.
t = {r["test"]: r for r in load("BENCH_table1.json")["rows"]}
if t["pipes"]["mbs"] is not None or t["pipes"]["ms"] is not None or not t["pipes"].get("note"):
    sys.exit("verify: Table 1's pipes row must be null cells with a note")
cy, il, urp = t["Cyclone"], t["IL/ether"], t["URP/Datakit"]
if not cy["mbs"] > il["mbs"] > urp["mbs"]:
    sys.exit("verify: Table 1 throughput ordering Cyclone > IL/ether > URP/Datakit fails")
if not cy["ms"] < il["ms"] < urp["ms"]:
    sys.exit("verify: Table 1 latency ordering Cyclone < IL/ether < URP/Datakit fails")
for r in (cy, il, urp):
    for col in ("mbs", "ms"):
        off = abs(r[col] / r["paper_" + col] - 1) > 0.2
        named = any(m.startswith(col + ": Profiles::") for m in r["misses"])
        if off != named:
            sys.exit(f"verify: Table 1 {r['test']} {col} = {r[col]}: miss {off}, owner named {named}")

if not load("BENCH_ilvstcp.json")["vsweep"]:
    sys.exit("verify: the IL/TCP loss sweep is empty")

# Connection scale: a 10k-machine, 50k-conversation top row on O(cores)
# service threads, counted: the storm drivers, the pool's shards, the
# wheel, the row's own kproc and the main thread. One 9p-worker for a
# conversation of a MemFs would be one too many.
b = load("BENCH_cityload.json")
top = max(b["sweep"], key=lambda r: r["machines"])
if top["machines"] < 10_000 or top["conversations"] < 50_000:
    sys.exit(f"verify: top cityload row is {top['machines']} machines / "
             f"{top['conversations']} conversations (need 10k / 50k)")
budget = b["drivers"] + b["pool_shards"] + 1 + 2
if not 0 < top.get("peak_kprocs", 0) <= budget:
    sys.exit(f"verify: top cityload row counted {top.get('peak_kprocs')} kprocs at its peak "
             f"(need 1..{budget}: a service model that makes a thread per conversation?)")
for r in b["sweep"]:
    p99 = r.get("p99_us")
    if not p99 or any(k not in p99 or p99[k] <= 0 for k in ("64", "512", "4096")):
        sys.exit(f"verify: cityload row {r['machines']} lacks per-size p99_us")

# The generated internet (4 cities x 250 pooled hosts, paper-scale ndb)
# survives the adversarial walkthrough — flash crowd, trunk flap,
# backbone partition + heal, gateway kill — with clean conservation,
# no leaked conversations and no failed dials.
rows = load("BENCH_scenario.json")["sweep"]
if rows[0]["hosts"] < 1000:
    sys.exit(f"verify: top scenario row holds {rows[0]['hosts']} hosts (need >= 1000)")
for r in rows:
    if r["conservation_violations"] or r["residual_conns"] or r["dials_failed"]:
        sys.exit(f"verify: scenario row {r['name']}: {r['conservation_violations']} conservation "
                 f"violations, {r['residual_conns']} leaked conversations, {r['dials_failed']} failed dials")
    if not r.get("p99_us") or any(v <= 0 for v in r["p99_us"].values()):
        sys.exit(f"verify: scenario row {r['name']} lacks positive p99_us")

# netmon: per-gateway series fetched across the fabric, and a ranked
# copy-site table whose top three sites all moved bytes.
b = load("BENCH_netmon.json")
live = [s for s in b["series"] if s["samples"] > 0 and s["bytes"] > 0]
if len(live) < 3:
    sys.exit(f"verify: only {len(live)} gateways exported a non-empty series")
if b["fabric_samples"] <= 0 or not b["fabric"]:
    sys.exit("verify: merged fabric series is empty")
sites = b["copy_sites"]
if len(sites) < 3 or any(s["bytes"] <= 0 for s in sites[:3]):
    sys.exit(f"verify: top copy sites lack positive byte totals: {sites[:3]}")
if sites != sorted(sites, key=lambda s: -s["bytes"]) or b["top_copy_sites"] != [s["site"] for s in sites[:3]]:
    sys.exit("verify: copy sites are not ranked by bytes")
EOF

# EXPERIMENTS.md's tables are views of the artifacts: a table under
# `<!-- from FILE KEY: FIELD ... -->` must match FILE's KEY array row
# for row and cell for cell, to the digits the cell shows (`-` skips a
# column, `%` scales by 100, and a JSON null reads as `—`).
python3 - <<'EOF'
import json, re, sys
lines = open("EXPERIMENTS.md").read().splitlines()
def same(cell, want):
    if want is None:
        return cell == "—"
    if isinstance(want, str):
        return cell.strip("`") == want
    num = cell.replace(",", "").replace(" ", "")
    scale = 100 if num.endswith("%") else 1
    num = num.rstrip("%")
    digits = len(num.partition(".")[2])
    return abs(float(num) - want * scale) <= 0.5 * 10 ** -digits + 1e-9
marked = 0
for i, line in enumerate(lines):
    m = re.fullmatch(r"<!-- from (\S+) (\w+): (.+) -->", line.strip())
    if not m:
        continue
    marked += 1
    name, key, fields = m.group(1), m.group(2), m.group(3).split()
    rows = json.load(open(name))[key]
    table = []
    for l in lines[i + 1:]:
        if not l.startswith("|"):
            break
        table.append([c.strip() for c in l.strip().strip("|").split("|")])
    body = table[2:]
    if len(body) != len(rows):
        sys.exit(f"verify: EXPERIMENTS.md:{i + 1}: {len(body)} rows, {name} {key} has {len(rows)}")
    for n, (cells, row) in enumerate(zip(body, rows)):
        if len(cells) != len(fields):
            sys.exit(f"verify: EXPERIMENTS.md:{i + 4 + n}: {len(cells)} cells for {len(fields)} fields")
        for field, cell in zip(fields, cells):
            if field != "-" and not same(cell, row[field]):
                sys.exit(f"verify: EXPERIMENTS.md:{i + 4 + n}: {field} reads {cell!r}, "
                         f"{name} {key}[{n}] has {row[field]!r}")
if marked < 2:
    sys.exit(f"verify: EXPERIMENTS.md marks {marked} tables with their source (need Table 1 and the loss sweep)")
EOF

if git rev-parse --git-dir >/dev/null 2>&1; then
    git diff --exit-code --stat -- BENCH_*.json REPORT_netmon.txt REPORT_checkflow.json ||
        { echo "verify: regenerated artifacts differ from the committed ones (commit them if the change is meant)" >&2; exit 1; }
else
    echo "verify: NOTICE: not a git checkout, artifacts not compared" >&2
fi

# The repository's benchmark (BENCHMARK.json): every workload for 0.2 s
# trials, results checked byte for byte, and the metric names checked
# against the contract. Numbers are not gated here; see perf/README.md.
# A perf/ build rewrites perf/Cargo.lock, which lacks the plan9-datakit
# -> plan9-netlog edge and may change only with the benchmark: put it
# back as it was, so that verify leaves the tree as it found it.
mkdir -p target && cp perf/Cargo.lock target/perf-Cargo.lock.orig
trap 'cp target/perf-Cargo.lock.orig perf/Cargo.lock' EXIT
bash perf/run.sh --quick >/dev/null

# Four traced runs, gated on counts only: perf/README.md says these
# repeat exactly from run to run, so noise cannot trip the gate. A
# machine has one Ethernet station and no thread waiting on the wire
# for /net/ether0; a pool shard is a queue, not a thread, and a thread
# that readies an idle one while it holds no lock drains it itself. So
# the client process that writes a request frame onto the unpaced wire
# delivers it, runs the file operation on the server's shard
# (exportfs's conversations are fed by ninep::server::serve_on_shard)
# and delivers the reply frames too, and
# finds the reply waiting when it comes to read it. A 64-byte RPC over
# IL costs two frames and no context switch (under 0.1 a call: the
# timer wheel's jobs still go to a worker), on seven threads at most: a
# lock held across the client's send again, which hands each frame to a
# pool worker, shows as two switches a call, and an exportfs kproc
# reading the conversation, or a thread per shard, as more and as nine
# threads. A
# message is copied in from its writer, into the frames that carry it,
# once more if those were fragments, and out to its reader, and nowhere
# else between IlConn::send and IlConn::recv: a copy or a buffer put
# back on that path shows in the bytes copied and allocated per byte
# delivered, on the small RPC and on the 8 KiB read that fragments; a
# drain job boxed per message, or an IL ack that collects the ids it
# acknowledges again, shows as an 18th allocation on the small RPC
# (17.01) and a 36th on the 8 KiB read (35.05).
# Over TCP the same read is a request, six segments and two
# acknowledgments — one for every second segment, the last one's riding
# on the next request — on no switch either: the exportfs kproc parked
# in TCP's data file again shows as switches, a readiness hook fired on
# every ack as an eleventh pool job. The reply is framed once, into
# the buffer TCP keeps (the copy in, tcp.segment), then into the
# frames, out to the client's reader, and once more where its deframer
# hands the client a message of its own (marshal.deframe): 4.07 bytes
# copied a payload byte, counting the marshaling copies 3.3 did not
# (they read 6.08 uncut). A second framing copy on the server, or a
# deframer that copies a chunk it could take over, shows as 5 and more;
# an ack per segment as 14 frames, a byte queue that copies again in
# the bytes. A pipe is served the same way: the caller's write of a
# request onto it runs exportfs's service and writes the reply, so
# rpc64_pipe makes no switch either, one pool job a call (the readiness
# hook's), seven allocations, and four threads (serve_on_shard's
# catch-up feed readies a pool worker once). The exportfs kproc reading
# the pipe again shows as two switches a call, a hook fired by the
# reply's own put as a second job, and a reader that copies a whole
# delimited block instead of taking its buffer as an eighth and ninth
# allocation (one for the request, one for the reply).
traced_gate() {
    bash perf/run.sh --workload "$1" --seed 1 --seconds 2 --trace 1 | tail -n 1 | python3 -c '
import json, sys
workload, gates = sys.argv[1], sys.argv[2:]
r = json.load(sys.stdin)
if r["failed"] or not r["correct"]:
    sys.exit("verify: traced %s: %d failed operations, correct=%s" % (workload, r["failed"], r["correct"]))
m = {k: v["value"] for k, v in r["metrics"].items()}
for gate in gates:
    name, op, bound = gate.split()
    ok = {"<": m[name] < float(bound), "<=": m[name] <= float(bound), "==": m[name] == float(bound)}[op]
    if not ok:
        sys.exit("verify: traced %s: %s = %s, want %s %s" % (workload, name, m[name], op, bound))
' "$@"
}
traced_gate rpc64_il \
    "os.ctxsw_per_op < 0.1" "os.threads <= 7" \
    "inet.il.pkts_per_op == 2" "netsim.ether.frames_per_op == 2" \
    "copy.bytes_per_payload_byte <= 6.0" "alloc.calls_per_op <= 18"
traced_gate read8k_il \
    "os.ctxsw_per_op < 0.1" \
    "copy.bytes_per_payload_byte <= 4.2" "alloc.bytes_per_op <= 64000" \
    "alloc.calls_per_op <= 36" \
    "netsim.ether.frames_per_op == 7" "inet.ip.frags_per_op == 6"
traced_gate read8k_tcp \
    "netsim.ether.frames_per_op <= 10" "inet.tcp.segs_per_op <= 10" \
    "inet.tcp.rexmit_per_kop == 0" "os.ctxsw_per_op < 0.1" "os.threads <= 7" \
    "support.pool.jobs_per_op <= 10.05" "alloc.calls_per_op <= 43" \
    "copy.bytes_per_payload_byte <= 4.1"
traced_gate rpc64_pipe \
    "os.ctxsw_per_op < 0.1" "os.threads <= 4" "support.pool.jobs_per_op <= 1.01" \
    "alloc.calls_per_op <= 7.01"

echo "verify: OK (checkflow + core purity + clippy + hermetic build + tests + protocol checker + examples + trace-off ring + LoC ratchet + modelled artifacts: Table 1, loss sweep, cityload, scenario and netmon gates, EXPERIMENTS.md tables, committed byte for byte + perf --quick + traced count gates on rpc64_il, read8k_il, read8k_tcp and rpc64_pipe)"
