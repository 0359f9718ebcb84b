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
# PR 25's count: a call that loses its type fans out by name again.
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
if g["typed_calls"] < 5413:
    sys.exit(f"verify: {g['typed_calls']} method calls resolved by receiver type (need >= 5413)")
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

# Clippy, when the toolchain ships it; warnings are errors so the tree
# stays warning-free.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "verify: NOTICE: cargo clippy not installed, skipping lint" >&2
fi

cargo build --release --offline --workspace
# --workspace: the root manifest is a package as well as the workspace,
# so without it only tests/*.rs run and no crate's own tests do.
cargo test -q --offline --workspace

# The paper's flagship listings must run end to end, still offline
# (snoop is the one end-to-end user of /net/ether0's promiscuous mode;
# echo_server, import_gateway and ftpfs_demo are the §5.2 and §6.1
# listings, which walk, stat and list the devices through exportfs).
for ex in quickstart csquery netstat tracerpc snoop echo_server import_gateway ftpfs_demo; do
    cargo run --release --offline --example "$ex" >/dev/null
done

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

# Benchmark JSON artifacts: regenerate and validate both.
cargo run --release --offline -p plan9-bench --bin table1 fast >/dev/null
cargo run --release --offline -p plan9-bench --bin ilvstcp >/dev/null
python3 -m json.tool BENCH_table1.json >/dev/null
python3 -m json.tool BENCH_ilvstcp.json >/dev/null

# Virtual-time gate: the loss sweep must have run on the virtual clock
# and finished in simulated-milliseconds territory. A >5s wall clock
# means something fell back to real sleeping.
python3 - <<'EOF'
import json, sys
b = json.load(open("BENCH_ilvstcp.json"))
if b.get("vtime") is not True:
    sys.exit("verify: BENCH_ilvstcp.json lacks \"vtime\": true")
wall = b["virtual_sweep_wall_s"]
if wall >= 5.0:
    sys.exit(f"verify: virtual loss sweep took {wall}s wall clock (>= 5s budget)")
EOF

# Connection-scale gate: the cityload fabric (dial storms, accept
# churn, pool-serviced 9P across 1k -> 10k machines) must complete its
# virtual sweep inside a wall budget, on O(cores) service threads.
cargo run --release --offline -p plan9-bench --bin cityload >/dev/null
python3 -m json.tool BENCH_cityload.json >/dev/null
python3 - <<'EOF'
import json, sys
b = json.load(open("BENCH_cityload.json"))
if b.get("vtime") is not True:
    sys.exit("verify: BENCH_cityload.json lacks \"vtime\": true")
wall = b["virtual_sweep_wall_s"]
if wall >= 120.0:
    sys.exit(f"verify: cityload virtual sweep took {wall}s wall clock (>= 120s budget)")
rows = b["sweep"]
if not rows:
    sys.exit("verify: cityload sweep is empty")
top = max(rows, key=lambda r: r["machines"])
if top["machines"] < 10_000 or top["conversations"] < 50_000:
    sys.exit(f"verify: top cityload row is {top['machines']} machines / "
             f"{top['conversations']} conversations (need 10k / 50k)")
# O(cores) service threads, counted: the storm drivers, the pool's
# shards, the wheel, the row's own kproc and the main thread. One
# 9p-worker for a conversation of a MemFs would be one too many.
budget = b["drivers"] + b["pool_shards"] + 1 + 2
if not 0 < top.get("peak_kprocs", 0) <= budget:
    sys.exit(f"verify: top cityload row counted {top.get('peak_kprocs')} kprocs at its peak "
             f"(need 1..{budget}: a service model that makes a thread per conversation?)")
for r in rows:
    for field in ("machines", "conversations", "rpcs", "virtual_s", "rpc_per_virtual_s", "peak_kprocs"):
        if field not in r:
            sys.exit(f"verify: cityload row missing {field}")
    p99 = r.get("p99_us")
    if not p99 or any(k not in p99 or p99[k] <= 0 for k in ("64", "512", "4096")):
        sys.exit(f"verify: cityload row {r['machines']} lacks per-size p99_us")
EOF

# Scenario gate: the generated internet (4 cities x 250 pooled hosts,
# paper-scale ndb) must survive the adversarial walkthrough — flash
# crowd, trunk flap, backbone partition + heal, gateway kill — twice
# with byte-identical reports, clean conservation, and no leaked
# conversations, inside a wall budget.
cargo run --release --offline -p plan9-scenario --bin scenario -- --demo >/dev/null
cargo run --release --offline -p plan9-bench --bin scenariobench >/dev/null
python3 -m json.tool BENCH_scenario.json >/dev/null
python3 - <<'EOF'
import json, sys
b = json.load(open("BENCH_scenario.json"))
if b.get("vtime") is not True:
    sys.exit("verify: BENCH_scenario.json lacks \"vtime\": true")
if b.get("runs_byte_identical") is not True:
    sys.exit("verify: same-seed scenario runs were not byte-identical")
wall = b["virtual_sweep_wall_s"]
if wall >= 120.0:
    sys.exit(f"verify: scenario sweep took {wall}s wall clock (>= 120s budget)")
rows = b["sweep"]
if not rows:
    sys.exit("verify: scenario sweep is empty")
top = rows[0]
if top["hosts"] < 1000:
    sys.exit(f"verify: top scenario row holds {top['hosts']} hosts (need >= 1000)")
for r in rows:
    if r["conservation_violations"] != 0:
        sys.exit(f"verify: scenario row {r['name']} violated frame conservation")
    if r["residual_conns"] != 0:
        sys.exit(f"verify: scenario row {r['name']} leaked {r['residual_conns']} conversations")
    if r["dials_failed"] != 0:
        sys.exit(f"verify: scenario row {r['name']} failed {r['dials_failed']} dials")
    p99 = r.get("p99_us")
    if not p99 or any(v <= 0 for v in p99.values()):
        sys.exit(f"verify: scenario row {r['name']} lacks positive p99_us")
EOF

# netmon gate: the instrumented walkthrough (netmon 250ms on the 4x250
# fabric) must yield non-empty per-gateway series fetched across the
# fabric, byte-identical between two same-seed runs, plus a ranked
# copy-site table whose top three sites all moved bytes — inside a
# wall budget.
cargo run --release --offline -p plan9-bench --bin netdash >/dev/null
python3 -m json.tool BENCH_netmon.json >/dev/null
python3 - <<'EOF'
import json, sys
b = json.load(open("BENCH_netmon.json"))
if b.get("vtime") is not True:
    sys.exit("verify: BENCH_netmon.json lacks \"vtime\": true")
if b.get("runs_byte_identical") is not True:
    sys.exit("verify: same-seed netmon runs were not byte-identical")
if b.get("series_byte_identical") is not True:
    sys.exit("verify: same-seed fabric series were not byte-identical")
wall = b["wall_s"]
if wall >= 120.0:
    sys.exit(f"verify: netdash took {wall}s wall clock (>= 120s budget)")
series = b.get("series", [])
live = [s for s in series if s["samples"] > 0 and s["bytes"] > 0]
if len(live) < 3:
    sys.exit(f"verify: only {len(live)} gateways exported a non-empty series")
if b.get("fabric_samples", 0) <= 0 or not b.get("fabric"):
    sys.exit("verify: merged fabric series is empty")
sites = b.get("copy_sites", [])
if len(sites) < 3 or any(s["bytes"] <= 0 for s in sites[:3]):
    sys.exit(f"verify: top copy sites lack positive byte totals: {sites[:3]}")
if sites != sorted(sites, key=lambda s: -s["bytes"]):
    sys.exit("verify: copy sites are not ranked by bytes")
top3 = b.get("top_copy_sites", [])
if len(top3) != 3 or top3 != [s["site"] for s in sites[:3]]:
    sys.exit(f"verify: top_copy_sites disagrees with the ranked table: {top3}")
EOF

# The repository's benchmark (BENCHMARK.json): every workload for 0.2 s
# trials, results checked byte for byte, and the metric names checked
# against the contract. Numbers are not gated here; see perf/README.md.
bash perf/run.sh --quick >/dev/null

# Four traced runs, gated on counts only: perf/README.md says these
# repeat exactly from run to run, so noise cannot trip the gate. A
# machine has one Ethernet station and no thread waiting on the wire
# for /net/ether0; a pool shard is a queue, not a thread, and the
# worker that delivers a request frame over IL runs the file operation
# (exportfs's IL conversation is fed by il::serve_on_shard) and
# delivers the reply frame too. So a 64-byte RPC over IL costs two
# frames and two context switches, caller to pool worker and back, as
# it does over a pipe, on seven threads at most: a thread per shard or
# an exportfs kproc reading the conversation again shows as four
# switches and nine threads, a second reader thread as seven, a worker
# per read as five and three. A message is copied in from its writer,
# into the frames that carry it,
# once more if those were fragments, and out to its reader, and nowhere
# else between IlConn::send and IlConn::recv: a copy or a buffer put
# back on that path shows in the bytes copied and allocated per byte
# delivered, on the small RPC and on the 8 KiB read that fragments; a
# drain job boxed per message shows as a 21st allocation.
# Over TCP the same read is a request, six segments and two
# acknowledgments — one for every second segment, the last one's riding
# on the next request — copied in from the writer, into the frames and
# out to the reader: an ack per segment again shows as 14 frames and 7
# context switches, a byte queue that copies again in the bytes.
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
    "os.ctxsw_per_op < 3" "os.threads <= 7" \
    "inet.il.pkts_per_op == 2" "netsim.ether.frames_per_op == 2" \
    "copy.bytes_per_payload_byte <= 6.0" "alloc.calls_per_op <= 20"
traced_gate read8k_il \
    "os.ctxsw_per_op < 3" \
    "copy.bytes_per_payload_byte <= 4.2" "alloc.bytes_per_op <= 64000" \
    "netsim.ether.frames_per_op == 7" "inet.ip.frags_per_op == 6"
traced_gate read8k_tcp \
    "netsim.ether.frames_per_op <= 10" "inet.tcp.segs_per_op <= 10" \
    "inet.tcp.rexmit_per_kop == 0" "os.ctxsw_per_op < 6" \
    "alloc.calls_per_op <= 50" "copy.bytes_per_payload_byte <= 3.3"
traced_gate rpc64_pipe \
    "os.ctxsw_per_op < 3" "os.threads <= 3" "alloc.calls_per_op <= 10"

echo "verify: OK (checkflow + clippy + hermetic build + tests + examples + trace-off ring + LoC ratchet + bench JSON + vtime sweep gate + cityload scale gate + scenario adversity gate + netmon telemetry gate + perf --quick + traced count gates on rpc64_il, read8k_il, read8k_tcp and rpc64_pipe)"
