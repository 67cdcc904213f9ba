#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — exactly what a hosted pipeline
# would run. Fails fast on the first broken step.
set -euo pipefail

cd "$(dirname "$0")/.."

# Bake the commit into /healthz and /debug/vars build info.
GTINKER_GIT_HASH=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export GTINKER_GIT_HASH

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> benchmark lock (benchmark/ builds --offline without --locked: a dependency edit must not rewrite its Cargo.lock)"
cargo metadata --offline --locked --manifest-path benchmark/Cargo.toml --format-version 1 >/dev/null

echo "==> benchmark compiles (a core API change that breaks benchmark/ fails here, not in a benchmark run)"
cargo check --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
cargo test -q --workspace

echo "==> incremental oracle suite (repair == cold fixpoint after every batch)"
cargo test -q -p gtinker-integration --test incremental_oracle

echo "==> recovery smoke test (ingest -> crash-free recover round-trip)"
GT=target/release/gtinker
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$GT" generate --dataset Hollywood-2009 --scale-factor 512 --out "$SMOKE/g.txt"
"$GT" ingest "$SMOKE/g.txt" --wal "$SMOKE/db" --batch 1024 --snapshot-every 4
"$GT" recover "$SMOKE/db" --root 0 --validate | tee "$SMOKE/recover.out"
grep -q "replayed" "$SMOKE/recover.out"
grep -q "validated: RHH probe distances and SWAR tag lanes" "$SMOKE/recover.out"

echo "==> pipeline smoke test (pooled ingest with snapshots, resumed at another --pool -> recover; edge counts agree with a one-shot ingest)"
"$GT" ingest "$SMOKE/g.txt" --wal "$SMOKE/db_pool" --batch 512 --sync never \
    --pool 4 --pipeline | tee "$SMOKE/ingest_pool.out"
LIVE=$(sed -n 's/.* \([0-9][0-9]*\) live, next lsn.*/\1/p' "$SMOKE/ingest_pool.out")
test -n "$LIVE"
# No snapshot: the whole 4-shard log is one tail, replayed grouped by source.
"$GT" recover "$SMOKE/db_pool" --validate | tee "$SMOKE/recover_tail.out"
grep -q "recovered GraphTinker: $LIVE edges" "$SMOKE/recover_tail.out"
grep -q "snapshot lsn 0" "$SMOKE/recover_tail.out"
# Each new source's whole insert-only run goes straight to its final tier.
grep -q ", [1-9][0-9]* sources placed whole" "$SMOKE/recover_tail.out"
grep -q "validated: RHH probe distances and SWAR tag lanes" "$SMOKE/recover_tail.out"
# The same file in two runs into one directory: its head at --pool 4 with
# a snapshot every 4 batches, its tail resumed at --pool 2. What recovers
# is the one-shot ingest's graph, rebuilt from a snapshot plus a log tail.
HEAD_LINES=$(($(wc -l < "$SMOKE/g.txt") / 2))
head -n "$HEAD_LINES" "$SMOKE/g.txt" > "$SMOKE/g_head.txt"
tail -n +"$((HEAD_LINES + 1))" "$SMOKE/g.txt" > "$SMOKE/g_tail.txt"
"$GT" ingest "$SMOKE/g_head.txt" --wal "$SMOKE/db_resume" --batch 512 --sync never \
    --pool 4 --snapshot-every 4 2> "$SMOKE/ingest_head.err"
grep -q "^snapshot at lsn 4: " "$SMOKE/ingest_head.err"
"$GT" ingest "$SMOKE/g_tail.txt" --wal "$SMOKE/db_resume" --batch 512 --sync never \
    --pool 2 | tee "$SMOKE/ingest_resume.out"
grep -q " $LIVE live, next lsn" "$SMOKE/ingest_resume.out"
"$GT" recover "$SMOKE/db_resume" --validate | tee "$SMOKE/recover_pool.out"
grep -q "recovered GraphTinker: $LIVE edges" "$SMOKE/recover_pool.out"
grep -q "snapshot lsn [1-9]" "$SMOKE/recover_pool.out"
grep -q "validated: RHH probe distances and SWAR tag lanes" "$SMOKE/recover_pool.out"

echo "==> streaming ingest smoke test (messy input == clean twin; bad last line leaves a valid prefix)"
# The same edges rewritten with CRLF, comments and blank lines must ingest
# to the same live count as the clean file.
awk 'NR % 50 == 1 { printf "# block %d\r\n\r\n", NR } { printf " %s\t%s  %s \r\n", $1, $2, $3 }' \
    "$SMOKE/g.txt" > "$SMOKE/g_messy.txt"
"$GT" ingest "$SMOKE/g_messy.txt" --wal "$SMOKE/db_messy" --batch 512 --sync never \
    --pool 4 --pipeline | tee "$SMOKE/ingest_messy.out"
MESSY_LIVE=$(sed -n 's/.* \([0-9][0-9]*\) live, next lsn.*/\1/p' "$SMOKE/ingest_messy.out")
test "$MESSY_LIVE" = "$LIVE"
# A bad token on the last line: non-zero exit naming that line, and what
# was logged before it recovers and validates.
cp "$SMOKE/g.txt" "$SMOKE/g_bad.txt"
echo "12 oops" >> "$SMOKE/g_bad.txt"
BAD_LINE=$(wc -l < "$SMOKE/g_bad.txt" | tr -d ' ')
if "$GT" ingest "$SMOKE/g_bad.txt" --wal "$SMOKE/db_bad" --batch 512 --sync never \
    --pool 4 --pipeline > "$SMOKE/ingest_bad.out" 2> "$SMOKE/ingest_bad.err"; then
    echo "streaming smoke: ingest of a file with a bad last line exited 0" >&2; exit 1
fi
grep -q "parse error at line $BAD_LINE:" "$SMOKE/ingest_bad.err"
grep -q "batches before it were logged" "$SMOKE/ingest_bad.err"
"$GT" recover "$SMOKE/db_bad" --validate | tee "$SMOKE/recover_bad.out"
grep -q "validated: RHH probe distances and SWAR tag lanes" "$SMOKE/recover_bad.out"

echo "==> stats smoke test (ingest --stats; stats parity between file and recovered store)"
"$GT" ingest "$SMOKE/g.txt" --wal "$SMOKE/db_stats" --batch 1024 --stats | tee "$SMOKE/ingest_stats.out"
grep -q "gtinker_tinker_inserts" "$SMOKE/ingest_stats.out"
# The parse stage's metrics, end to end: every line of the file counted
# once, one histogram observation per chunk read.
grep -q "^gtinker_ingest_parsed_edges_total $(wc -l < "$SMOKE/g.txt" | tr -d ' ')$" "$SMOKE/ingest_stats.out"
grep -q "^gtinker_ingest_parse_ns_count [1-9]" "$SMOKE/ingest_stats.out"
"$GT" stats "$SMOKE/g.txt" --format json | tee "$SMOKE/stats_file.json"
FILE_EDGES=$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$SMOKE/stats_file.json" | head -1)
test -n "$FILE_EDGES"
test "$FILE_EDGES" -gt 0
grep -q '"rhh_probe"' "$SMOKE/stats_file.json"
"$GT" stats "$SMOKE/db_stats" --format json | tee "$SMOKE/stats_dir.json"
DIR_EDGES=$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$SMOKE/stats_dir.json" | head -1)
test "$FILE_EDGES" = "$DIR_EDGES"
"$GT" stats "$SMOKE/g.txt" --format prom | grep -q "gtinker_tinker_inserts $FILE_EDGES"

echo "==> probe smoke test (SWAR tag engine live; fingerprint FP rate per scanned lane < 2%)"
SCANS=$(sed -n 's/.*"rhh_tag_group_scans": \([0-9][0-9]*\).*/\1/p' "$SMOKE/stats_file.json" | head -1)
FPS=$(sed -n 's/.*"rhh_tag_false_positive": \([0-9][0-9]*\).*/\1/p' "$SMOKE/stats_file.json" | head -1)
test -n "$SCANS" && test -n "$FPS"
test "$SCANS" -gt 0 || { echo "probe smoke: rhh_tag_group_scans is 0 (tag engine dead?)" >&2; exit 1; }
# A group scan covers 8 tag lanes; a 7-bit fingerprint collides on ~1/128
# of occupied lanes, so 2% of scanned lanes is a generous ceiling.
test $((FPS * 50)) -lt $((SCANS * 8)) || {
    echo "probe smoke: tag FP rate >= 2% ($FPS false positives / $SCANS group scans)" >&2; exit 1; }

echo "==> layout smoke test (skewed ingest populates all tier counters by default; --paper-layout none)"
"$GT" generate --dataset Zipf_SourceSkew --scale-factor 512 --out "$SMOKE/skew.txt"
"$GT" stats "$SMOKE/skew.txt" --format json | tee "$SMOKE/stats_default.json"
for field in tier_inline_vertices tier_blocks_vertices tier_hub_vertices tier_promotions; do
    VAL=$(sed -n "s/.*\"$field\": \([0-9][0-9]*\).*/\1/p" "$SMOKE/stats_default.json" | head -1)
    test -n "$VAL"
    test "$VAL" -gt 0 || { echo "layout smoke: $field is 0 with no flag" >&2; exit 1; }
done
grep -q '"hub_dead_slots": 0' "$SMOKE/stats_default.json"
"$GT" stats "$SMOKE/skew.txt" --format prom > "$SMOKE/stats_default.prom"
grep -q "gtinker_memory_total_bytes" "$SMOKE/stats_default.prom"
grep -q "gtinker_tier_hub_vertices" "$SMOKE/stats_default.prom"
grep -q "gtinker_tier_hub_dead_slots" "$SMOKE/stats_default.prom"
# The paper's fixed layout tiers nothing and must agree on what the store contains.
DEFAULT_EDGES=$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$SMOKE/stats_default.json" | head -1)
"$GT" stats "$SMOKE/skew.txt" --paper-layout --format json > "$SMOKE/stats_paper.json"
for field in tier_inline_vertices tier_hub_vertices; do
    VAL=$(sed -n "s/.*\"$field\": \([0-9][0-9]*\).*/\1/p" "$SMOKE/stats_paper.json" | head -1)
    test "$VAL" = 0 || { echo "layout smoke: --paper-layout reports $field = $VAL" >&2; exit 1; }
done
PAPER_EDGES=$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$SMOKE/stats_paper.json" | head -1)
test "$DEFAULT_EDGES" = "$PAPER_EDGES"

echo "==> layout bytes gate (default layout: bytes/edge <= 0.45 x --paper-layout's and <= an absolute bound)"
# Counts, not timings: memory_bytes is the store's allocated bytes and the
# RMAT generator is seeded, so both figures repeat exactly on any box.
# With page-width classes, segmented tables and CAL slot reuse the default
# layout held this graph in 61.3 B/edge and the paper layout in 160.9
# (ratio 0.38); the commit before them measured 111.0 and 170.0 (0.65).
# Since the CAL copies only edgeblock-tier edges the default layout holds
# it in 51.0 B/edge (50.96; paper unchanged, ratio 0.32), so the absolute
# bound moved from 64 to 51.
MAX_DEFAULT_BYTES_PER_EDGE=51
"$GT" generate --rmat-scale 17 --edges 500000 --seed 3 --out "$SMOKE/big.txt"
"$GT" stats "$SMOKE/big.txt" --format json > "$SMOKE/stats_rmat_default.json"
"$GT" stats "$SMOKE/big.txt" --paper-layout --format json > "$SMOKE/stats_rmat_paper.json"
python3 - "$SMOKE/stats_rmat_default.json" "$SMOKE/stats_rmat_paper.json" "$MAX_DEFAULT_BYTES_PER_EDGE" <<'PYEOF'
import json, sys
default, paper = (json.load(open(p)) for p in sys.argv[1:3])
assert default["live_edges"] == paper["live_edges"] > 0
per_edge = lambda st: st["memory_bytes"] / st["live_edges"]
widths = [c[0] for c in default["block_classes"]]
assert widths == [16, 32, 64] and [c[0] for c in paper["block_classes"]] == [64], widths
assert per_edge(default) <= 0.45 * per_edge(paper), \
    f"default {per_edge(default):.1f} B/edge > 0.45 x paper {per_edge(paper):.1f}"
assert per_edge(default) <= float(sys.argv[3]), \
    f"default layout {per_edge(default):.1f} B/edge over the bound {sys.argv[3]}"
print(f"layout bytes ok: default {per_edge(default):.1f} B/edge, paper {per_edge(paper):.1f}")
PYEOF

echo "==> incremental smoke test (churned incremental CC == cold fixpoint; recover parity)"
"$GT" cc "$SMOKE/g.txt" --restart incremental --churn-every 5 --batch 512 --verify | tee "$SMOKE/cc_churn.out"
grep -q "verify: PASS" "$SMOKE/cc_churn.out"
"$GT" cc "$SMOKE/g.txt" | tee "$SMOKE/cc_cold.out"
COLD_CC=$(sed -n 's/CC: \([0-9][0-9]*\) components.*/\1/p' "$SMOKE/cc_cold.out")
test -n "$COLD_CC"
"$GT" cc "$SMOKE/g.txt" --restart incremental --batch 1024 --verify | tee "$SMOKE/cc_incr.out"
grep -q "verify: PASS" "$SMOKE/cc_incr.out"
INCR_CC=$(sed -n 's/CC: \([0-9][0-9]*\) components.*/\1/p' "$SMOKE/cc_incr.out")
test "$COLD_CC" = "$INCR_CC"
# Recover-and-cold-compute parity: the recovery smoke above already
# round-tripped this graph through the WAL; its BFS reach must match the
# incremental solve of the same file.
RECOVER_REACH=$(sed -n 's/BFS from 0: \([0-9][0-9]*\) reached.*/\1/p' "$SMOKE/recover.out")
test -n "$RECOVER_REACH"
"$GT" bfs "$SMOKE/g.txt" --root 0 --restart incremental --batch 1024 | tee "$SMOKE/bfs_incr.out"
INCR_REACH=$(sed -n 's/BFS from 0: \([0-9][0-9]*\) reached.*/\1/p' "$SMOKE/bfs_incr.out")
test "$RECOVER_REACH" = "$INCR_REACH"

echo "==> loaders-agree smoke test (cold whole-file bfs at 1 and 2 shards == recovered log; sources placed whole)"
# The cold load groups the file by source and places each new source's
# run whole (`ApplyBatch::load`, the path recovery replays its tail on).
for SH in 1 2; do
    "$GT" bfs "$SMOKE/g.txt" --root 0 --shards "$SH" \
        > "$SMOKE/bfs_cold_$SH.out" 2> "$SMOKE/bfs_cold_$SH.err"
    cat "$SMOKE/bfs_cold_$SH.err" "$SMOKE/bfs_cold_$SH.out"
    COLD_REACH=$(sed -n 's/BFS from 0: \([0-9][0-9]*\) reached.*/\1/p' "$SMOKE/bfs_cold_$SH.out")
    test "$COLD_REACH" = "$RECOVER_REACH"
    grep -q "^loaded .*, [1-9][0-9]* sources placed whole" "$SMOKE/bfs_cold_$SH.err"
done

echo "==> trace smoke test (traced pooled ingest -> Perfetto-loadable timeline with live shard tracks)"
# The append/apply overlap is a timing property: with --sync never an append
# can finish before any worker picks up the previous batch, so retry the
# capture a few times. The structural assertions hold on every attempt.
TRACE_OK=0
for attempt in 1 2 3; do
    "$GT" trace "$SMOKE/g.txt" --wal "$SMOKE/db_trace_$attempt" --batch 256 --sync never \
        --pool 4 --pipeline --analytics --out "$SMOKE/trace.json"
    if python3 - "$SMOKE/trace.json" <<'PYEOF'
import json, sys

d = json.load(open(sys.argv[1]))
ev = d["traceEvents"]
names = {e["tid"]: e["args"]["name"]
         for e in ev if e.get("ph") == "M" and e.get("name") == "thread_name"}
shard_tids = sorted(t for t, n in names.items() if n.startswith("gtinker-shard-"))
assert len(shard_tids) >= 4, f"want >= 4 shard tracks, got {len(shard_tids)}"
for t in shard_tids:
    c = sum(1 for e in ev if e.get("tid") == t and e.get("ph") in ("B", "E", "i"))
    assert c > 0, f"shard track {names[t]} has no events"

def spans(name):
    open_by_tid, out = {}, []
    for e in ev:
        if e.get("name") != name:
            continue
        if e["ph"] == "B":
            open_by_tid[e["tid"]] = e
        elif e["ph"] == "E" and e["tid"] in open_by_tid:
            b = open_by_tid.pop(e["tid"])
            out.append((b["ts"], e["ts"], b["args"]["v"]))
    return out

appends, applies = spans("wal_append"), spans("pool_apply")
assert appends, "no wal_append spans"
assert applies, "no pool_apply spans"
# The pipelining signature: the WAL append of batch k+1 runs while a shard
# worker is still applying batch k (pooled path: lsn and pool seq align).
overlaps = sum(1 for (s1, e1, lsn) in appends for (s2, e2, seq) in applies
               if lsn == seq + 1 and s1 < e2 and s2 < e1)
assert overlaps >= 1, "no wal_append(k+1) overlapped pool_apply(k)"
assert any(e.get("name") == "engine_process" for e in ev), "no traced analytics"
print(f"trace ok: {len(ev)} events, {len(shard_tids)} shard tracks, "
      f"{overlaps} append/apply overlaps")
PYEOF
    then
        TRACE_OK=1
        break
    fi
    echo "trace smoke: no overlap captured on attempt $attempt, retrying"
done
test "$TRACE_OK" = 1

echo "==> serve smoke test (telemetry + debug endpoints answer; clean /quitquitquit shutdown)"
"$GT" serve "$SMOKE/g.txt" --addr 127.0.0.1:0 --slow-query-ms 0 \
    > "$SMOKE/serve.out" 2> "$SMOKE/serve.err" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null; rm -rf "$SMOKE"' EXIT
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's#serving on http://\([^ ]*\).*#\1#p' "$SMOKE/serve.out")
    test -n "$ADDR" && break
    sleep 0.1
done
test -n "$ADDR"
curl -fsS "http://$ADDR/healthz" | tee "$SMOKE/healthz.json"
grep -q '"status":"ok"' "$SMOKE/healthz.json"
grep -q '"live_edges":' "$SMOKE/healthz.json"
curl -fsS "http://$ADDR/metrics" -o "$SMOKE/metrics.prom"
grep -q "gtinker_tinker_inserts" "$SMOKE/metrics.prom"
curl -fsS "http://$ADDR/trace" -o "$SMOKE/trace_live.json"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))["traceEvents"]' "$SMOKE/trace_live.json"
# Every response carries a request id; a query is attributable end to end.
curl -fsSD "$SMOKE/q_headers.txt" "http://$ADDR/query/bfs?src=0" -o /dev/null
grep -qi '^X-Request-Id: [0-9]' "$SMOKE/q_headers.txt"
# /debug/vars: build info plus per-endpoint sliding-window quantiles.
curl -fsS "http://$ADDR/debug/vars" | tee "$SMOKE/debug_vars.json"
python3 - "$SMOKE/debug_vars.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"], "missing build version"
assert "git_hash" in d and d["git_hash"], "missing git hash"
eps = d["endpoints"]
for ep in ("/healthz", "/query/bfs"):
    w = eps[ep]["window"]
    assert eps[ep]["requests"] >= 1, f"{ep} saw no requests: {eps[ep]}"
    for q in ("p50_ns", "p95_ns", "p99_ns"):
        assert q in w, f"{ep} window missing {q}: {w}"
print(f"debug vars ok: {len(eps)} endpoints, git {d['git_hash']}")
PYEOF
# /debug/requests: the completed-request ring has phase timings.
curl -fsS "http://$ADDR/debug/requests" | tee "$SMOKE/debug_requests.json"
python3 - "$SMOKE/debug_requests.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["count"] >= 1 and d["requests"], f"empty request ring: {d}"
r = next(r for r in d["requests"] if r["route"] == "/query/bfs")
for k in ("id", "status", "queue_us", "pin_us", "engine_us", "serialize_us", "total_us"):
    assert k in r, f"summary missing {k}: {r}"
print(f"debug requests ok: {d['count']} summaries")
PYEOF
# Non-GET methods get a 405 with an Allow header, never a hang or a 404.
test "$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/healthz")" = 405
# Kept-alive answers leave in one segment: ten sequential round trips on
# one connection take milliseconds, not ten delayed-ACK timeouts (~440 ms).
python3 - "$ADDR" <<'PYEOF'
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
c = socket.create_connection((host, int(port)))
f = c.makefile("rb")
t0 = time.monotonic()
for _ in range(10):
    c.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
    status = f.readline()
    assert status.startswith(b"HTTP/1.1 200"), status
    length = 0
    while (line := f.readline()) not in (b"\r\n", b""):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    assert len(f.read(length)) == length
ms = (time.monotonic() - t0) * 1e3
assert ms < 100, f"10 keep-alive /healthz round trips took {ms:.1f} ms"
print(f"keep-alive ok: 10 round trips in {ms:.1f} ms")
PYEOF
# Graceful shutdown: ask the server to stop instead of killing the process.
curl -fsS "http://$ADDR/quitquitquit" | grep -q "shutting down"
wait "$SERVE_PID"
grep -q "shut down cleanly" "$SMOKE/serve.err"
# --slow-query-ms 0 made every request emit a structured slow-query record
# on stderr; validate the key=value line grammar and the phase fields.
python3 - "$SMOKE/serve.err" <<'PYEOF'
import re, sys
pair = r'[a-z0-9_]+=(?:"(?:[^"\\]|\\.)*"|[^ "]+)'
grammar = re.compile(rf'^{pair}(?: {pair})*$')
records = [l.rstrip("\n") for l in open(sys.argv[1]) if l.startswith("ts=")]
assert records, "no structured log records on stderr"
slow = [l for l in records if 'msg="slow query"' in l]
assert slow, f"no slow-query records among {len(records)} records"
for l in records:
    assert grammar.match(l), f"malformed record: {l!r}"
    for key in ("ts=", "level=", "target=", 'msg="'):
        assert key in l, f"record missing {key}: {l!r}"
for l in slow:
    for key in ("id=", "queue_us=", "pin_us=", "engine_us=", "serialize_us=", "total_us="):
        assert key in l, f"slow-query record missing {key}: {l!r}"
print(f"log format ok: {len(records)} records, {len(slow)} slow-query")
PYEOF
trap 'rm -rf "$SMOKE"' EXIT

echo "==> serve-query smoke test (ingest --serve answers epoch-pinned queries)"
"$GT" ingest "$SMOKE/g.txt" --wal "$SMOKE/db_serve" --batch 256 --sync never \
    --pool 2 --pipeline --serve 127.0.0.1:0 --hold \
    > "$SMOKE/ingest_serve.out" 2> "$SMOKE/ingest_serve.err" &
INGEST_PID=$!
trap 'kill "$INGEST_PID" 2>/dev/null; rm -rf "$SMOKE"' EXIT
QADDR=""
for _ in $(seq 1 50); do
    QADDR=$(sed -n 's#serving on http://\([^ ]*\).*#\1#p' "$SMOKE/ingest_serve.out")
    test -n "$QADDR" && break
    sleep 0.1
done
test -n "$QADDR"
# The endpoint is live from the first batch on (and, with --hold, after the
# stream drains): every query must be a 200 with an epoch-stamped payload.
curl -fsS "http://$QADDR/query/bfs?src=0" | tee "$SMOKE/q_bfs.json"
grep -q '"epoch":' "$SMOKE/q_bfs.json"
grep -q '"reached":' "$SMOKE/q_bfs.json"
curl -fsS "http://$QADDR/neighbors?v=0" | tee "$SMOKE/q_neighbors.json"
grep -q '"neighbors":' "$SMOKE/q_neighbors.json"
curl -fsS "http://$QADDR/degree?v=0" | tee "$SMOKE/q_degree.json"
grep -q '"degree":' "$SMOKE/q_degree.json"
curl -fsS "http://$QADDR/query/cc" | tee "$SMOKE/q_cc.json"
grep -q '"components":' "$SMOKE/q_cc.json"
# Bad parameters are a 400 with a JSON error, not a hang or a 500.
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$QADDR/query/bfs?src=oops")" = 400
# A root beyond the vertex space reaches only itself, and the worker that
# answered it is still serving.
curl -fsS "http://$QADDR/query/bfs?src=4294967295" | tee "$SMOKE/q_bfs_far.json"
grep -q '"reached":1' "$SMOKE/q_bfs_far.json"
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$QADDR/healthz")" = 200
# Once the held ingest is done, a pin reads the last acked batch boundary,
# and a pin with no batch since shares that view instead of netting again.
for _ in $(seq 1 100); do
    grep -q "ingest done; serving queries" "$SMOKE/ingest_serve.err" && break
    sleep 0.1
done
epoch_of() { sed -n 's/.*"epoch":\([0-9]*\).*/\1/p'; }
json_num() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
pins() { curl -fsS "http://$QADDR/metrics" | sed -n 's/^gtinker_epoch_pins //p'; }
rebases() { curl -fsS "http://$QADDR/metrics" | sed -n 's/^gtinker_epoch_rebases //p'; }
CC_EPOCH=$(curl -fsS "http://$QADDR/query/cc" | epoch_of)
ACKED=$(curl -fsS "http://$QADDR/healthz" | json_num acked_batches)
echo "held: /query/cc epoch $CC_EPOCH, /healthz acked_batches $ACKED"
test -n "$CC_EPOCH" && test "$CC_EPOCH" = "$ACKED"
REBASES=$(rebases)
PINS=$(pins)
test "$(curl -fsS "http://$QADDR/degree?v=0" | epoch_of)" = "$CC_EPOCH"
test "$(rebases)" = "$REBASES"
test "$(pins)" -gt "$PINS"
# Served BFS, SSSP and CC (the in-place frontier walk) answer what the
# CLI's cold runs on the engine answer for the same file. The served CC
# propagates along the stored (directed) edges and the CLI's over the
# symmetrized file; on this graph root 0 reaches every vertex with an
# edge, so the two counts agree.
BFS_Q=$(curl -fsS "http://$QADDR/query/bfs?src=0")
SSSP_Q=$(curl -fsS "http://$QADDR/query/sssp?src=0")
CC_Q=$(curl -fsS "http://$QADDR/query/cc")
BFS_CLI=$("$GT" bfs "$SMOKE/g.txt" --root 0 | sed -n 's/^BFS from 0: \([0-9]*\) reached, eccentricity \([0-9]*\).*/\1 \2/p')
SSSP_CLI=$("$GT" sssp "$SMOKE/g.txt" --root 0 | sed -n 's/^SSSP from 0: \([0-9]*\) reached, max distance \([0-9]*\).*/\1 \2/p')
CC_CLI=$("$GT" cc "$SMOKE/g.txt" | sed -n 's/^CC: \([0-9]*\) components.*/\1/p')
echo "served vs cold: bfs $BFS_Q / $BFS_CLI; sssp $SSSP_Q / $SSSP_CLI; cc $CC_Q / $CC_CLI"
test -n "$BFS_CLI" && test "$(echo "$BFS_Q" | json_num reached) $(echo "$BFS_Q" | json_num eccentricity)" = "$BFS_CLI"
test -n "$SSSP_CLI" && test "$(echo "$SSSP_Q" | json_num reached) $(echo "$SSSP_Q" | json_num max_distance)" = "$SSSP_CLI"
test -n "$CC_CLI" && test "$(echo "$CC_Q" | json_num components)" = "$CC_CLI"
# The pin answers the ingest's own count: /healthz's epoch catches up with
# acked_batches, and its live_edges equals the status line's live count.
LIVE=$(sed -n 's/^ingested .* \([0-9]*\) live.*/\1/p' "$SMOKE/ingest_serve.out")
for _ in $(seq 1 100); do
    HEALTH=$(curl -fsS "http://$QADDR/healthz")
    test "$(echo "$HEALTH" | json_num epoch)" = "$(echo "$HEALTH" | json_num acked_batches)" && break
    sleep 0.1
done
echo "held: /healthz $HEALTH; ingest live $LIVE"
test -n "$LIVE" && test "$(echo "$HEALTH" | json_num live_edges)" = "$LIVE"
# /debug/vars reports the read side: the base epoch and the delta length.
curl -fsS "http://$QADDR/debug/vars" | tee "$SMOKE/vars.json" | grep -q '"delta_ops":[0-9]'
grep -q '"base_epoch":[0-9]' "$SMOKE/vars.json"
grep -q '"rebase_lag_batches":[0-9]' "$SMOKE/vars.json"
curl -fsS "http://$QADDR/quitquitquit" | grep -q "shutting down"
wait "$INGEST_PID"
grep -q "ingest done; serving queries" "$SMOKE/ingest_serve.err"
trap 'rm -rf "$SMOKE"' EXIT

echo "==> serve-first smoke test (ingest --serve answers /healthz before the ingest is done)"
# The listener is bound before the first byte is parsed: on a 500k-edge
# file (the layout bytes gate's RMAT-17) the first /healthz answer must
# arrive while batches are still outstanding (its acked_batches below the
# 50 the file holds) and before the 'ingested' line. The probe starts the child itself so that its own
# start-up cannot lose the race.
python3 - "$GT" "$SMOKE/big.txt" "$SMOKE/db_first" <<'PYEOF'
import json, re, subprocess, sys, time, urllib.request
gt, file, db = sys.argv[1:4]
child = subprocess.Popen(
    [gt, "ingest", file, "--wal", db, "--batch", "10000", "--sync", "8", "--pool", "2",
     "--pipeline", "--serve", "127.0.0.1:0", "--hold"],
    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
try:
    addr = re.match(r"serving on http://(\S+)", child.stdout.readline()).group(1)
    deadline = time.monotonic() + 30
    while True:
        try:
            health = json.load(urllib.request.urlopen(f"http://{addr}/healthz", timeout=5))
            break
        except OSError:
            assert time.monotonic() < deadline, "no /healthz answer within 30 s"
            time.sleep(0.001)
    assert health["status"] == "ok", health
    assert health["acked_batches"] < 50, f"first /healthz answer came after the ingest: {health}"
    line = child.stdout.readline()
    assert line.startswith("ingested 500000 edges in 50 batches"), line
    urllib.request.urlopen(f"http://{addr}/quitquitquit", timeout=5).read()
    assert child.wait(timeout=30) == 0
    print(f"serve-first ok: /healthz answered at {health['acked_batches']} of 50 batches acked")
finally:
    child.kill()
PYEOF

echo "==> log bench gate (fig_log_overhead emits BENCH_fig_log_overhead.json; overhead < 5%)"
# The gated number is already a median of paired trials, but on a small
# (single-CPU) box the multi-threaded pool makes individual runs
# scheduler-noisy, so allow up to three attempts. A genuinely expensive
# log site — the failure this gate exists to catch — blows the bar on
# every attempt.
LOG_GATE_OK=0
for LOG_ATTEMPT in 1 2 3; do
    target/release/gtinker-bench fig_log_overhead --scale-factor 2048 --out-dir "$SMOKE/bench_log"
    test -f "$SMOKE/bench_log/BENCH_fig_log_overhead.json"
    grep -q '"enabled_meps"' "$SMOKE/bench_log/BENCH_fig_log_overhead.json"
    grep -q '"disabled_meps"' "$SMOKE/bench_log/BENCH_fig_log_overhead.json"
    if python3 - "$SMOKE/bench_log/BENCH_fig_log_overhead.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["lines_captured"] > 0, "enabled side captured no log records (site dead?)"
assert d["overhead_pct"] < 5.0, f"log overhead {d['overhead_pct']}% >= 5%"
print(f"log overhead ok: {d['overhead_pct']}% ({d['lines_captured']} records)")
PYEOF
    then LOG_GATE_OK=1; break; fi
    echo "log bench gate: attempt $LOG_ATTEMPT over threshold (scheduling noise); retrying" >&2
done
test "$LOG_GATE_OK" -eq 1

echo "==> incremental bench gate (fig_incremental emits BENCH_fig_incremental.json; repair >= 10x cold)"
target/release/gtinker-bench fig_incremental --scale-factor 128 --batches 8 --out-dir "$SMOKE/bench_incremental"
test -f "$SMOKE/bench_incremental/BENCH_fig_incremental.json"
grep -q '"cold_bfs_batch_p99_us"' "$SMOKE/bench_incremental/BENCH_fig_incremental.json"
grep -q '"repair_cc_batch_p99_us"' "$SMOKE/bench_incremental/BENCH_fig_incremental.json"
grep -q '"bfs_mean_cone"' "$SMOKE/bench_incremental/BENCH_fig_incremental.json"
# The acceptance bar: steady-state incremental BFS and CC each >= 10x
# over the cold per-batch re-solve on 1k-op churn batches.
for algo in bfs cc; do
    SPEEDUP=$(sed -n "s/.*\"${algo}_speedup_vs_cold\": \([0-9][0-9]*\)\..*/\1/p" \
        "$SMOKE/bench_incremental/BENCH_fig_incremental.json" | head -1)
    test -n "$SPEEDUP"
    test "$SPEEDUP" -ge 10 || {
        echo "incremental bench: $algo repair speedup ${SPEEDUP}x < 10x over cold" >&2; exit 1; }
done

echo "==> non-test Rust lines per crate, largest files (scripts/loc.sh); no core file above 900; one bench binary"
scripts/loc.sh
scripts/loc.sh all > "$SMOKE/loc.out"
# An 1 800-line tinker.rs accreted one reasonable PR at a time; the next
# one fails here instead.
awk '$2 ~ /^crates\/core\/src\// && $1 > 900 { print "loc gate: " $2 " has " $1 " non-test lines (limit 900)"; bad = 1 } END { exit bad }' "$SMOKE/loc.out" >&2
# Thirty thin-LTO links, one per figure, were most of a release build.
test "$(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml)" -le 1 || { echo "bench gate: crates/bench/Cargo.toml declares more than one [[bin]]; add a registry entry instead" >&2; exit 1; }

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI gate passed."
