# Convenience targets; `make ci` mirrors the hosted pipeline.
.PHONY: ci build test lint fmt bench doc smoke ingest-smoke stats-smoke trace-smoke layout-smoke probe-smoke serve-smoke incremental-smoke ledger

ci:
	./scripts/ci.sh

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Ingest -> recover round-trip against the release binary (also part of ci).
smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker ingest "$$SMOKE/g.txt" --wal "$$SMOKE/db" --batch 1024 --snapshot-every 4; \
	target/release/gtinker recover "$$SMOKE/db" --root 0

# Pooled+pipelined ingest -> recover round-trip, asserting the recovered
# edge count matches the ingested live count (also part of ci).
ingest-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker ingest "$$SMOKE/g.txt" --wal "$$SMOKE/db" --batch 512 --sync never --pool 4 --pipeline | tee "$$SMOKE/ingest.out"; \
	LIVE=$$(sed -n 's/.* \([0-9][0-9]*\) live, next lsn.*/\1/p' "$$SMOKE/ingest.out"); test -n "$$LIVE"; \
	target/release/gtinker recover "$$SMOKE/db" | tee "$$SMOKE/recover.out"; \
	grep -q "recovered GraphTinker: $$LIVE edges" "$$SMOKE/recover.out"

# Ingest with live metrics, then `stats` on the flat file and on the
# recovered WAL directory; both views must agree on the live edge count
# (also part of ci).
stats-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker ingest "$$SMOKE/g.txt" --wal "$$SMOKE/db" --batch 1024 --stats | tee "$$SMOKE/ingest.out"; \
	grep -q gtinker_tinker_inserts "$$SMOKE/ingest.out"; \
	target/release/gtinker stats "$$SMOKE/g.txt" --format json | tee "$$SMOKE/file.json"; \
	FE=$$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$$SMOKE/file.json" | head -1); \
	test -n "$$FE"; test "$$FE" -gt 0; \
	target/release/gtinker stats "$$SMOKE/db" --format json | tee "$$SMOKE/dir.json"; \
	DE=$$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$$SMOKE/dir.json" | head -1); \
	test "$$FE" = "$$DE"

# Skewed stream -> stats; every tier counter must be nonzero with no flag,
# --paper-layout must tier nothing, and both layouts must agree on the
# live edge count (also part of ci).
layout-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Zipf_SourceSkew --scale-factor 512 --out "$$SMOKE/skew.txt"; \
	target/release/gtinker stats "$$SMOKE/skew.txt" --format json | tee "$$SMOKE/default.json"; \
	for f in tier_inline_vertices tier_blocks_vertices tier_hub_vertices tier_promotions; do \
		V=$$(sed -n "s/.*\"$$f\": \([0-9][0-9]*\).*/\1/p" "$$SMOKE/default.json" | head -1); \
		test -n "$$V"; test "$$V" -gt 0 || { echo "layout-smoke: $$f is 0" >&2; exit 1; }; \
	done; \
	target/release/gtinker stats "$$SMOKE/skew.txt" --paper-layout --format json > "$$SMOKE/paper.json"; \
	for f in tier_inline_vertices tier_hub_vertices; do \
		V=$$(sed -n "s/.*\"$$f\": \([0-9][0-9]*\).*/\1/p" "$$SMOKE/paper.json" | head -1); \
		test "$$V" = 0 || { echo "layout-smoke: --paper-layout reports $$f = $$V" >&2; exit 1; }; \
	done; \
	DE=$$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$$SMOKE/default.json" | head -1); \
	PE=$$(sed -n 's/.*"live_edges": \([0-9][0-9]*\).*/\1/p' "$$SMOKE/paper.json" | head -1); \
	test "$$DE" = "$$PE"

# Ingest -> stats; the SWAR tag engine must have group-scanned and its
# fingerprint false-positive rate per scanned lane must stay under 2%
# (also part of ci).
probe-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker stats "$$SMOKE/g.txt" --format json > "$$SMOKE/stats.json"; \
	SCANS=$$(sed -n 's/.*"rhh_tag_group_scans": \([0-9][0-9]*\).*/\1/p' "$$SMOKE/stats.json" | head -1); \
	FPS=$$(sed -n 's/.*"rhh_tag_false_positive": \([0-9][0-9]*\).*/\1/p' "$$SMOKE/stats.json" | head -1); \
	test -n "$$SCANS"; test -n "$$FPS"; \
	test "$$SCANS" -gt 0 || { echo "probe-smoke: rhh_tag_group_scans is 0" >&2; exit 1; }; \
	test $$((FPS * 50)) -lt $$((SCANS * 8)) || { echo "probe-smoke: tag FP rate >= 2% ($$FPS/$$SCANS groups)" >&2; exit 1; }; \
	echo "probe-smoke ok: $$SCANS group scans, $$FPS false positives"

# Traced pooled+pipelined ingest -> Perfetto-loadable timeline; validates
# the exported JSON and that every shard worker produced a track (also
# part of ci, which additionally checks the append/apply overlap).
trace-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker trace "$$SMOKE/g.txt" --wal "$$SMOKE/db" --batch 256 --sync never --pool 4 --pipeline --out "$$SMOKE/trace.json"; \
	python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); ev=d["traceEvents"]; \
	names={e["tid"]:e["args"]["name"] for e in ev if e.get("ph")=="M" and e.get("name")=="thread_name"}; \
	tids=[t for t,n in names.items() if n.startswith("gtinker-shard-")]; \
	assert len(tids)>=4, "want 4 shard tracks"; \
	assert all(any(e.get("tid")==t and e.get("ph") in ("B","E","i") for e in ev) for t in tids), "empty shard track"; \
	print("trace ok:", len(ev), "events,", len(tids), "shard tracks")' "$$SMOKE/trace.json"

# Pipelined ingest with the live query endpoint attached: curl the
# epoch-pinned query routes, then shut the server down over HTTP (also
# part of ci, which additionally checks 405/400 handling).
serve-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker ingest "$$SMOKE/g.txt" --wal "$$SMOKE/db" --batch 256 --sync never \
		--pool 2 --pipeline --serve 127.0.0.1:0 --hold > "$$SMOKE/ingest.out" 2>&1 & \
	INGEST_PID=$$!; \
	ADDR=""; for _ in $$(seq 1 50); do \
		ADDR=$$(sed -n 's#serving on http://\([^ ]*\).*#\1#p' "$$SMOKE/ingest.out"); \
		test -n "$$ADDR" && break; sleep 0.1; \
	done; test -n "$$ADDR"; \
	curl -fsS "http://$$ADDR/query/bfs?src=0" | grep -q '"reached":'; \
	curl -fsS "http://$$ADDR/neighbors?v=0" | grep -q '"neighbors":'; \
	curl -fsS "http://$$ADDR/degree?v=0" | grep -q '"degree":'; \
	curl -fsS "http://$$ADDR/quitquitquit" | grep -q "shutting down"; \
	wait "$$INGEST_PID"; echo "serve-smoke ok"

# Churn ingest through the incremental repair engine: deletion-heavy
# incremental CC must equal a cold fixpoint on the same store, churn-free
# incremental CC must match the static solve, and an ingest -> recover
# round trip must agree with incremental BFS on reached vertices (also
# part of ci).
incremental-smoke: build
	@SMOKE=$$(mktemp -d); trap 'rm -rf "$$SMOKE"' EXIT; \
	target/release/gtinker generate --dataset Hollywood-2009 --scale-factor 512 --out "$$SMOKE/g.txt"; \
	target/release/gtinker cc "$$SMOKE/g.txt" --restart incremental --churn-every 5 --batch 512 --verify | tee "$$SMOKE/cc_churn.out"; \
	grep -q "verify: PASS" "$$SMOKE/cc_churn.out"; \
	target/release/gtinker cc "$$SMOKE/g.txt" | tee "$$SMOKE/cc_cold.out"; \
	COLD=$$(sed -n 's/CC: \([0-9][0-9]*\) components.*/\1/p' "$$SMOKE/cc_cold.out"); test -n "$$COLD"; \
	target/release/gtinker cc "$$SMOKE/g.txt" --restart incremental --batch 1024 --verify | tee "$$SMOKE/cc_incr.out"; \
	grep -q "verify: PASS" "$$SMOKE/cc_incr.out"; \
	INCR=$$(sed -n 's/CC: \([0-9][0-9]*\) components.*/\1/p' "$$SMOKE/cc_incr.out"); \
	test "$$COLD" = "$$INCR"; \
	target/release/gtinker ingest "$$SMOKE/g.txt" --wal "$$SMOKE/db" --batch 1024 --sync never; \
	target/release/gtinker recover "$$SMOKE/db" --root 0 | tee "$$SMOKE/recover.out"; \
	RREACH=$$(sed -n 's/BFS from 0: \([0-9][0-9]*\) reached.*/\1/p' "$$SMOKE/recover.out"); test -n "$$RREACH"; \
	target/release/gtinker bfs "$$SMOKE/g.txt" --root 0 --restart incremental --batch 1024 | tee "$$SMOKE/bfs_incr.out"; \
	IREACH=$$(sed -n 's/BFS from 0: \([0-9][0-9]*\) reached.*/\1/p' "$$SMOKE/bfs_incr.out"); \
	test "$$RREACH" = "$$IREACH"; \
	echo "incremental-smoke ok: $$COLD components, $$RREACH reachable from 0"

# The repo's benchmark (BENCHMARK.json): each workload once, tracing off,
# as the driver runs it. Fails when any operation fails its output check;
# timings are printed, not gated (the driver compares them to the parent).
ledger:
	@mkdir -p benchmark/out; for w in lib_churn durable_ingest serve_mixed; do \
		cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
			--workload $$w --seed 7 --seconds 30 --trace 0 | tee benchmark/out/ledger-$$w.txt; \
		tail -1 benchmark/out/ledger-$$w.txt | grep -q '"failed": 0,' \
			|| { echo "ledger: $$w reports failed operations" >&2; exit 1; }; \
	done

build:
	cargo build --release --workspace

test:
	cargo test -q --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --all

bench:
	cargo bench --workspace
