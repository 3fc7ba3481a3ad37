#!/usr/bin/env bash
# Tier-1 gate plus style/lint checks, fully offline (all dependencies
# are vendored under vendor/). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release)"
cargo build --release --workspace --offline

echo "== tests"
cargo test --workspace --offline -q

echo "== suvm paging proptests"
cargo test --test suvm_paging --offline -q

echo "== paging_bench smoke"
cargo run --release -p eleos-bench --bin repro --offline -- paging_bench --quick --scale 16
for label in clock fifo random lru slru buddy striped; do
    grep -q "\"$label\"" BENCH_paging.json \
        || { echo "BENCH_paging.json missing $label cells"; exit 1; }
done

echo "== crypto batch-equivalence proptests"
cargo test -p eleos-crypto --offline -q

echo "== scatter-gather / unified-sealer equivalence suite"
cargo test --test batch_equivalence --offline -q

echo "== crypto_bench smoke"
cargo run --release -p eleos-bench --bin repro --offline -- crypto_bench --quick --scale 16
python3 - <<'EOF'
import itertools, json, sys

cells = json.load(open("BENCH_crypto.json"))["cells"]
by_series = {}
for c in cells:
    key = (c["server"], c["crypto"], c["workers"], c["io"])
    by_series.setdefault(key, {})[c["batch"]] = c["cycles_per_op"]

# Single-worker sweep: batched crypto beats or matches per-message at
# every depth, monotone nonincreasing in batch.
for server, crypto in itertools.product(
    ("kvs", "text", "param"), ("per-msg", "batched")
):
    series = by_series.get((server, crypto, 1, "sg"))
    if not series or sorted(series) != [1, 8]:
        sys.exit(f"BENCH_crypto.json missing cells for ({server}, {crypto})")
    if series[8] > series[1]:
        sys.exit(
            f"({server}, {crypto}) cycles/op not monotone nonincreasing: "
            f"batch 1 = {series[1]}, batch 8 = {series[8]}"
        )

# Multi-worker sweep: with two workers, scatter-gather sub-batches must
# beat the per-message I/O baseline at batch 8 and stay monotone.
for server in ("kvs", "text"):
    sg = by_series.get((server, "batched", 2, "sg"))
    per_msg = by_series.get((server, "batched", 2, "per-msg"))
    if not sg or not per_msg or sorted(sg) != [1, 8] or sorted(per_msg) != [1, 8]:
        sys.exit(f"BENCH_crypto.json missing workers=2 cells for {server}")
    if sg[8] >= per_msg[8]:
        sys.exit(
            f"({server}, workers=2) sub-batches must beat per-message at "
            f"batch 8: sg = {sg[8]}, per-msg = {per_msg[8]}"
        )
    if sg[8] > sg[1]:
        sys.exit(
            f"({server}, workers=2, sg) cycles/op not monotone nonincreasing: "
            f"batch 1 = {sg[1]}, batch 8 = {sg[8]}"
        )
print(f"   {len(cells)} cells, workers=2 sub-batches beat per-message")
EOF

echo "== sharded-serving equivalence suite"
cargo test --test sharding_equivalence --offline -q

echo "== fleet equivalence suite (chaos schedules, byte-identical replies)"
cargo test --test fleet_equivalence --offline -q

echo "== session lifecycle suite (handshake, rekey, revocation)"
cargo test --test security --offline -q

echo "== storage shadow-model suite (both engines, rebalancer transparency)"
cargo test --test storage_equivalence --offline -q

echo "== storage_bench smoke"
cargo run --release -p eleos-bench --bin repro --offline -- storage_bench --quick --scale 8
python3 - <<'EOF'
import itertools, json, sys

cells = json.load(open("BENCH_storage.json"))["cells"]
by = {(c["cell"], c["engine"]): c for c in cells}
for key in itertools.product(
    ("shifting", "skewed", "ttl"),
    ("slab-static", "slab-rebal", "slab-rebal-bg", "segment", "segment-bg"),
):
    if key not in by:
        sys.exit(f"BENCH_storage.json missing cell {key}")

# Shifting size mix: the rebalancer reassigns whole slabs to the
# starved class, so it must beat static slabs on busy cycles/op and
# must actually have moved slabs to do it.
static = by[("shifting", "slab-static")]
rebal = by[("shifting", "slab-rebal")]
if rebal["busy_cpo"] >= static["busy_cpo"]:
    sys.exit(
        f"shifting: rebalancer busy c/op {rebal['busy_cpo']:.0f} does not "
        f"beat static {static['busy_cpo']:.0f}"
    )
if rebal["slab_moves"] == 0:
    sys.exit("shifting: the rebalancer never moved a slab")
if static["slab_moves"] != 0:
    sys.exit("shifting: the static engine moved slabs")

# Background maintenance: the fence-synchronous rebalancer stalls the
# serving core for its relocation byte-work; the background engine
# does the same moves from maintenance ticks on another core, so its
# serving-path stall is zero and its busy cycles/op match the
# synchronous engine's within noise.
bg = by[("shifting", "slab-rebal-bg")]
if rebal["maint_stall_cycles"] == 0:
    sys.exit("shifting: the synchronous rebalancer recorded no fence stall")
if bg["maint_stall_cycles"] != 0:
    sys.exit(
        f"shifting: background rebalancer stalled the serving path "
        f"{bg['maint_stall_cycles']} cycles"
    )
if bg["slab_moves"] == 0:
    sys.exit("shifting: the background rebalancer never moved a slab")
if bg["busy_cpo"] > rebal["busy_cpo"] * 1.02:
    sys.exit(
        f"shifting: background rebalancer busy c/op {bg['busy_cpo']:.0f} more "
        f"than 2% over the synchronous engine {rebal['busy_cpo']:.0f}"
    )
segbg = by[("shifting", "segment-bg")]
seg_sync = by[("shifting", "segment")]
if segbg["maint_stall_cycles"] != 0:
    sys.exit(
        f"shifting: background segment store stalled the serving path "
        f"{segbg['maint_stall_cycles']} cycles"
    )
if segbg["bg_merges"] == 0:
    sys.exit("shifting: the background segment store never merged proactively")
if segbg["busy_cpo"] >= seg_sync["busy_cpo"]:
    sys.exit(
        f"shifting: background segment busy c/op {segbg['busy_cpo']:.0f} does "
        f"not beat the fence-synchronous store {seg_sync['busy_cpo']:.0f}"
    )

# One maintenance path: inline and background placement differ only in
# which core pays, so each engine makes identical decisions either way.
for cell in ("shifting", "skewed", "ttl"):
    for inline, bg in (("slab-rebal", "slab-rebal-bg"), ("segment", "segment-bg")):
        for field in ("evictions", "slab_moves", "seg_merges", "items_end"):
            a, b = by[(cell, inline)][field], by[(cell, bg)][field]
            if a != b:
                sys.exit(f"{cell}: {inline} {field} {a} != {bg} {field} {b}")

# TTL-heavy traffic: the segment store reclaims whole expired segments
# at fences and must beat the static slab engine on busy cycles/op.
seg = by[("ttl", "segment")]
slab = by[("ttl", "slab-static")]
if seg["busy_cpo"] >= slab["busy_cpo"]:
    sys.exit(
        f"ttl: segment busy c/op {seg['busy_cpo']:.0f} does not beat "
        f"slab-static {slab['busy_cpo']:.0f}"
    )
if seg["expired"] == 0 or slab["expired"] == 0:
    sys.exit("ttl: no expiry activity — the cell is not exercising TTLs")
print(
    f"   {len(cells)} cells, rebalancer beats static slabs under the size "
    f"shift ({rebal['busy_cpo']:.0f} vs {static['busy_cpo']:.0f} c/op), "
    f"segment store beats slabs under TTL churn "
    f"({seg['busy_cpo']:.0f} vs {slab['busy_cpo']:.0f} c/op), background "
    f"maintenance keeps the serving-path stall at 0 "
    f"(sync rebalance stalled {rebal['maint_stall_cycles']} cycles)"
)
EOF

echo "== serving_bench smoke"
# Scale 8, not 16: at 1/16 the LLC is barely larger than four shards'
# staging buffers, and the balance layer's extra buffer traffic
# (stolen runs land in the thief's stripes) drowns the round savings
# it exists to demonstrate.
cargo run --release -p eleos-bench --bin repro --offline -- serving_bench --quick --scale 8
python3 - <<'EOF'
import itertools, json, sys

cells = json.load(open("BENCH_serving.json"))["cells"]
# Cells are keyed by (load, policy, shards, balance, replicas, chaos).
# Fleet cells (the ones with per-replica op counts) re-run the
# replicas=1 configuration through the fleet harness, so they are kept
# apart from the single-enclave sweep.
sweep = [c for c in cells if not c["replica_ops"]]
by_cell = {
    (c["load"], c["policy"], c["shards"], c["balance"], c["replicas"], c["chaos"]): c
    for c in sweep
}
fleet = {
    (c["policy"], c["replicas"], c["chaos"]): c for c in cells if c["replica_ops"]
}

# Every (load, policy, shards, balance) sweep cell must be present,
# with percentiles; the skewed and churn shapes add balanced cells at
# 2 and 4 shards.
expected = [
    (load, policy, shards, "static", 1, "none")
    for load, policy, shards in itertools.product(
        ("steady", "bursty", "trickle", "skewed", "churn"),
        ("fixed-1", "fixed-8", "fixed-32", "adaptive"),
        (1, 2, 4),
    )
] + [
    (load, policy, shards, "balanced", 1, "none")
    for load, policy, shards in itertools.product(
        ("skewed", "churn"),
        ("fixed-1", "fixed-8", "fixed-32", "adaptive"),
        (2, 4),
    )
]
for key in expected:
    c = by_cell.get(key)
    if c is None:
        sys.exit(f"BENCH_serving.json missing cell {key}")
    if not (c["sojourn_p50"] <= c["sojourn_p95"] <= c["sojourn_p99"]):
        sys.exit(f"{key} percentiles not ordered")
    if c["sojourn_count"] == 0:
        sys.exit(f"{key} recorded no sojourn samples")
    for gauge in (
        "shard_backlog",
        "shard_depth",
        "steals_taken",
        "steals_given",
        "migrations",
        "shard_sojourn_p99",
    ):
        if len(c[gauge]) != c["shards"]:
            sys.exit(f"{key} gauge {gauge} has {len(c[gauge])} entries, want {c['shards']}")

for shards in (1, 2, 4):
    # Bursty load: the adaptive depth must grow into the burst and at
    # least match the shallow fixed policy's throughput.
    ad = by_cell[("bursty", "adaptive", shards, "static", 1, "none")]
    f1 = by_cell[("bursty", "fixed-1", shards, "static", 1, "none")]
    if ad["throughput_ops_s"] < f1["throughput_ops_s"]:
        sys.exit(
            f"bursty shards={shards}: adaptive throughput "
            f"{ad['throughput_ops_s']:.0f} below fixed-1 {f1['throughput_ops_s']:.0f}"
        )
    # Trickle load: adaptive serves each arrival instead of waiting
    # out a full fixed-32 batch, so its tail latency must not exceed
    # the deep fixed policy's.
    ad = by_cell[("trickle", "adaptive", shards, "static", 1, "none")]
    f32 = by_cell[("trickle", "fixed-32", shards, "static", 1, "none")]
    if ad["sojourn_p99"] > f32["sojourn_p99"]:
        sys.exit(
            f"trickle shards={shards}: adaptive p99 {ad['sojourn_p99']} "
            f"exceeds fixed-32 p99 {f32['sojourn_p99']}"
        )

# Skewed and churning load: the balance layer (re-pinning + stealing)
# must beat or match static pinning on busy cycles/op for the adaptive
# policy, and must not worsen its p99 sojourn.
for load, shards in itertools.product(("skewed", "churn"), (2, 4)):
    bal = by_cell[(load, "adaptive", shards, "balanced", 1, "none")]
    st = by_cell[(load, "adaptive", shards, "static", 1, "none")]
    if bal["busy_cycles_per_op"] > st["busy_cycles_per_op"]:
        sys.exit(
            f"{load} shards={shards}: balanced busy cycles/op "
            f"{bal['busy_cycles_per_op']:.0f} exceeds static {st['busy_cycles_per_op']:.0f}"
        )
    if bal["sojourn_p99"] > st["sojourn_p99"]:
        sys.exit(
            f"{load} shards={shards}: balanced p99 {bal['sojourn_p99']} "
            f"exceeds static p99 {st['sojourn_p99']}"
        )
# Fleet cells: the replicas axis on steady load plus the two chaos
# cells (kill 1 of 3 mid-backlog at 50% of the run, respawn at 75% —
# synchronous fence vs the background maintenance plane).
for key in [
    ("fixed-8", 1, "none"),
    ("fixed-8", 2, "none"),
    ("adaptive", 1, "none"),
    ("adaptive", 2, "none"),
    ("adaptive", 3, "kill-respawn"),
    ("adaptive", 3, "kill-respawn-bg"),
]:
    c = fleet.get(key)
    if c is None:
        sys.exit(f"BENCH_serving.json missing fleet cell {key}")
    # Zero lost replies, chaos or not: host socket queues outlive the
    # enclave and the heir restores before reaping inherited shards.
    if c["lost_replies"] != 0:
        sys.exit(f"fleet cell {key} lost {c['lost_replies']} replies")
    if len(c["replica_ops"]) != c["replicas"]:
        sys.exit(f"fleet cell {key} gauges {len(c['replica_ops'])} replicas")
    if sum(c["replica_ops"]) != c["ops"] or min(c["replica_ops"]) == 0:
        sys.exit(f"fleet cell {key} replica_ops {c['replica_ops']} != ops {c['ops']}")

# Steady state: adding a replica must not tax the pipeline — replicas=2
# (each replica serving its shard slice on its own core) stays within
# 5% busy cycles/op of the single-enclave baseline.
for policy in ("fixed-8", "adaptive"):
    one = fleet[(policy, 1, "none")]["busy_cycles_per_op"]
    two = fleet[(policy, 2, "none")]["busy_cycles_per_op"]
    if two > one * 1.05:
        sys.exit(
            f"fleet {policy}: replicas=2 busy cycles/op {two:.0f} more than "
            f"5% over the single-enclave baseline {one:.0f}"
        )

# Chaos cells: the fence protocols ran, and each stayed under the
# recovery budget. The budget is the *synchronous* cell's busy span
# for both labels: the sync fences run inside that span by
# construction, and the background plane's maintenance-core cycles
# replace that on-path work, so they must stay the same magnitude —
# the bg cell's own (smaller, that is the win) span is not the bound.
budget = (
    fleet[("adaptive", 3, "kill-respawn")]["busy_cycles_per_op"]
    * fleet[("adaptive", 3, "kill-respawn")]["ops"]
)
for label in ("kill-respawn", "kill-respawn-bg"):
    chaos = fleet[("adaptive", 3, label)]
    for fence in ("failover_cycles", "recovery_cycles"):
        if not 0 < chaos[fence] < budget:
            sys.exit(
                f"{label} cell {fence} {chaos[fence]} outside (0, {budget:.0f}) budget"
            )

# Background maintenance plane: the kill/respawn byte-work runs on the
# maintenance core, so the stranded backlog's failover-window p99
# collapses (at least 2x lower than the synchronous fence) while busy
# cycles/op stays at or below the synchronous cell's. The plane must
# actually have run: delta chunks streamed, heartbeat misses observed.
sync_chaos = fleet[("adaptive", 3, "kill-respawn")]
bg_chaos = fleet[("adaptive", 3, "kill-respawn-bg")]
if bg_chaos["maint_chunks"] == 0:
    sys.exit("kill-respawn-bg streamed no delta chunks")
if bg_chaos["hb_misses"] == 0:
    sys.exit("kill-respawn-bg observed no heartbeat misses")
if bg_chaos["sojourn_p99"] > sync_chaos["sojourn_p99"] * 0.5:
    sys.exit(
        f"background chaos p99 {bg_chaos['sojourn_p99']} not at least 2x below "
        f"the synchronous fence's {sync_chaos['sojourn_p99']}"
    )
if bg_chaos["busy_cycles_per_op"] > sync_chaos["busy_cycles_per_op"]:
    sys.exit(
        f"background chaos busy cycles/op {bg_chaos['busy_cycles_per_op']:.0f} "
        f"exceeds the synchronous cell's {sync_chaos['busy_cycles_per_op']:.0f}"
    )

# Session cells: the rekey sweep on the steady/adaptive/1-shard
# baseline plus the two-session revocation chaos cell.
session = {
    c["chaos"]: c
    for c in cells
    if c["chaos"].startswith("rekey-") or c["chaos"] == "revoke"
}
for label in ("rekey-inf", "rekey-4096", "rekey-1024", "rekey-256"):
    c = session.get(label)
    if c is None:
        sys.exit(f"BENCH_serving.json missing session cell {label}")
    # Epoch rotation is double-buffered: the old epoch drains while the
    # new one serves, so nothing is ever dropped or rejected.
    if c["lost_replies"] != 0:
        sys.exit(f"session cell {label} lost {c['lost_replies']} replies")
    if c["auth_failures"] != 0:
        sys.exit(f"session cell {label} had {c['auth_failures']} auth failures")
if session["rekey-inf"]["rekeys"] != 0:
    sys.exit("rekey-inf cell rotated keys")
if session["rekey-256"]["rekeys"] == 0:
    sys.exit("rekey-256 cell never rotated keys")

# A session that never rotates must cost what the static-key pipeline
# cost before the lifecycle existed (within 2% of the PR 7 baseline
# cell), and rotating every 4096 requests stays within 5% of it.
baseline = by_cell[("steady", "adaptive", 1, "static", 1, "none")][
    "busy_cycles_per_op"
]
inf = session["rekey-inf"]["busy_cycles_per_op"]
if inf > baseline * 1.02:
    sys.exit(
        f"rekey-inf busy cycles/op {inf:.0f} more than 2% over the "
        f"static-key baseline {baseline:.0f}"
    )
rk = session["rekey-4096"]["busy_cycles_per_op"]
if rk > baseline * 1.05:
    sys.exit(
        f"rekey-4096 busy cycles/op {rk:.0f} more than 5% over the "
        f"static-key baseline {baseline:.0f}"
    )

# Revocation chaos: the revoked session's queued traffic is dropped and
# counted; the surviving session loses nothing.
rv = session.get("revoke")
if rv is None:
    sys.exit("BENCH_serving.json missing the revoke cell")
if rv["lost_replies"] != 0:
    sys.exit(f"revoke cell: surviving session lost {rv['lost_replies']} replies")
if rv["auth_failures"] == 0:
    sys.exit("revoke cell dropped no traffic")
print(
    f"   {len(cells)} cells, adaptive rides burst throughput and trickle tail "
    f"latency, balance beats static pinning under skew, replicas=2 within 5% "
    f"of single-enclave, chaos cells lost 0 replies, background maintenance "
    f"cuts the failover-window p99 {sync_chaos['sojourn_p99'] / max(bg_chaos['sojourn_p99'], 1):.1f}x, "
    f"rekey-inf within 2% of the static-key baseline, revocation spares the "
    f"surviving session"
)
EOF

echo "== fmt"
cargo fmt --all --check

echo "== clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "CI OK"
