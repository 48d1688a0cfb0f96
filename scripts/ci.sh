#!/usr/bin/env bash
# Full local CI: format, lint, build, test.
#
# Everything runs offline against the vendored dependency subsets; no
# network access is required. The test suite runs twice — once with
# GPM_THREADS=1 (serial paths) and once with GPM_THREADS=2 (worker pool) —
# because the parallel engine guarantees bit-identical results for any
# pool width and both halves of that promise must stay covered.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Public docs must build without warnings: a link to a private item or a
# broken intra-doc path fails here, not on a reader.
echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo build --release"
cargo build --release

echo "==> GPM_THREADS=1 cargo test --workspace"
GPM_THREADS=1 cargo test --workspace --quiet

echo "==> GPM_THREADS=2 cargo test --workspace"
GPM_THREADS=2 cargo test --workspace --quiet

# The fault-injection substrate promises pool-width-independent, seeded
# determinism on the manager control path; run its test group explicitly
# under both widths so the seam tests cannot silently drop out of the
# workspace filter.
echo "==> fault substrate: tests under two pool widths"
GPM_THREADS=1 cargo test --quiet --test fault_recovery --test fault_invariants
GPM_THREADS=2 cargo test --quiet --test fault_recovery --test fault_invariants

# The exact branch-and-bound behind MaxBIPS promises bit-identical
# decisions to the exhaustive scan; run its equivalence group explicitly
# under both pool widths (the 16-way manager run rides the worker pool).
echo "==> solver: equivalence tests under two pool widths"
GPM_THREADS=1 cargo test --quiet --test solver_equivalence
GPM_THREADS=2 cargo test --quiet --test solver_equivalence

# Every core is stepped by one type, CoreModel. It promises the same
# interval statistics for any delivery style (generator, one-op trickle,
# borrowed tape blocks), any quantum boundaries and any pool width; run
# the equivalence group (golden trace hashes of every capture, the
# one-op delivery comparison and the tape-vs-generator quantum-boundary
# proptest) under a serial and a saturated pool.
echo "==> core stepping: step_equivalence under two pool widths"
GPM_THREADS=1 cargo test --quiet --test step_equivalence
GPM_THREADS=8 cargo test --quiet --test step_equivalence

# The full-CMP simulator has one drive: clusters with private L2s behind
# an interconnect, the paper's chip being the one-cluster, free-fabric
# case built by FullCmpSim::new. It promises the same golden hashes for
# that chip through `new` (cmp_equivalence) and through `with_topology`
# (hier_equivalence), and a scheduling-independent 64-way 8x8 golden
# hash. Run both groups (plus the arbiter conservation proptest) under a
# serial and a saturated pool.
echo "==> hierarchical tier: cmp_equivalence + hier_equivalence under two pool widths"
GPM_THREADS=1 cargo test --quiet --test cmp_equivalence --test hier_equivalence
GPM_THREADS=8 cargo test --quiet --test cmp_equivalence --test hier_equivalence

# The fleet-mode decision engine promises bit-identical cached decisions
# under exact keying (memoized solves, CachedMaxBips manager runs) and a
# pool-width-independent tick protocol (dedup groups, residual misses over
# the worker pool, serial insert replay); run its equivalence group under
# a serial and a saturated pool.
echo "==> fleet engine: fleet_equivalence under two pool widths"
GPM_THREADS=1 cargo test --quiet --test fleet_equivalence
GPM_THREADS=8 cargo test --quiet --test fleet_equivalence

# The fleet fault-tolerance layer promises three things that must stay
# pinned: a chaos-armed engine with a never-firing plan is bit-identical
# to the plain engine, any windowed fault schedule recovers to a steady
# tick with pool-width-independent decisions, and checkpoint/restore
# through JSON resumes bit-identically at every pool width.
echo "==> fleet chaos: fleet_chaos under two pool widths"
GPM_THREADS=1 cargo test --quiet --test fleet_chaos
GPM_THREADS=8 cargo test --quiet --test fleet_chaos

# The fleet service promises wire-level determinism: per-node decision
# streams bit-identical across shard counts, pool widths and transports,
# corrupt frames rejected with named errors instead of panics, and
# checkpoint/restore continuing bit-identically through the sharded
# front. It also promises an allocation budget: a decoded report is one
# heap block, a decision none, a report repeated through one reader none,
# and a warm tick allocates once, for the decisions it returns, armed
# (degraded mode, an idle rack budget and fault plan) or not: the tick's
# working vectors are kept by the engine (alloc_budget, a counting global
# allocator).
# Run both groups under a serial and a saturated pool.
echo "==> fleet service: serve_equivalence + alloc_budget under two pool widths"
GPM_THREADS=1 cargo test --quiet --test serve_equivalence --test alloc_budget
GPM_THREADS=8 cargo test --quiet --test serve_equivalence --test alloc_budget

# Loopback serve smoke: `gpm serve` + `gpm loadgen` must keep running end
# to end from the CLI over both transports — a Unix socket under a serial
# pool and TCP under a saturated pool — at one shard and at two. `--once`
# exits the server after the client disconnects; the retry loop absorbs
# bind latency. The loadgen's JSON report must account for every measured
# report: nodes x ticks decisions streamed and none rejected. Arguments
# after the fourth are passed to the server as they are. The report is
# left in SERVE_REPORT for further checks.
serve_smoke() {
    local threads="$1" shards="$2" listen="$3" connect="$4"
    shift 4
    local nodes=64 ticks=4 report
    echo "==> GPM_THREADS=$threads gpm serve --listen $listen --shards $shards${*:+ $*} + loadgen smoke"
    GPM_THREADS="$threads" cargo run --release --quiet -p gpm-cli -- \
        serve --listen "$listen" --shards "$shards" --once "$@" > /dev/null &
    local server_pid=$!
    local attempt
    for attempt in $(seq 1 50); do
        if report="$(GPM_THREADS="$threads" cargo run --release --quiet -p gpm-cli -- \
            loadgen --connect "$connect" --nodes "$nodes" --ticks "$ticks" --json \
            --shutdown 2> /dev/null)"; then
            break
        fi
        if [ "$attempt" -eq 50 ]; then
            echo "serve smoke: loadgen never connected to $connect" >&2
            kill "$server_pid" 2> /dev/null || true
            return 1
        fi
        sleep 0.1
    done
    wait "$server_pid"
    python3 - "$nodes" "$ticks" "$report" << 'EOF'
import json
import sys

nodes, ticks, report = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
assert report["decisions"] == nodes * ticks, f"decisions != {nodes} x {ticks}: {report}"
assert report["rejected"] == 0, f"rejected submissions: {report}"
EOF
    SERVE_REPORT="$report"
}
GPM_SERVE_SOCK="$(mktemp -u /tmp/gpm-ci-serve.XXXXXX.sock)"
serve_smoke 1 1 "unix:$GPM_SERVE_SOCK" "unix:$GPM_SERVE_SOCK"
serve_smoke 1 2 "unix:$GPM_SERVE_SOCK" "unix:$GPM_SERVE_SOCK"
# A rack budget that binds (64 nodes draw far more than 4 kW): every node
# still gets its decision, and the server's own accounting must show the
# rack enforced, by emergency shedding or a watchdog clamp.
serve_smoke 2 2 "unix:$GPM_SERVE_SOCK" "unix:$GPM_SERVE_SOCK" --rack-budget 4000
python3 - "$SERVE_REPORT" << 'EOF'
import json
import sys

fleet = json.loads(json.loads(sys.argv[1])["server_stats"])["fleet"]
enforced = fleet["shed_clamps"] + fleet["watchdog_clamp_ticks"]
assert enforced > 0, f"a binding rack budget was never enforced: {fleet}"
EOF
rm -f "$GPM_SERVE_SOCK"
serve_smoke 8 1 "tcp:127.0.0.1:47391" "tcp:127.0.0.1:47391"
serve_smoke 8 2 "tcp:127.0.0.1:47392" "tcp:127.0.0.1:47392"
# The same at two shards with the fallback machinery armed: solver
# timeouts switch degraded mode on, and the rack budget is split per
# shard. A timed-out report still gets a (fallback) decision, so the
# accounting check is unchanged. The server's own accounting must show
# the degraded path ran: timeouts fired and each got its fallback.
serve_smoke 2 2 "tcp:127.0.0.1:47393" "tcp:127.0.0.1:47393" \
    --faults 'timeout:rate=0.3' --fault-seed 7 --rack-budget 1e9
python3 - "$SERVE_REPORT" << 'EOF'
import json
import sys

fleet = json.loads(json.loads(sys.argv[1])["server_stats"])["fleet"]
assert fleet["solver_timeouts"] > 0, f"no solver timeout fired: {fleet}"
assert fleet["fallback_decisions"] >= fleet["solver_timeouts"], f"a timeout got no fallback: {fleet}"
EOF

# 16-way wide-CMP smoke: the scaling tier must keep running end to end
# from the CLI (exact MaxBIPS vs greedy on a 3^16 search space).
echo "==> gpm figure wide --cores 16 --fast"
cargo run --release --quiet -p gpm-cli -- figure wide --cores 16 --fast > /dev/null

# 64-way hierarchical smoke: the cluster-sharded drive plus the two-level
# HierMaxBips must keep running end to end from the CLI.
echo "==> gpm figure wide --cores 64 --fast"
cargo run --release --quiet -p gpm-cli -- figure wide --cores 64 --fast > /dev/null

# Fleet smoke: the saturating-load tier (decision cache + within-tick
# dedup over replayed phase telemetry) must keep running end to end from
# the CLI.
echo "==> gpm figure fleet --nodes 64 --fast"
cargo run --release --quiet -p gpm-cli -- figure fleet --nodes 64 --fast > /dev/null

# Fleet chaos smoke: the fault-injection tier (per-fault-class recovery
# time, worst rack overshoot, longest violation run) must keep running
# end to end from the CLI, fault grammar included.
echo "==> gpm figure fleet --faults ... --nodes 64 --fast"
cargo run --release --quiet -p gpm-cli -- figure fleet --nodes 64 --fast \
    --faults 'flap@0+8:period=4,down=2,from=2,to=8;corrupt:rate=0.5,to=8;timeout:rate=0.3,to=8' \
    --fault-seed 7 > /dev/null

# Smoke-run the throughput baseline (including the full-CMP two-phase
# cases and the policy-decide latency cases) so the bench target cannot
# bit-rot;
# GPM_BENCH_QUICK bounds the run and failure means panic, not
# regression.
echo "==> GPM_BENCH_QUICK=1 cargo bench -p gpm-bench --bench sim_throughput"
GPM_BENCH_QUICK=1 cargo bench -p gpm-bench --bench sim_throughput

# The benchmark under perfbench/ is its own Cargo workspace that calls the
# library directly (solver::solve, FleetConfig, NodeTelemetry,
# ShardedEngine); run its quick-mode and failed-op tests so API drift fails
# here rather than in a benchmark run.
echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test --offline --quiet --manifest-path perfbench/Cargo.toml

# Gate the recorded benchmark trajectory: any before/after speedup row
# in BENCH_sim_throughput.json below 0.95 (a >5% regression against its
# recorded baseline, beyond best-of-N noise) fails CI, as does a missing
# required row (the 64-way sharding comparison, the 256-way hierarchical
# decide latency). Tune with --floor; see the methodology block in that
# file.
echo "==> scripts/bench_check.py"
python3 scripts/bench_check.py

echo "CI OK"
