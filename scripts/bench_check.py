#!/usr/bin/env python3
"""Regression gate over the recorded benchmark trajectory.

Walks BENCH_sim_throughput.json (repo root) and fails if any recorded
``"speedup"`` ratio sits below the floor (default 0.95, i.e. a >5%
regression against that row's recorded baseline). The floor matches the
measured round-to-round noise of the benchmark host (~±10%, best-of-N
recorded): a best-of ratio under 0.95 is a real regression, not noise.

It also fails if any REQUIRED_PATHS row is missing: load-bearing rows
(the wide-CMP sharding comparison, the 256-way hierarchical decide
latency, the cached 8-way decide latency, the fleet engine's sustained
decision throughput, the budget-interval memo's churned-fleet and
cached-decide before/after rows, the lane-state layout's capture and
full-CMP rows) must not silently drop out of the record when the harness
or the JSON is reorganised.

Usage:
    scripts/bench_check.py [--floor 0.95] [--file BENCH_sim_throughput.json]

The ``--floor`` knob sets the minimum acceptable value for every
``speedup`` row (default 0.95). Raise it to tighten the gate on a quieter
host, or lower it temporarily when a known-noisy row needs to land with a
recorded explanation; the floor applies uniformly to all speedup rows, so
per-row waivers belong in the record's notes, not here.

The speedup check is structural, not positional: every object anywhere in
the JSON document with a ``speedup`` key is gated, so new measurement
sections are covered automatically. Rows document themselves via their
JSON path.

Exit status: 0 when all required rows are present and all speedups clear
the floor, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


# Dotted JSON paths that must resolve to a number in the record. These are
# the rows later PRs' gates reason about; losing one silently would turn the
# trajectory file into noise.
REQUIRED_PATHS = (
    "simulated_mips.cmp_full_8way_mixed.speedup",
    "simulated_mips.cmp_full_64way.speedup",
    "policy_decide_latency.micros_per_decide.policy_decide_32way_exact",
    "policy_decide_latency.micros_per_decide.policy_decide_256way_hier",
    "policy_decide_latency.micros_per_decide.policy_decide_8way_cached",
    "fleet_decisions.fleet_decisions_10k_nodes.decisions_per_sec",
    "fleet_decisions.fleet_decisions_10k_nodes.hit_rate",
    "fleet_chaos_overhead.fleet_chaos_armed_10k_nodes.speedup",
    "serve_decisions.serve_decisions_10k_nodes.speedup",
    "serve_decisions.serve_decisions_10k_nodes.loopback_tcp_1shard_decisions_per_sec",
    "budget_interval_memo.rows.fleet_churn_10k_nodes.speedup",
    "budget_interval_memo.rows.policy_decide_8way_cached.speedup",
    "lane_state_layout.rows.capture_cpu_bound_sixtrack.speedup",
    "lane_state_layout.rows.cmp_full_8way_mixed.speedup",
)


def resolve(document, dotted):
    """Follows a dotted key path through nested dicts; None when absent."""
    node = document
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def missing_required(document):
    """Yields every REQUIRED_PATHS entry absent or non-numeric."""
    for dotted in REQUIRED_PATHS:
        value = resolve(document, dotted)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            yield dotted


def walk_speedups(node, path=""):
    """Yields (json_path, value) for every "speedup" key in the document."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if key == "speedup" and isinstance(value, (int, float)):
                yield path or "<root>", float(value)
            else:
                yield from walk_speedups(value, child)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk_speedups(value, f"{path}[{i}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--floor",
        type=float,
        default=0.95,
        help="minimum acceptable speedup ratio (default: 0.95)",
    )
    parser.add_argument(
        "--file",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_sim_throughput.json",
        help="benchmark record to check (default: repo-root BENCH_sim_throughput.json)",
    )
    args = parser.parse_args()

    try:
        document = json.loads(args.file.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_check: cannot read {args.file}: {err}", file=sys.stderr)
        return 1

    absent = list(missing_required(document))
    for dotted in absent:
        print(f"bench_check: required row missing or non-numeric: {dotted}")

    rows = list(walk_speedups(document))
    if not rows:
        print(f"bench_check: no 'speedup' rows found in {args.file}", file=sys.stderr)
        return 1

    failures = [(path, value) for path, value in rows if value < args.floor]
    for path, value in failures:
        print(f"bench_check: {path}: speedup {value} < floor {args.floor}")
    print(
        f"bench_check: {len(REQUIRED_PATHS) - len(absent)}/{len(REQUIRED_PATHS)} "
        f"required rows present; {len(rows) - len(failures)}/{len(rows)} speedups "
        f"at or above {args.floor} in {args.file.name}"
    )
    return 1 if failures or absent else 0


if __name__ == "__main__":
    sys.exit(main())
