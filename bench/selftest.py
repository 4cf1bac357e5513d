#!/usr/bin/env python3
"""Self-test of the benchmark harness.

For each workload: two traced runs of one seed must agree exactly on the
per-layer counts below and on the Monte Carlo output fingerprints, and a run
of another seed must pass every gate.

    python3 bench/selftest.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work"
SEED, OTHER_SEED = 0, 1

# counts that depend on the seed alone, never on timing
EXACT = [
    "surfaces.samples",
    "delaunay.calls",
    "delaunay.faces",
    "delaunay.accept_ratio",
    "uniformize.newton_iters",
    "hyperbolic.objective_calls",
    "smoothflow.flow_iters",
    "smoothflow.objective_evals",
]


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """Result line and details of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "20", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details_path = WORK / workload / f"seed-{seed}-trace-1" / "result.json"
    return result, json.loads(details_path.read_text(encoding="utf-8"))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()

    problems = []
    for w in args.workloads:
        (a, da), (b, db) = traced_run(w, SEED), traced_run(w, SEED)
        c, _ = traced_run(w, OTHER_SEED)
        for label, r in (("first", a), ("second", b), ("other seed", c)):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: {label} run failed {r['failed']}/{r['attempted']}")
        for name in EXACT:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                problems.append(f"{w}: {name} {va} != {vb}")
        if da["fingerprints"] != db["fingerprints"]:
            problems.append(f"{w}: fingerprints differ {da['fingerprints']} {db['fingerprints']}")
        counts = {n: a["metrics"][n]["value"] for n in EXACT if a["metrics"][n]["value"]}
        print(f"{w}: counts {counts} fingerprints {len(da['fingerprints'])}", file=sys.stderr)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
