#!/usr/bin/env python3
"""Stored reference outputs of the workloads.

A Monte Carlo workload keeps the SHA-256 of call 0's CSV, which every run of
a seed makes with the same trial seeds.  Its rows hold each trial's accepted
sample (point and face counts on the sphere, the face count of the torus
rectangle), so a run whose resample decisions differ shows another digest.

A solver's vector output (edge lengths, conformal factors) is kept as a
digest: its size, its root mean square and a few fixed random projections scaled by
1/sqrt(size), so a projection moves by about the RMS of a change.  A run
compares its outputs with the digest stored for its seed within an absolute
tolerance per output, loose enough for last-bit changes (another summation
order, a sparse solve) and far below a wrong answer.  Seeds with no stored
reference are checked by the gates alone.

Regenerate after a deliberate change of the outputs or of the inputs:

    python3 bench/reference.py 0 1 2 3 4 5 6 7 8 9
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
PROJECTIONS = 4

# RMS-scale tolerance per output; the flow stops at curvature spread 1e-6
TOLERANCE = {"edge_lengths": 1e-8, "flow": 1e-5, "teleport": 1e-8}


def _tolerance(key: str) -> float:
    return TOLERANCE[key.rstrip("0123456789")]


def digest(v) -> dict:
    v = np.asarray(v, dtype=float)
    w = np.random.default_rng(v.size).standard_normal((PROJECTIONS, v.size))
    return {
        "size": int(v.size),
        "rms": float(np.sqrt(np.mean(v * v))),
        "projections": (w @ v / np.sqrt(v.size)).tolist(),
    }


def _load() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _save(table: dict) -> None:
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def has_reference(workload: str, seed: int) -> bool:
    return str(seed) in _load().get(workload, {})


def compare(workload: str, seed: int, vectors: dict) -> dict[str, list[str]]:
    """Problems per output key; empty lists when everything matches."""
    stored = _load().get(workload, {}).get(str(seed))
    problems: dict[str, list[str]] = {key: [] for key in vectors}
    if stored is None:
        return problems
    for key, v in vectors.items():
        ref, got, tol = stored.get(key), digest(v), _tolerance(key)
        if ref is None or ref["size"] != got["size"]:
            problems[key].append(f"{key}: no matching reference digest")
            continue
        worst = max(
            abs(a - b) for a, b in zip([got["rms"], *got["projections"]],
                                       [ref["rms"], *ref["projections"]])
        )
        if worst > tol:
            problems[key].append(f"{key}: differs from reference by {worst:.3e} > {tol:.0e}")
    return problems


def compare_csv(workload: str, seed: int, sha256: str) -> list[str]:
    """Problems of call 0's CSV digest; empty when it matches or none is stored."""
    stored = _load().get(workload, {}).get(str(seed))
    if stored is None or stored["csv_sha256"] == sha256:
        return []
    return [f"call 0 CSV SHA-256 {sha256[:12]}.. differs from reference {stored['csv_sha256'][:12]}.."]


def main(seeds: list[int]) -> int:
    import run
    run.add_source_path()
    import workloads

    # drop the stale references first, so the gates below do not compare with them
    table = _load()
    for name in workloads.WORKLOADS:
        for seed in seeds:
            table.get(name, {}).pop(str(seed), None)
    _save(table)
    for name, wl in workloads.WORKLOADS.items():
        for seed in seeds:
            workdir = run.WORK / "reference" / name / f"seed-{seed}"
            run.fresh_dir(workdir)
            state = wl.setup(seed, workdir, run.call_cli)
            ops = run.run_ops(wl, state, run.call_cli, "ref", count=1, traced=False)
            failed = [g for g in wl.check(state, {"ref": ops}) if not g.ok]
            if failed:
                print(f"{name} seed {seed}: {failed}", file=sys.stderr)
                return 1
            if hasattr(wl, "vectors"):
                entry = {k: digest(v) for k, v in wl.vectors(state, "ref", 0).items()}
            else:
                entry = {"csv_sha256": workloads.sha256_file(ops[0].results[0].out)}
            table.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {sorted(entry)}", file=sys.stderr)
            _save(table)
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
