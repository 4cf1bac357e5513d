#!/usr/bin/env python3
"""Benchmark of the diskflow command line: end-to-end metrics of four seeded
workloads, and a traced run that splits each one by layer.

    python3 bench/run.py --workload mc-sphere --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``
of the checkout that holds this file.  Metric names and units come from
``BENCHMARK.json``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A table of the
metrics, the gates and the machine goes to stderr, and the details (gates,
fingerprints, machine, spans) to ``.bench_work/<workload>/seed-<n>-trace-<t>/``.

``attempted`` counts the CLI calls made (each checked on its output) and the
run-level checks; ``failed`` those that failed, so failed_ratio is
failed / attempted.

Untraced runs (``--trace 0``) repeat the workload's operation while the next
one should end within ``--seconds`` (at least once) and report the median
operation time.  Traced runs do a fixed number of operations twice, untraced and then
traced, so that counts repeat exactly for a seed and the difference of the
two walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3


def add_source_path() -> None:
    if not (SRC / "diskflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no diskflow sources under {SRC}")
    sys.path.insert(0, str(SRC))


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diskflow.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of the CLI in a fresh interpreter, median of the set-up repeats."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


@dataclass
class CallResult:
    argv: list[str]
    code: int | None       # None when the call raised
    stderr: str

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])

    def problem(self) -> str:
        if self.code == 0:
            return ""
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {self.code}: {tail[0]}"


def call_cli(argv: list[str], tracer=None) -> CallResult:
    """One in-process CLI call, its output captured; a raised error is a failure."""
    cli = importlib.import_module("diskflow.cli")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.request("cli"):
                    code = cli.run(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return CallResult(argv, code, err.getvalue())


@dataclass
class Op:
    index: int
    wall: float
    results: list[CallResult]


def run_ops(wl, state, call, tag, *, seconds=None, count=None, traced) -> list[Op]:
    """Run ``count`` operations, or as many as fit in ``seconds`` (at least one)."""
    ops = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [call(argv) for argv in wl.op_argv(state, len(ops), tag, traced)]
        ops.append(Op(len(ops), time.perf_counter() - t0, results))
        if count is not None and len(ops) >= count:
            return ops
        # start another operation only if it should end within the budget
        if count is None and time.perf_counter() - start + ops[-1].wall > seconds:
            return ops


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child (pool workers), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    add_source_path()
    import diskflow.cli  # noqa: F401
    import reference
    import tracing
    import workloads
    if not Path(sys.modules["diskflow"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit("error: diskflow was not imported from this checkout")

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / wl.name / f"seed-{args.seed}-trace-{args.trace}"

    # set-up: imports, inputs from the seed, files written, warm-up call;
    # each part is repeated and its median taken
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        fresh_dir(workdir)
        t = time.perf_counter()
        state = wl.setup(args.seed, workdir, call_cli)
        setups.append(time.perf_counter() - t)

    if args.trace:
        plain = run_ops(wl, state, call_cli, "plain", count=wl.trace_ops, traced=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_ops(wl, state, lambda a: call_cli(a, tracer), "traced",
                             count=wl.trace_ops, traced=True)
        finally:
            tracer.uninstall()
        passes = {"plain": plain, "traced": traced}
        metrics = tracing.layer_metrics(
            tracer, sum(op.wall for op in traced), sum(op.wall for op in plain)
        )
        tracer.write(workdir / "spans.jsonl")
    else:
        run = run_ops(wl, state, call_cli, "run", seconds=args.seconds, traced=False)
        passes = {"run": run}
        metrics = {
            "solve_s": statistics.median(op.wall for op in run),
            "setup_s": import_s + statistics.median(setups),
        }

    gates = wl.check(state, passes)
    fp_gates, fingerprints = wl.fingerprints(state, passes, call_cli)
    gates += fp_gates
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    failed = sum(not g.ok for g in gates)
    result = {
        "correct": failed == 0,
        "attempted": len(gates),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    details = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine(), "import_s": import_s,
        "setup_repeats_s": setups,
        "ops": {tag: [op.wall for op in ops] for tag, ops in passes.items()},
        "gates": [g.__dict__ for g in gates], "fingerprints": fingerprints,
        "reference_stored": reference.has_reference(wl.name, args.seed),
        "failed_ratio": failed / len(gates), "result": result,
    }
    (workdir / "result.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {wl.why}", file=sys.stderr)
    print(f"machine: {json.dumps(details['machine'])}", file=sys.stderr)
    for g in gates:
        if not g.ok:
            print(f"FAILED {g.name}: {g.detail}", file=sys.stderr)
    print(f"{'failed_ratio':28s} {failed}/{len(gates)}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
