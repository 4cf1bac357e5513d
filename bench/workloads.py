"""The benchmark's workloads: seeded inputs, the CLI calls that make up one
timed operation, and the correctness gates on their outputs.

Every workload drives the documented command line (``diskflow.cli.run``)
in-process.  Inputs are built from the benchmark seed alone; the program only
sees the generated files and flags.  Each workload records why it is in the
set next to its definition.

Known defect, left out of the timed set on purpose: the conformal-g2 flow
construction one subdivision finer (F=1536, V=766; the uniformized structure
of seed 1, not jittered) runs the full 5000 iterations (26.6 s on a 2-core
x86-64 machine, numpy 2.4.6, scipy 1.17.1, 2 BLAS threads) and raises
``NoConvergence`` at curvature spread 1.7e-3, with 17.7 domain checks per
iteration.  A time to failure is not a time to solution, so that size joins
the timed set only once the flow converges there.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diskflow.angles import ConformalClassSpec, conformal_class_of, partials_from_angles
from diskflow.complexes import TopologicalTriangulation, genus2_octagon, subdivide
from diskflow.serialization import (
    class_spec_to_dict,
    read_json,
    structure_from_dict,
    write_json,
)
from diskflow.smoothflow import MeshMetric, curvature_h
from diskflow.uniformize import pattern_report, uniformize

import reference

# run-level estimate gate: |mean - target| within this many standard errors
MC_SE_BAND = 5.0
# seeded redraws of an input that misses its precondition, before giving up
MAX_DRAWS = 100


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str = ""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def genus2_subdivided(times: int) -> TopologicalTriangulation:
    """The genus-2 octagon subdivided ``times`` times: F = 6 * 4**times."""
    T = genus2_octagon()
    for _ in range(times):
        T = subdivide(T).complex
    return T


def canonical_class(T: TopologicalTriangulation) -> ConformalClassSpec:
    """Class of the angle system with equal corner angles 2 pi / deg at each vertex."""
    deg = np.array([len(c) for c in T.corners_of_vertex])
    corner = 2 * np.pi / deg[T.vertex_of_corner]
    return conformal_class_of(partials_from_angles(T, corner.reshape(-1, 3)))


def perturbed_class(
    T: TopologicalTriangulation, rng: np.random.Generator, amplitude: float
) -> ConformalClassSpec:
    """Canonical class moved by seeded noise that keeps every vertex sum at 2 pi.

    The noise is projected onto the kernel of the (unsigned) vertex-edge
    incidence, so each vertex still sees its edge values sum to 2 pi.
    """
    M = np.zeros((T.vertex_count, T.edge_count))
    np.add.at(M, (T.edge_endpoints[:, 0], np.arange(T.edge_count)), 1.0)
    np.add.at(M, (T.edge_endpoints[:, 1], np.arange(T.edge_count)), 1.0)
    z = rng.normal(scale=amplitude, size=T.edge_count)
    coef, *_ = np.linalg.lstsq(M @ M.T, M @ z, rcond=None)
    z -= M.T @ coef
    return ConformalClassSpec(T, canonical_class(T).psi_edge + z)


def _write_mesh(path: Path, mesh: MeshMetric) -> None:
    write_json(path, {"complex": mesh.complex.to_dict(), "lengths": mesh.lengths})


# -- Monte Carlo ---------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    """Repeated estimator calls of ``trials`` trials each, seeded per call."""

    name: str
    why: str
    argv: tuple[str, ...]     # the subcommand and its fixed flags
    jobs: int
    trials: int               # per CLI call: one operation
    target: float             # chi (sphere) or the curvature defect (torus rect)
    trace_ops: int = 10       # traced runs use a fixed number of calls

    @property
    def is_defect(self) -> bool:
        return self.argv[0] == "defect"

    def setup(self, seed: int, workdir: Path, call) -> dict:
        # the inputs are flags; warm-up runs the same command on one trial
        warm = workdir / "warmup.csv"
        res = call(self._argv(seed, 0, self.jobs, warm, trials=1))
        if res.code != 0:
            raise RuntimeError(f"warm-up call failed: {res.problem()}")
        return {"seed": seed, "workdir": workdir}

    def _argv(self, seed, op, jobs, out, trials=None):
        return [
            *self.argv,
            "--trials", str(trials or self.trials),
            "--seed", str(seed * 10_000 + op),
            "--jobs", str(jobs),
            "--out", str(out),
        ]

    def op_argv(self, state, op: int, tag: str, traced: bool) -> list[list[str]]:
        # spans cannot cross the process pool, so traced runs use one worker
        jobs = 1 if traced else self.jobs
        out = state["workdir"] / f"{tag}-op{op}.csv"
        return [self._argv(state["seed"], op, jobs, out)]

    def _estimates(self, path: Path) -> tuple[np.ndarray, list[str]]:
        """Per-trial estimator values and any per-row invariant violations."""
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != self.trials:
            problems.append(f"{len(rows)} rows, expected {self.trials}")
        if self.is_defect:
            x0, y0, x1, y1 = map(float, self._flag("--rect", 4))
            region_area = (x1 - x0) * (y1 - y0)
            vals = np.array([2 * self.intensity * region_area - float(r["count"]) for r in rows])
            return vals, problems
        area = 4 * np.pi
        vals = []
        for r in rows:
            n, F, est = int(r["n"]), int(r["F"]), float(r["estimator"])
            if F != 2 * n - 4:
                problems.append(f"trial {r['trial']}: F={F} but 2n-4={2 * n - 4}")
            if abs(est - (area * self.intensity - F / 2)) > 1e-9:
                problems.append(f"trial {r['trial']}: estimator {est} inconsistent")
            vals.append(est)
        return np.array(vals), problems

    def _flag(self, flag: str, count: int = 1) -> list[str]:
        i = self.argv.index(flag)
        return list(self.argv[i + 1 : i + 1 + count])

    @property
    def intensity(self) -> float:
        return float(self._flag("--lambda")[0])

    def check(self, state, passes) -> list[Gate]:
        gates = []
        pooled = []  # the first pass only: a traced pass replays the same seeds
        for tag, ops in passes.items():
            for op in ops:
                for r in op.results:
                    ok = r.code == 0
                    detail = r.problem()
                    if ok:
                        vals, problems = self._estimates(r.out)
                        if tag == next(iter(passes)):
                            pooled.append(vals)
                        ok, detail = not problems, "; ".join(problems[:3])
                    gates.append(Gate(f"{tag} op{op.index}: exit 0 and CSV invariants", ok, detail))
        vals = np.concatenate(pooled) if pooled else np.array([])
        if vals.size > 1:
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size))
            ok = abs(mean - self.target) <= MC_SE_BAND * se
            detail = f"mean={mean:.6g} se={se:.3g} target={self.target} trials={vals.size}"
        else:
            ok, detail = False, "no trials completed"
        gates.append(Gate(f"estimate within {MC_SE_BAND:g} SE of {self.target}", ok, detail))
        return gates

    def fingerprints(self, state, passes, call) -> tuple[list[Gate], dict]:
        """Call 0: the stored digest, the same bytes again, and with the other job count."""
        first_tag = next(iter(passes))
        first = passes[first_tag][0].results[0]
        gates, prints = [], {}
        if first.code != 0:
            return [Gate("fingerprint: call 0 succeeded", False, first.problem())], prints
        ref = sha256_file(first.out)
        prints[f"{first_tag}-op0"] = ref
        stored = reference.compare_csv(self.name, state["seed"], ref)
        gates.append(Gate("fingerprint: call 0 matches the stored reference",
                          not stored, "; ".join(stored)))
        jobs_used = int(first.argv[first.argv.index("--jobs") + 1])
        other = {self.jobs, 1} - {jobs_used}
        for jobs in [jobs_used, *sorted(other)]:
            out = state["workdir"] / f"fingerprint-jobs{jobs}.csv"
            r = call(self._argv(state["seed"], 0, jobs, out))
            ok = r.code == 0 and sha256_file(out) == ref
            prints[f"rerun-jobs{jobs}"] = sha256_file(out) if r.code == 0 else None
            gates.append(Gate(
                f"fingerprint: call 0 re-run with --jobs {jobs} is byte-identical",
                ok, r.problem() or ("" if ok else "SHA-256 differs"),
            ))
        return gates, prints


# -- uniformizer ---------------------------------------------------------------------


@dataclass(frozen=True)
class Uniformize:
    name: str
    why: str
    subdivisions: int
    amplitude: float
    tol: float = 1e-10
    trace_ops: int = 1

    def setup(self, seed: int, workdir: Path, call) -> dict:
        T = genus2_subdivided(self.subdivisions)
        rng = _rng(seed, 1)
        for _ in range(MAX_DRAWS):  # redraw a class that leaves (0.05, pi - 0.05)
            spec = perturbed_class(T, rng, self.amplitude)
            if spec.psi_edge.min() > 0.05 and spec.psi_edge.max() < np.pi - 0.05:
                break
        else:
            raise RuntimeError(f"no class inside (0.05, pi - 0.05) in {MAX_DRAWS} draws")
        path = workdir / "class.json"
        write_json(path, class_spec_to_dict(spec))
        # warm-up: the same command on the 24-face class
        warm_spec = workdir / "warmup-class.json"
        write_json(warm_spec, class_spec_to_dict(canonical_class(genus2_subdivided(1))))
        res = call(["uniformize", str(warm_spec), "--tol", str(self.tol),
                    "--out", str(workdir / "warmup-structure.json")])
        if res.code != 0:
            raise RuntimeError(f"warm-up call failed: {res.problem()}")
        return {"seed": seed, "workdir": workdir, "spec": path}

    def op_argv(self, state, op: int, tag: str, traced: bool) -> list[list[str]]:
        wd = state["workdir"]
        return [[
            "uniformize", str(state["spec"]), "--tol", str(self.tol),
            "--out", str(wd / f"{tag}-op{op}-structure.json"),
            "--trace", str(wd / f"{tag}-op{op}-trace.csv"),
        ]]

    def vectors(self, state, tag: str, op: int) -> dict:
        st = structure_from_dict(read_json(state["workdir"] / f"{tag}-op{op}-structure.json"))
        return {"edge_lengths": st.edge_lengths}

    def check(self, state, passes) -> list[Gate]:
        gates = []
        for tag, ops in passes.items():
            for op in ops:
                name = f"{tag} op{op.index}: converged, pattern ok, area 4 pi, reference"
                r = op.results[0]
                problems = [r.problem()] if r.code != 0 else self._problems(state, tag, op.index)
                gates.append(Gate(name, not problems, "; ".join(problems)))
        return gates

    def _problems(self, state, tag: str, op: int) -> list[str]:
        wd = state["workdir"]
        with open(wd / f"{tag}-op{op}-trace.csv", newline="", encoding="utf-8") as fh:
            last = list(csv.DictReader(fh))[-1]
        st = structure_from_dict(read_json(wd / f"{tag}-op{op}-structure.json"))
        rep = pattern_report(st)
        problems = []
        if not float(last["grad_inf"]) < self.tol:
            problems.append(f"grad_inf {last['grad_inf']} >= tol")
        if not rep.ok:
            problems.append("pattern_report not ok")
        if abs(rep.total_area - 4 * np.pi) > 1e-9:
            problems.append(f"area {rep.total_area!r} != 4 pi")
        for msgs in reference.compare(self.name, state["seed"], self.vectors(state, tag, op)).values():
            problems += msgs
        return problems

    def fingerprints(self, state, passes, call):
        return [], {}


# -- conformal flow ------------------------------------------------------------------


@dataclass(frozen=True)
class Conformal:
    name: str
    why: str
    flow_meshes: int
    flow_subdivisions: int
    class_amplitude: float
    jitter: float
    teleport_subdivisions: int
    tol: float = 1e-6
    trace_ops: int = 1

    def setup(self, seed: int, workdir: Path, call) -> dict:
        # flow meshes: hyperbolic lengths of a uniformized structure read as
        # Euclidean lengths, so every vertex has k < 0; then seeded jitter
        T = genus2_subdivided(self.flow_subdivisions)
        _, st, _ = uniformize(perturbed_class(T, _rng(seed, 2), self.class_amplitude))
        rng = _rng(seed, 3)
        flows = []
        for j in range(self.flow_meshes):
            for _ in range(MAX_DRAWS):
                lengths = st.edge_lengths * (1 + self.jitter * rng.uniform(-1, 1, T.edge_count))
                mesh = MeshMetric(T, lengths)
                if mesh.curvature.max() < 0:
                    break
            else:
                raise RuntimeError(f"no jittered flow mesh with k < 0 in {MAX_DRAWS} draws")
            path = workdir / f"flow-mesh{j}.json"
            _write_mesh(path, mesh)
            flows.append(path)
        # teleport mesh: random lengths, curvature of both signs
        T5 = genus2_subdivided(self.teleport_subdivisions)
        rng = _rng(seed, 4)
        for _ in range(MAX_DRAWS):
            mixed = MeshMetric(T5, rng.uniform(0.75, 1.3, T5.edge_count))
            if mixed.curvature.min() < 0 < mixed.curvature.max():
                break
        else:
            raise RuntimeError(f"no mixed-sign teleport mesh in {MAX_DRAWS} draws")
        mixed_path = workdir / "teleport-mesh.json"
        _write_mesh(mixed_path, mixed)
        res = call(["teleport", str(flows[0]), "--out", str(workdir / "warmup-phi.json")])
        if res.code != 0:
            raise RuntimeError(f"warm-up call failed: {res.problem()}")
        return {"seed": seed, "workdir": workdir, "flows": flows,
                "mixed": mixed_path, "mixed_mesh": mixed}

    def op_argv(self, state, op: int, tag: str, traced: bool) -> list[list[str]]:
        wd = state["workdir"]
        calls = [
            ["flow", str(p), "--tol", str(self.tol),
             "--out", str(wd / f"{tag}-op{op}-flow{j}.json")]
            for j, p in enumerate(state["flows"])
        ]
        calls.append(["teleport", str(state["mixed"]),
                      "--out", str(wd / f"{tag}-op{op}-teleport.json")])
        return calls

    def vectors(self, state, tag: str, op: int) -> dict:
        wd = state["workdir"]
        out = {
            f"flow{j}": np.asarray(read_json(wd / f"{tag}-op{op}-flow{j}.json")["phi"])
            for j in range(len(state["flows"]))
        }
        out["teleport"] = np.asarray(read_json(wd / f"{tag}-op{op}-teleport.json")["phi"])
        return out

    def check(self, state, passes) -> list[Gate]:
        gates = []
        for tag, ops in passes.items():
            for op in ops:
                problems = self._problems(state, tag, op)
                for key, msgs in problems.items():
                    gates.append(Gate(f"{tag} op{op.index} {key}", not msgs, "; ".join(msgs)))
        return gates

    def _problems(self, state, tag: str, op) -> dict[str, list[str]]:
        """Gate problems per call of one operation: flow0.., teleport."""
        keys = [f"flow{j}" for j in range(len(state["flows"]))] + ["teleport"]
        failed = {k: [r.problem()] for k, r in zip(keys, op.results) if r.code != 0}
        if failed:
            return {k: failed.get(k, []) for k in keys}
        wd = state["workdir"]
        problems = {}
        for key in keys[:-1]:
            data = read_json(wd / f"{tag}-op{op.index}-{key}.json")
            problems[key] = []
            if not (data["converged"] and data["final_spread"] < self.tol):
                problems[key].append(
                    f"converged={data['converged']} spread={data['final_spread']!r}"
                )
        mesh = state["mixed_mesh"]
        phi = np.asarray(read_json(wd / f"{tag}-op{op.index}-teleport.json")["phi"])
        kh = curvature_h(mesh, phi)
        total = float(mesh.masses @ (np.exp(2 * phi) * kh))
        target = 2 * np.pi * mesh.complex.chi
        problems["teleport"] = []
        if not kh.max() < 0:
            problems["teleport"].append(f"max k_h = {kh.max()!r} >= 0")
        if abs(total - target) > 1e-8 * abs(target):
            problems["teleport"].append(f"sum m e^2phi k_h = {total!r} != {target!r}")
        refs = reference.compare(self.name, state["seed"], self.vectors(state, tag, op.index))
        for key, msgs in refs.items():
            problems[key] += msgs
        return problems

    def fingerprints(self, state, passes, call):
        return [], {}


# -- the workload set ----------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in [
        MonteCarlo(
            name="mc-sphere",
            why=(
                "Sphere chi estimator at n~2000, one process: the dense emptiness check "
                "is most of a trial; the case a linear-time check must win."
            ),
            argv=("gauss-bonnet", "--surface", "sphere",
                  "--lambda", repr(2000 / (4 * np.pi))),
            jobs=1,
            trials=10,
            target=2.0,
        ),
        MonteCarlo(
            name="mc-torus",
            why=(
                "Torus defect at n~1000 with 2 workers: 3x3-tiled planar triangulation, "
                "the periodic check and the process pool."
            ),
            argv=("defect", "--surface", "torus", "--rect", "0.25", "0.25",
                  "0.75", "0.75", "--lambda", "1000"),
            jobs=2,
            trials=10,
            target=0.0,
        ),
        Uniformize(
            name="uniformize-g2",
            why=(
                "Uniformizer at F=1536, the roadmap target size: the only user of "
                "angles, hyperbolic and uniformize; dense class Hessian, memory-heavy."
            ),
            subdivisions=4,
            amplitude=0.02,
        ),
        Conformal(
            name="conformal-g2",
            why=(
                "Six log-Ricci flows at V=190 (Python- and line-search-bound) and one "
                "teleport at V~3070 (dense lstsq-bound)."
            ),
            flow_meshes=6,
            flow_subdivisions=3,
            class_amplitude=0.05,
            jitter=0.004,
            teleport_subdivisions=5,
        ),
    ]
}
