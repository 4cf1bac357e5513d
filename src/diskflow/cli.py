"""Command-line front end.

Every run echoes a reproducibility header (version, config hash, seed) on
stdout; series go to CSV, structured results to canonical JSON, so repeated
runs with identical flags produce identical bytes.  ``run`` parses with one
parser per process, built on the first call and reused by every later one.
Exit codes: 0 success, 1 I/O or parse failure, 2 domain error (infeasible
class, factor outside the curvature domain, bad parameters), 3 convergence
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .complexes import TopologicalTriangulation
from .errors import (
    BadParameter,
    DiskflowError,
    DuplicateSide,
    NoConvergence,
    SelfGluedSide,
    UnmatchedSide,
)
from .estimators import (
    CapRegion,
    RectRegion,
    chi_estimator,
    chi_quadrature,
    expected_faces_quadrature,
    face_defect_in_region,
)
from .serialization import (
    angle_system_to_dict,
    class_spec_from_dict,
    counts_csv,
    dumps_canonical,
    fmt_float,
    mesh_from_dict,
    read_json,
    structure_from_dict,
    structure_to_dict,
    trace_csv,
    trials_csv,
    write_json,
)
from .smoothflow import curvature_h, log_ricci_flow, teleport
from .surfaces import SurfaceModel
from .uniformize import pattern_report, uniformize

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3

# the largest mean numpy's Poisson sampler accepts (``Generator.poisson``)
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def _echo_header(args: argparse.Namespace) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(dumps_canonical(config).encode()).hexdigest()[:16]
    seed = config.get("seed", "-")
    print(f"# diskflow {__version__}")
    print(f"# config {digest}")
    print(f"# seed {seed}")


def _surface_from_args(args) -> SurfaceModel:
    if args.surface == "sphere":
        return SurfaceModel.sphere()
    return SurfaceModel.torus(args.torus_width, args.torus_height)


def _check_positive(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise BadParameter(f"{flag} must be finite and positive, got {value!r}")


def _check_solver_flags(args) -> None:
    """The flags ``uniformize`` and ``flow`` share."""
    _check_positive("--tol", args.tol)
    if args.max_iter < 0:
        raise BadParameter(f"--max-iter must be at least 0, got {args.max_iter}")


def _check_trial_flags(args) -> None:
    """The flags every Monte Carlo subcommand shares."""
    _check_positive("--lambda", args.intensity)
    if args.surface == "torus":
        _check_positive("--torus-width", args.torus_width)
        _check_positive("--torus-height", args.torus_height)
    area = _surface_from_args(args).area
    if args.intensity * area > POISSON_LAM_MAX:
        raise BadParameter(
            f"--lambda times the surface area must be at most {POISSON_LAM_MAX!r}, "
            f"got {args.intensity!r} * {area!r}"
        )
    for flag, value in (("--trials", args.trials), ("--jobs", args.jobs)):
        if value < 1:
            raise BadParameter(f"{flag} must be at least 1, got {value}")


# -- subcommands -------------------------------------------------------------------


def _cmd_validate(args) -> int:
    T = TopologicalTriangulation.from_dict(read_json(args.complex))
    print(f"F={T.face_count} E={T.edge_count} V={T.vertex_count} chi={T.chi}")
    return EXIT_OK


def _cmd_pattern(args) -> int:
    st = structure_from_dict(read_json(args.structure))
    rep = pattern_report(st)
    print(
        f"faces={st.face_angles.shape[0]} edges={st.edge_lengths.size} "
        f"area={fmt_float(rep.total_area)} target={fmt_float(rep.area_target)} "
        f"area_error={fmt_float(rep.area_error)}"
    )
    print(
        f"intersection_angles in [{fmt_float(rep.angle_range[0])}, "
        f"{fmt_float(rep.angle_range[1])}] ok={rep.ok}"
    )
    if args.out:
        write_json(
            args.out,
            {
                "ok": rep.ok,
                "total_area": rep.total_area,
                "area_target": rep.area_target,
                "area_error": rep.area_error,
                "intersection_angles": rep.intersection_angles,
                "circumradii": rep.circumradii,
            },
        )
    return EXIT_OK if rep.ok else EXIT_DOMAIN


def _cmd_uniformize(args) -> int:
    _check_solver_flags(args)
    spec = class_spec_from_dict(read_json(args.spec))
    failure = None
    try:
        y, st, trace = uniformize(spec, tol=args.tol, max_iter=args.max_iter)
    except NoConvergence as exc:
        trace, failure = exc.trace, exc
    if args.trace:
        Path(args.trace).write_text(trace_csv(trace), encoding="utf-8")
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if args.out:
        write_json(args.out, structure_to_dict(st))
    if args.angles_out:
        write_json(args.angles_out, angle_system_to_dict(y))
    rep = pattern_report(st)
    print(
        f"converged in {len(trace)} iterations; grad_inf={fmt_float(trace[-1].grad_inf)} "
        f"area_error={fmt_float(rep.area_error)}"
    )
    return EXIT_OK


def _cmd_gauss_bonnet(args) -> int:
    _check_trial_flags(args)
    surface = _surface_from_args(args)
    est = chi_estimator(surface, args.intensity, args.trials, args.seed, jobs=args.jobs)
    if args.out:
        Path(args.out).write_text(trials_csv(est.records), encoding="utf-8")
    print(
        f"mean={fmt_float(est.mean)} std_error={fmt_float(est.std_error)} "
        f"trials={args.trials} resampled={est.resampled}"
    )
    return EXIT_OK


def _cmd_quadrature(args) -> int:
    _check_positive("--lambda", args.intensity)
    surface = SurfaceModel.sphere()
    # the expected face count approaches 2 area lambda, which must be a float
    if not np.isfinite(2.0 * surface.area * args.intensity):
        raise BadParameter(
            f"--lambda times twice the sphere's area must be finite, got {args.intensity!r}"
        )
    ef = expected_faces_quadrature(surface, args.intensity, args.delta)
    estimate = chi_quadrature(surface, args.intensity, args.delta)
    print(f"expected_faces={fmt_float(ef)} estimator={fmt_float(estimate)}")
    if args.out:
        write_json(args.out, {"expected_faces": ef, "estimator": estimate})
    return EXIT_OK


def _cmd_defect(args) -> int:
    _check_trial_flags(args)
    surface = _surface_from_args(args)
    if args.cap_area is not None:
        if surface.kind != "sphere":
            raise BadParameter("--cap-area applies to the sphere")
        if not 0 < args.cap_area <= surface.area:
            raise BadParameter(f"--cap-area must lie in (0, 4 pi], got {args.cap_area!r}")
        region = CapRegion(args.cap_area)
        target = args.cap_area / np.pi
    elif args.rect is not None:
        if surface.kind != "torus":
            raise BadParameter("--rect applies to the torus")
        x0, y0, x1, y1 = args.rect
        if not (0 <= x0 < x1 <= surface.width and 0 <= y0 < y1 <= surface.height):
            raise BadParameter(
                f"--rect needs 0 <= X0 < X1 <= {surface.width!r} and "
                f"0 <= Y0 < Y1 <= {surface.height!r}, got {args.rect!r}"
            )
        region = RectRegion(*args.rect)
        target = 0.0
    else:
        raise BadParameter("one of --cap-area or --rect is required")
    est = face_defect_in_region(
        surface, args.intensity, args.trials, region, args.seed, jobs=args.jobs
    )
    if args.out:
        Path(args.out).write_text(counts_csv(est.counts), encoding="utf-8")
    print(
        f"estimate={fmt_float(est.estimate)} std_error={fmt_float(est.std_error)} "
        f"target={fmt_float(target)}"
    )
    return EXIT_OK


def _cmd_teleport(args) -> int:
    mesh = mesh_from_dict(read_json(args.mesh))
    phi = teleport(mesh)
    kh = curvature_h(mesh, phi)
    print(
        f"max_k_h={fmt_float(kh.max())} "
        f"target_mean={fmt_float(2 * np.pi * mesh.complex.chi / mesh.area)}"
    )
    if args.out:
        write_json(args.out, {"phi": phi})
    return EXIT_OK


def _cmd_flow(args) -> int:
    _check_solver_flags(args)
    mesh = mesh_from_dict(read_json(args.mesh))
    phi0 = read_json(args.phi0)["phi"] if args.phi0 else None
    failure = None
    try:
        phi, report = log_ricci_flow(mesh, phi0, tol=args.tol, max_iter=args.max_iter)
    except NoConvergence as exc:
        phi, report, failure = exc.best, exc.trace, exc
    if args.out:
        write_json(
            args.out,
            {
                "converged": report.converged,
                "iterations": report.iterations,
                "final_spread": report.final_spread,
                "final_curvature_mean": report.final_curvature_mean,
                "final_objective": report.final_objective,
                "phi": phi,
                "objective": [s.objective for s in report.steps],
                "grad_inf": [s.grad_inf for s in report.steps],
            },
        )
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(
        f"converged in {report.iterations} iterations; "
        f"spread={fmt_float(report.final_spread)} "
        f"k_h={fmt_float(report.final_curvature_mean)}"
    )
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use.

    ``set_defaults(func=...)`` binds each subcommand's handler when the parser
    is built.  Parsing reads the parser and never changes it, so ``run``
    shares one parser across calls.
    """
    p = argparse.ArgumentParser(
        prog="diskflow",
        description="Disk patterns, uniform hyperbolic structures, random "
        "Delaunay estimators, and conformal curvature flow.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a complex file and print its counts")
    v.add_argument("complex")
    v.set_defaults(func=_cmd_validate)

    pt = sub.add_parser("pattern", help="report the disk pattern of a structure file")
    pt.add_argument("structure")
    pt.add_argument("--out", default=None, help="write the report as JSON")
    pt.set_defaults(func=_cmd_pattern)

    u = sub.add_parser("uniformize", help="maximize prism volume over a class")
    u.add_argument("spec", help="conformal class JSON")
    u.add_argument("--tol", type=float, default=1e-10)
    u.add_argument("--max-iter", type=int, default=200)
    u.add_argument("--out", default=None, help="structure JSON output")
    u.add_argument("--trace", default=None, help="iteration trace CSV")
    u.add_argument("--angles-out", default=None, help="maximizing angle system JSON")
    u.set_defaults(func=_cmd_uniformize)

    def add_trial_flags(sp):
        """The flags every Monte Carlo subcommand shares."""
        sp.add_argument("--surface", choices=["sphere", "torus"], default="sphere")
        sp.add_argument("--torus-width", type=float, default=1.0)
        sp.add_argument("--torus-height", type=float, default=1.0)
        sp.add_argument("--lambda", dest="intensity", type=float, required=True)
        sp.add_argument("--trials", type=int, required=True)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--jobs", type=int, default=1)

    g = sub.add_parser("gauss-bonnet", help="Monte Carlo Euler characteristic")
    add_trial_flags(g)
    g.add_argument("--out", default=None, help="per-trial CSV output")
    g.set_defaults(func=_cmd_gauss_bonnet)

    q = sub.add_parser("quadrature", help="expected face count by quadrature")
    q.add_argument("--lambda", dest="intensity", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_quadrature)

    d = sub.add_parser("defect", help="curvature defect of a region")
    add_trial_flags(d)
    d.add_argument("--cap-area", type=float, default=None)
    d.add_argument("--rect", type=float, nargs=4, default=None,
                   metavar=("X0", "Y0", "X1", "Y1"))
    d.add_argument("--out", default=None, help="per-trial counts CSV")
    d.set_defaults(func=_cmd_defect)

    t = sub.add_parser("teleport", help="negative-curvature conformal factor")
    t.add_argument("mesh")
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_teleport)

    f = sub.add_parser("flow", help="run the curvature flow to constancy")
    f.add_argument("mesh")
    f.add_argument("--phi0", default=None, help="JSON file with a phi field")
    f.add_argument("--tol", type=float, default=1e-6)
    f.add_argument("--max-iter", type=int, default=5000)
    f.add_argument("--out", default=None, help="flow report JSON")
    f.set_defaults(func=_cmd_flow)

    return p


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_IO if exc.code not in (0, None) else EXIT_OK
    _echo_header(args)
    try:
        return args.func(args)
    # a structurally invalid input file is a parse failure, as unreadable JSON is
    except (UnmatchedSide, SelfGluedSide, DuplicateSide,
            OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DiskflowError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
