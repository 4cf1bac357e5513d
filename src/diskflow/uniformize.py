"""Concave maximization of the prism-volume objective over a conformal class.

The optimization variable is the per-edge class coordinate: iterates move only
along the class basis, so every per-edge partial-angle sum and every vertex
sum is preserved to floating accumulation.  The ascent is the shared damped
Newton driver of ``ascent`` (a sparse LU solve of the CSC class Hessian,
gradient fallback when it is singular), with the domain being the open
polytope of valid hyperbolic faces, which the objective itself checks;
memory is linear in the face count.  At the maximizer the two faces meeting
along each edge assign it the same hyperbolic length, so the triangles
assemble into an actual hyperbolic surface whose circumscribing disks form
the empty pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import (
    AngleSystem,
    ConformalClassSpec,
    all_corner_angles,
    class_lift,
    edge_psi,
    find_negative_delaunay,
)
from .ascent import TraceRecord, ascend, sparse_solve
from .complexes import TopologicalTriangulation
from .errors import ComplexMismatch, LengthMismatch
from .hyperbolic import (
    class_grad,
    class_hessian_sparse,
    flag_edge_lengths,
    objective_H,
)
from .reports import Report

AREA_TOL = 1e-9  # how far the pattern's area may fall from -2 pi chi


@dataclass(frozen=True)
class HyperbolicStructure:
    """Uniform hyperbolic structure with its empty disk pattern."""

    complex: TopologicalTriangulation
    edge_lengths: np.ndarray          # per edge, the two sides averaged
    face_angles: np.ndarray           # (F, 3), corner i opposite side i
    circumradii: np.ndarray           # per face
    intersection_angles: np.ndarray   # per edge, pi - psi^e
    psi_edge: np.ndarray              # per edge partial-angle sums

    @property
    def total_area(self) -> float:
        return float((np.pi - self.face_angles.sum(axis=1)).sum())


def _two_sided_lengths(y: AngleSystem) -> tuple[np.ndarray, np.ndarray]:
    """Each side's length per flag, and per edge the gap between its two faces' lengths."""
    lengths = flag_edge_lengths(y)
    lo, hi = y.complex.edges.T
    return lengths, np.abs(lengths[lo] - lengths[hi])


def _newton(y: AngleSystem, g: np.ndarray) -> np.ndarray:
    """Newton direction: the sparse LU solve of the class Hessian against -g.

    The Hessian is negative definite on the class space, so it is factored
    in ``sparse_solve``'s symmetric mode, without pivoting.
    """
    return sparse_solve(class_hessian_sparse(y), -g, symmetric=True)


def uniformize(
    spec: ConformalClassSpec,
    start: AngleSystem | None = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[AngleSystem, HyperbolicStructure, list[TraceRecord]]:
    """Find the uniform angle system in the class of ``spec``.

    The start point defaults to the margin-maximizing representative of
    ``find_negative_delaunay``: the equal-area member when it certifies
    itself, the LP's interior point otherwise (raising ``Infeasible`` when
    the class has no negatively curved Delaunay member).  Returns the
    maximizer, its assembled structure, and the per-iteration trace, whose
    residual is the worst two-sided length mismatch.  ``tol`` is the target
    for the sup norm of the gradient, and ``max_iter`` caps the accepted
    steps; the last iterate is tested too.  ``NoConvergence`` carries the
    best iterate and trace when the line search stalls or ``max_iter``
    steps do not reach ``tol``.
    """
    T = spec.complex
    if start is None:
        x = find_negative_delaunay(spec)
    else:
        if start.complex != T:
            raise ComplexMismatch("start point lives on a different complex")
        if np.max(np.abs(edge_psi(start) - spec.psi_edge)) > 1e-9:
            raise ValueError("start point does not lie in the requested class")
        x = start

    y, trace = ascend(
        x,
        objective=objective_H,
        gradient=class_grad,
        residual=lambda y: float(np.max(_two_sided_lengths(y)[1])),
        converged=lambda ginf, _: ginf < tol,
        newton_dir=_newton,
        fallback_dir=lambda _, g: g,
        move=lambda y, step, d: AngleSystem(T, y.psi + step * class_lift(T, d)),
        max_iter=max_iter,
    )
    return y, assemble_structure(y, tol=10 * tol), trace


def assemble_structure(y: AngleSystem, tol: float = 1e-7) -> HyperbolicStructure:
    """Fuse the per-face triangles of a (near-)uniform system into a surface.

    The two lengths computed for each edge must agree within ``tol`` (worst
    edge reported otherwise); the circumradius of each face is recovered from
    tanh(l/2) = tanh(R) cos(psi) on all three sides, which must also agree.
    The partial angle may be negative (circumcenter beyond the edge); the
    relation holds with the signed value since only its cosine enters.
    """
    T = y.complex
    lengths, mismatch = _two_sided_lengths(y)
    lo, hi = T.edges.T
    worst = int(np.argmax(mismatch))
    if mismatch[worst] > tol:
        raise LengthMismatch(
            f"edge {worst} (flags ({lo[worst]}, {hi[worst]})) length mismatch "
            f"{mismatch[worst]:.3e} > {tol:.1e}"
        )
    edge_lengths = 0.5 * (lengths[lo] + lengths[hi])

    # circumradius per face; all three sides must give the same value
    A = all_corner_angles(y)
    s = A.sum(axis=1, keepdims=True) / 2.0
    psi = s - A
    half = np.tanh(lengths.reshape(-1, 3) / 2.0)
    ratio = half / np.cos(psi)
    if np.any(ratio >= 1.0):
        t = int(np.argmax(np.any(ratio >= 1.0, axis=1)))
        raise LengthMismatch(
            f"face {t} admits no circumscribing disk (tanh(l/2) >= cos(psi))"
        )
    radii = np.arctanh(ratio)
    spread = radii.max(axis=1) - radii.min(axis=1)
    worst_t = int(np.argmax(spread))
    if spread[worst_t] > tol:
        raise LengthMismatch(
            f"face {worst_t} circumradius inconsistent across sides "
            f"(spread {spread[worst_t]:.3e} > {tol:.1e})"
        )

    pe = edge_psi(y)
    return HyperbolicStructure(
        complex=T,
        edge_lengths=edge_lengths,
        face_angles=A,
        circumradii=radii.mean(axis=1),
        intersection_angles=np.pi - pe,
        psi_edge=pe,
    )


@dataclass(frozen=True)
class PatternReport(Report):
    total_area: float
    area_target: float
    area_error: float
    intersection_angles: np.ndarray
    circumradii: np.ndarray
    angle_range: tuple[float, float]


def pattern_report(structure: HyperbolicStructure) -> PatternReport:
    """Summarize the empty disk pattern and check its area identity.

    The total area (sum of face angle defects) must equal -2 pi chi within
    ``AREA_TOL``, and every disk intersection angle must lie strictly inside
    (0, pi).
    """
    area = structure.total_area
    target = -2.0 * np.pi * structure.complex.chi
    angles = structure.intersection_angles
    lo, hi = float(angles.min()), float(angles.max())
    ok = abs(area - target) < AREA_TOL and lo > 0.0 and hi < np.pi
    return PatternReport(
        ok=ok,
        total_area=area,
        area_target=target,
        area_error=abs(area - target),
        intersection_angles=angles,
        circumradii=structure.circumradii,
        angle_range=(lo, hi),
    )
