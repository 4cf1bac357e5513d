"""Partial-angle coordinates on a triangulation.

A point assigns one partial angle per (face, side) flag.  The corner angle
opposite side ``i`` of a face is the sum of the other two partials, so corner
angles are linear in the coordinates; the per-edge sum of the two incident
partials is the quantity preserved by a conformal change, so a member of a
class is fixed by the partials on the edges' lower flags (``_member``).  All
predicates here are report-style: they return the margins rather than raising.

The admissible classes are the paper's: every psi_e lies in (0, pi), so the
disks meet at angles pi - psi_e, and the psi_e around each vertex add up to
2 pi, which is then every member's angle sum there.  ``find_negative_delaunay``
refuses any other class (``refuse_inadmissible``).  On an admissible one the
margin-maximizing linear program over the lower-flag partials gives every
feasibility verdict, and its point is a member whose interior margin (the
least corner angle or face defect) is at least ``MARGIN_FLOOR``; it is built
from those partials, so it is a member with no repair step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .complexes import TopologicalTriangulation
from .errors import Infeasible, finite_vector
from .reports import Report

CHECK_TOL = 1e-9     # absolute tolerance for linear constraint checks
MARGIN_FLOOR = 1e-6  # minimum interior margin accepted as feasible
IPM_TOL = 1e-10      # HiGHS interior-point optimality tolerance of the margin LP


@dataclass(frozen=True)
class AngleSystem:
    """A partial-angle vector over the flags of a triangulation."""

    complex: TopologicalTriangulation
    psi: np.ndarray

    def __post_init__(self):
        psi = finite_vector(self.psi, 3 * self.complex.face_count, "flag")
        object.__setattr__(self, "psi", psi)

    def face_partials(self, t: int) -> np.ndarray:
        return self.psi[3 * t : 3 * t + 3]


@dataclass(frozen=True)
class ConformalClassSpec:
    """Per-edge target intersection data defining a conformal class."""

    complex: TopologicalTriangulation
    psi_edge: np.ndarray

    def __post_init__(self):
        pe = finite_vector(self.psi_edge, self.complex.edge_count, "edge")
        object.__setattr__(self, "psi_edge", pe)


# -- the linear angle algebra ----------------------------------------------------


def all_corner_angles(x: AngleSystem) -> np.ndarray:
    """(F, 3) array of corner angles, corner i opposite side i."""
    p = x.psi.reshape(-1, 3)
    return p.sum(axis=1, keepdims=True) - p


def partials_from_angles(
    T: TopologicalTriangulation, angles: np.ndarray
) -> AngleSystem:
    """Invert the corner-angle map: side i gets half of (A_j + A_k - A_i)."""
    a = np.asarray(angles, dtype=float).reshape(T.face_count, 3)
    psi = (a.sum(axis=1, keepdims=True) - 2 * a) / 2.0
    return AngleSystem(T, psi.reshape(-1))


def edge_psi(x: AngleSystem) -> np.ndarray:
    """All per-edge intersection data as a vector in canonical edge order."""
    lo, hi = x.complex.edges.T
    return x.psi[lo] + x.psi[hi]


def interior_margin(x: AngleSystem) -> float:
    """The least corner angle or face defect pi - (angle sum) of ``x``."""
    A = all_corner_angles(x)
    return float(min(A.min(), (np.pi - A.sum(axis=1)).min()))


# -- predicates -------------------------------------------------------------------


def _psi_edge_of(obj) -> tuple[TopologicalTriangulation, np.ndarray]:
    if isinstance(obj, AngleSystem):
        return obj.complex, edge_psi(obj)
    if isinstance(obj, ConformalClassSpec):
        return obj.complex, obj.psi_edge
    raise TypeError(f"expected AngleSystem or ConformalClassSpec, got {type(obj)}")


@dataclass(frozen=True)
class DelaunayReport(Report):
    violations: list[tuple[int, float]]  # (edge, value)
    min_margin: float


def is_delaunay(x: AngleSystem | ConformalClassSpec) -> DelaunayReport:
    """Check every psi_e of a system or class lies in (0, pi), ``CHECK_TOL`` clear of both ends."""
    _, pe = _psi_edge_of(x)
    inside = (CHECK_TOL < pe) & (pe < np.pi - CHECK_TOL)
    bad = [(e, float(pe[e])) for e in np.flatnonzero(~inside).tolist()]
    margin = float(np.min(np.minimum(pe, np.pi - pe))) if pe.size else np.inf
    return DelaunayReport(not bad, bad, margin)


# -- conformal classes -------------------------------------------------------------


def conformal_class_of(x: AngleSystem) -> ConformalClassSpec:
    return ConformalClassSpec(x.complex, edge_psi(x))


def _member(spec: ConformalClassSpec, lower: np.ndarray) -> AngleSystem:
    """The member of the class with ``lower`` on the edges' lower flags and
    ``psi_e`` minus it on their upper flags."""
    T = spec.complex
    p = np.empty(3 * T.face_count)
    p[T.edges[:, 0]] = lower
    p[T.edges[:, 1]] = spec.psi_edge - lower
    return AngleSystem(T, p)


# -- teleportability ---------------------------------------------------------------


def refuse_inadmissible(spec: ConformalClassSpec) -> None:
    """Raise ``Infeasible`` (margin None) on a class outside the paper's domain.

    That is the empty complex, whose area -2 pi chi is 0, an edge whose psi_e
    is not ``CHECK_TOL`` inside (0, pi), or a vertex whose psi_e sum, the
    angle sum there of every member, is not within ``CHECK_TOL`` of 2 pi.
    The first bad edge or vertex is named with its value.
    """
    T, pe = spec.complex, spec.psi_edge
    if T.face_count == 0:
        raise Infeasible("the empty complex has area 0, so no member is hyperbolic")
    bad = is_delaunay(spec).violations
    if bad:
        e, value = bad[0]
        raise Infeasible(f"edge {e} has psi_e {value}, not inside (0, pi)")
    ends = T.edge_endpoints.reshape(-1)  # a loop edge counts at both of its ends
    sums = np.bincount(ends, np.repeat(pe, 2), minlength=T.vertex_count)
    bad = np.flatnonzero(np.abs(sums - 2 * np.pi) > CHECK_TOL)
    if bad.size:
        v = int(bad[0])
        raise Infeasible(f"vertex {v} has psi_e sum {float(sums[v])}, not 2 pi")


def find_negative_delaunay(spec: ConformalClassSpec) -> AngleSystem:
    """Produce a strictly interior negatively curved Delaunay representative.

    Its margin eps is at least ``MARGIN_FLOOR`` in the linear program over
    the lower-flag partials x of ``_member``, one per edge:

        max eps  s.t.  corner angles >= eps,
                       face angle sums <= pi - eps.

    Corner angles below pi are implied, and vertex sums of 2 pi checked:
    ``refuse_inadmissible`` refuses a class outside the paper's domain before
    the LP, with margin None.  The face defects of every member sum to
    pi F - 2 sum(psi_e), so eps is at most their mean U.  The LP is solved
    for its largest eps by HiGHS's interior-point method (``"highs-ipm"``)
    at optimality tolerance ``IPM_TOL`` and without crossover, so the
    returned point is the method's interior solution, centred in the optimal
    face rather than at one of its vertices.  The LP has no equality rows,
    so its solution is a member of the class whatever the solver's primal
    tolerance.  The uniformizer's class ascent starts from it when the
    circle-pattern dual declines.  Raises ``Infeasible`` with the LP's
    certificate margin when the maximum is below ``MARGIN_FLOOR``.
    """
    refuse_inadmissible(spec)
    # imported here: scipy.optimize is slow to load and only the uniformizer needs it
    from scipy import sparse
    from scipy.optimize import OptimizeWarning, linprog

    T = spec.complex
    F, E = T.face_count, T.edge_count

    # inequality rows in `A_ub z <= b_ub` form, z = (x, eps); per face
    # eps - angle_c <= 0 for corners c = 0, 1, 2 (angle c is the sum of the
    # other two partials), then eps + angle sum <= pi.  The partials are
    # _member(spec, 0) plus T.signed_incidence @ x
    rows = np.array([[0, -1, -1], [-1, 0, -1], [-1, -1, 0], [2, 2, 2]], dtype=float)
    face_rows = sparse.kron(sparse.eye_array(F), rows)
    moves = face_rows @ T.signed_incidence
    A_ub = sparse.hstack([moves, sparse.csr_array(np.ones((4 * F, 1)))])
    b_ub = np.tile([0.0, 0.0, 0.0, np.pi], F) - face_rows @ _member(spec, np.zeros(E)).psi

    c = np.zeros(E + 1)
    c[E] = -1.0  # maximize eps
    with warnings.catch_warnings():
        # scipy does not list run_crossover among the highs-ipm options, warns
        # that it is unrecognized, and passes it to HiGHS unchanged
        warnings.simplefilter("ignore", OptimizeWarning)
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * E + [(None, np.pi)],
            method="highs-ipm",
            options={"run_crossover": "off", "ipm_optimality_tolerance": IPM_TOL},
        )
    if not res.success:
        raise Infeasible(f"margin LP failed: {res.message}", margin=None)
    eps = float(res.x[E])
    if eps < MARGIN_FLOOR:
        raise Infeasible(
            f"no interior representative: maximal margin {eps:.3e} "
            f"below floor {MARGIN_FLOOR:.0e}",
            margin=eps,
        )
    return _member(spec, res.x[:E])
