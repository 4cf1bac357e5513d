"""Partial-angle coordinates on a triangulation.

A point assigns one partial angle per (face, side) flag.  The corner angle
opposite side ``i`` of a face is the sum of the other two partials, so corner
angles are linear in the coordinates; the per-edge sum of the two incident
partials is the quantity preserved by a conformal change, so a member of a
class is fixed by the partials on the edges' lower flags (``_member``).  All
predicates here are report-style: they return the margins rather than raising.

``find_negative_delaunay`` returns a member of a class with the largest
interior margin (the least corner angle or face defect).  The defects of
every member add up to the same total, so their mean U bounds that margin;
the member whose faces all have the same area, found by one sparse solve on
the dual graph, reaches the bound whenever its corners are at least U, and
is then returned as is.  Otherwise, and for every infeasibility verdict, the
margin-maximizing linear program over those lower-flag partials decides.  Both
points are built from them, so each is a member with no repair step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .ascent import grounded_solve
from .complexes import TopologicalTriangulation
from .errors import Infeasible, TooLarge, finite_vector
from .reports import Report

CHECK_TOL = 1e-9     # absolute tolerance for linear constraint checks
MARGIN_FLOOR = 1e-6  # minimum interior margin accepted as feasible
IPM_TOL = 1e-10      # HiGHS interior-point optimality tolerance of the margin LP
START_TOL = 1e-12    # how far the equal-area start's margin may fall below its bound


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


def vertex_angle_sums(x: AngleSystem) -> np.ndarray:
    """Sum of corner angles around each vertex."""
    T = x.complex
    return np.bincount(
        T.vertex_of_corner, all_corner_angles(x).reshape(-1), minlength=T.vertex_count
    )


# -- predicates -------------------------------------------------------------------


@dataclass(frozen=True)
class AngleSystemReport(Report):
    corner_violations: list[tuple[int, int, float]]  # (face, corner, angle)
    vertex_violations: list[tuple[int, float]]       # (vertex, sum - 2pi)


def is_angle_system(x: AngleSystem, tol: float = CHECK_TOL) -> AngleSystemReport:
    """Check corner angles in (0, pi) and vertex sums equal to 2 pi."""
    A = all_corner_angles(x)
    corners = [
        (t, c, float(A[t, c]))
        for t in range(x.complex.face_count)
        for c in range(3)
        if not (tol < A[t, c] < np.pi - tol)
    ]
    sums = vertex_angle_sums(x)
    verts = [
        (v, float(sums[v] - 2 * np.pi))
        for v in range(x.complex.vertex_count)
        if abs(sums[v] - 2 * np.pi) > tol
    ]
    return AngleSystemReport(not corners and not verts, corners, verts)


@dataclass(frozen=True)
class DelaunayReport(Report):
    violations: list[tuple[int, float]]  # (edge, value)
    min_margin: float


def is_delaunay(x: AngleSystem) -> DelaunayReport:
    """Check every per-edge value lies inside (0, pi), ``CHECK_TOL`` clear of both ends."""
    pe = edge_psi(x)
    bad = [
        (e, float(pe[e]))
        for e in range(pe.size)
        if not (CHECK_TOL < pe[e] < np.pi - CHECK_TOL)
    ]
    margin = float(np.min(np.minimum(pe, np.pi - pe))) if pe.size else np.inf
    return DelaunayReport(not bad, bad, margin)


def face_curvatures(x: AngleSystem) -> np.ndarray:
    return all_corner_angles(x).sum(axis=1) - np.pi


@dataclass(frozen=True)
class CurvatureReport(Report):
    violations: list[tuple[int, float]]  # (face, curvature)
    max_curvature: float


def is_negatively_curved(x: AngleSystem) -> CurvatureReport:
    """Check every face curvature is below -``CHECK_TOL``."""
    k = face_curvatures(x)
    bad = [(t, float(k[t])) for t in range(k.size) if k[t] > -CHECK_TOL]
    return CurvatureReport(not bad, bad, float(k.max()) if k.size else -np.inf)


# -- conformal classes -------------------------------------------------------------


def conformal_class_of(x: AngleSystem) -> ConformalClassSpec:
    return ConformalClassSpec(x.complex, edge_psi(x))


def class_lift(T: TopologicalTriangulation, d: np.ndarray) -> np.ndarray:
    """Partial-angle move along a conformal class: ``d[e]`` added to the lower
    flag of edge e and subtracted from its mate, which changes no per-edge
    sum and no vertex sum."""
    out = np.empty(3 * T.face_count)
    out[T.edges[:, 0]] = d
    out[T.edges[:, 1]] = -d
    return out


def _member(spec: ConformalClassSpec, lower: np.ndarray) -> AngleSystem:
    """The member of the class with ``lower`` on the edges' lower flags and
    ``psi_e`` minus it on their upper flags."""
    T = spec.complex
    p = np.empty(3 * T.face_count)
    p[T.edges[:, 0]] = lower
    p[T.edges[:, 1]] = spec.psi_edge - lower
    return AngleSystem(T, p)


# -- teleportability ---------------------------------------------------------------


@dataclass(frozen=True)
class TeleportReport(Report):
    violating_set: tuple[int, ...] | None
    lhs: float
    rhs: float
    min_slack: float  # min over face sets of (slack sum - pi |S|); 0 is a tie


def _psi_edge_of(obj) -> tuple[TopologicalTriangulation, np.ndarray]:
    if isinstance(obj, AngleSystem):
        return obj.complex, edge_psi(obj)
    if isinstance(obj, ConformalClassSpec):
        return obj.complex, obj.psi_edge
    raise TypeError(f"expected AngleSystem or ConformalClassSpec, got {type(obj)}")


def is_teleportable_bruteforce(x, max_faces: int = 20) -> TeleportReport:
    """Check the subset inequalities by full enumeration of face sets.

    For every nonempty set S of faces the slack sum over the edges incident
    to S (each counted once) must exceed pi |S|.  Returns the tightest set
    and the minimal slack; a minimal slack within rounding of zero marks a
    boundary tie (on a complex with zero Euler characteristic the full set
    ties exactly), where strict comparison is not meaningful.  Enumeration
    is 2^F, capped at ``max_faces``.
    """
    T, pe = _psi_edge_of(x)
    F = T.face_count
    if F > max_faces:
        raise TooLarge(f"brute force enumeration limited to F <= {max_faces}, got {F}")
    face_mask = np.zeros(F, dtype=np.int64)
    for t in range(F):
        m = 0
        for s in range(3):
            m |= 1 << int(T.edge_of_flag[3 * t + s])
        face_mask[t] = m
    slack = np.pi - pe  # per edge

    subset_mask = np.zeros(1 << F, dtype=np.int64)
    edge_bits = [1 << e for e in range(T.edge_count)]
    slack_of_mask: dict[int, float] = {}
    worst = (np.inf, None, 0.0, 0.0)  # (min slack, set, lhs, rhs)
    for sub in range(1, 1 << F):
        low = (sub & -sub).bit_length() - 1
        m = int(subset_mask[sub ^ (1 << low)] | face_mask[low])
        subset_mask[sub] = m
        total = slack_of_mask.get(m)
        if total is None:
            total = float(sum(slack[e] for e in range(T.edge_count) if m & edge_bits[e]))
            slack_of_mask[m] = total
        rhs = np.pi * bin(sub).count("1")
        if total - rhs < worst[0]:
            faces = tuple(t for t in range(F) if sub & (1 << t))
            worst = (total - rhs, faces, total, rhs)
    ok = worst[0] > 0.0
    return TeleportReport(
        ok, None if ok else worst[1], worst[2], worst[3], worst[0]
    )


def equal_area_start(spec: ConformalClassSpec) -> AngleSystem | None:
    """The member of the class whose faces all have the same area, when it
    certifies itself as a margin-maximizing point; None otherwise.

    Every member's face defects pi - (angle sum) add up to the class
    invariant pi F - 2 sum(psi_e), so no member has a margin above their mean
    U = (pi F - 2 sum(psi_e)) / F.  The point starts from the even split
    psi_e / 2 on both flags of each edge and adds the least-norm class move
    d = B^T y that sets every face's partial sum to (pi - U) / 2, where B is
    the (F, E) signed face-edge incidence (+1 at the face of an edge's lower
    flag, -1 at that of its upper flag): B B^T y = r is the dual graph's
    Laplacian, solved by ``grounded_solve``.  Its defects are then U, and if
    every corner angle is at least U as well, its margin is U up to
    ``START_TOL`` and it is optimal for the margin LP.  None when the complex
    has no face, when U is below ``MARGIN_FLOOR``, when the solve declines,
    or when a corner falls short of U.
    """
    T = spec.complex
    F, E = T.face_count, T.edge_count
    if F == 0:
        return None
    U = (np.pi * F - 2.0 * float(spec.psi_edge.sum())) / F
    if U < MARGIN_FLOOR:
        return None
    # flag f lies in face f // 3 and carries class_lift's sign for its edge
    B = sparse.csr_array(
        (class_lift(T, np.ones(E)), (np.arange(3 * F) // 3, T.edge_of_flag)), shape=(F, E)
    )
    half = spec.psi_edge / 2
    r = 0.5 * (np.pi - U) - _member(spec, half).psi.reshape(-1, 3).sum(axis=1)
    try:
        y = grounded_solve(B @ B.T, r, symmetric=True)
    except np.linalg.LinAlgError:
        return None
    x = _member(spec, half + B.T @ y)
    A = all_corner_angles(x)
    margin = min(A.min(), (np.pi - A.sum(axis=1)).min())
    return x if margin >= U - START_TOL else None


def find_negative_delaunay(spec: ConformalClassSpec) -> AngleSystem:
    """Produce a strictly interior negatively curved Delaunay representative.

    The representative maximizes the margin eps of the linear program over
    the lower-flag partials x of ``_member``, one per edge:

        max eps  s.t.  corner angles >= eps,
                       face angle sums <= pi - eps.

    Corner angles below pi and vertex sums of 2 pi are implied.  The face
    defects of every member sum to pi F - 2 sum(psi_e), so eps is at most
    their mean U.  The ``equal_area_start``, one sparse solve, is tried
    first: when its margin reaches U it is optimal, and it is returned.
    Otherwise the LP is solved by HiGHS's interior-point method
    (``"highs-ipm"``) at optimality tolerance ``IPM_TOL`` and without
    crossover, so the returned point is the method's interior solution,
    centred in the optimal face rather than at one of its vertices.  The LP
    has no equality rows, so its solution is a member of the class whatever
    the solver's primal tolerance.  Either point is the Newton start of the
    uniformizer.  Raises ``Infeasible`` with the LP's certificate margin
    when the maximum is below ``MARGIN_FLOOR``; that verdict always
    comes from the LP, except on the empty complex, whose hyperbolic area
    -2 pi chi is 0 and which is refused before either start.
    """
    if spec.complex.face_count == 0:
        raise Infeasible("the empty complex has area 0, so no member is hyperbolic")
    start = equal_area_start(spec)
    return start if start is not None else _margin_lp(spec)


def _margin_lp(spec: ConformalClassSpec) -> AngleSystem:
    """The interior-point solution of ``find_negative_delaunay``'s margin LP."""
    # imported here: scipy.optimize is slow to load and only the uniformizer needs it
    from scipy.optimize import OptimizeWarning, linprog

    T = spec.complex
    F, E = T.face_count, T.edge_count

    # inequality rows in `A_ub z <= b_ub` form, z = (x, eps); per face
    # eps - angle_c <= 0 for corners c = 0, 1, 2 (angle c is the sum of the
    # other two partials), then eps + angle sum <= pi.  The partials are
    # _member(spec, 0) plus class_lift(T, x), the signed incidence times x
    rows = np.array([[0, -1, -1], [-1, 0, -1], [-1, -1, 0], [2, 2, 2]], dtype=float)
    face_rows = sparse.kron(sparse.eye_array(F), rows)
    moves = sparse.csr_array(
        (class_lift(T, np.ones(E)), (np.arange(3 * F), T.edge_of_flag)), shape=(3 * F, E)
    )
    A_ub = sparse.hstack([face_rows @ moves, sparse.csr_array(np.ones((4 * F, 1)))])
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
