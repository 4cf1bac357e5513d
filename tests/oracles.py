"""Independent numerical oracles.

The prism-volume oracle never touches the closed form or the one-form: it
places the hyperbolic triangle in the upper half space, collects the six
ideal endpoints of the perpendicular geodesics through its vertices, and sums
ideal-tetrahedron volumes over a fan of the convex hull.  Agreement with the
production routes is therefore a genuine cross-check of the geometry.

``lobachevsky_series60`` sums the Lobachevsky series to 60 terms from a
power array, the reference for the 30-term Horner evaluation, and
``triangle_angle_integral_dblquad`` integrates the inscribed-triangle area by
``dblquad``, the reference for the closed-form quadrature constant.
``expected_faces_quad`` integrates the radial face-creation density by
``quad``, the reference for the closed-form expected face count, and
``prism_volume_path`` integrates the prism volume's exact one-form along
straight segments, the reference for its closed form.

The dense oracles rebuild the solvers' sparse operators and solves the
direct way (the dense class basis and its products, a finite-difference
class Hessian, least-squares solves of the singular systems), so the index-array assembly and the sparse
LU are checked against their definitions.  ``circle_pattern_residual``
evaluates the circle-pattern equations in the circumradii themselves, flag
by flag, and ``circle_pattern_jacobian_fd`` differences it, the references
for the uniformizer's dual residual and its Jacobian.  ``hessian_matrix`` assembles the
flow's second variation, whose least-squares solve is the reference for the
flow's Newton direction from its 1-ring system.  ``margin_lp_simplex``
writes the margin LP out row by row over all 3F partials, with one equality
row per edge, and solves it with HiGHS's default method, the reference for
the interior-point margin over the lower-flag partials.
``equal_area_member`` is the member whose faces all have the same area, by
a dense least-squares solve: where it is not interior, only the margin LP
finds a start.  ``dual_member_lu_each_step`` runs the circle-pattern dual
with a fresh LU at every Newton step, the reference for the dual's inexact
directions on one frozen factor.  ``class_ascent`` maximizes the prism
volume over the class by Newton on the class Hessian from a given member,
the reference for the dual's root and for the uniqueness of the maximizer.
``is_teleportable_bruteforce`` enumerates all 2^F face sets for the subset
criterion, the combinatorial reference for the LP's feasibility verdict.
``derive_union_find`` derives a complex's edges and vertex orbits with a
flag-by-flag union-find, the reference for the index-array derivation,
``gluing_mate_loop`` validates a side pairing pair by pair, and
``subdivide_loop`` builds the midpoint subdivision pair by pair.
``emptiness_flags_dense`` tests every circumdisk against every sample point,
the reference for the local Delaunay check.
``dumps_canonical_recursive`` renders canonical JSON one element at a time,
the reference for the serializer's float-list and int-list fast paths.

The library forms that no program path calls sit in one section: the
angle-system and curvature reports (``is_angle_system``,
``is_negatively_curved``), the global emptiness verdict
``verify_empty_disks``, the one-triangle forms of the hyperbolic solver
(``edge_lengths``, ``angles_from_lengths``, ``prism_volume``,
``prism_gradient``), and the payloads the command line never reads or
writes (``angle_system_from_dict``, ``mesh_to_dict``).

The per-element helpers at the end read one face, edge or vertex at a time
(``corner_angles``, ``face_curvature``, ``informal_intersection_angle``,
``vertex_edge_incidence``, ``angle_system_violations``,
``delaunay_violations``), or state a quantity by its definition
(``euler_characteristic``, ``same_class``, ``hessian_Ig``,
``triangle_angle_integral``, ``inscribed_triangle_mean_area``,
``sample_fixed_count``); the tests hold the vectorized library functions to
them.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import dblquad, quad
from scipy.linalg import block_diag
from scipy.optimize import linprog
from scipy.spatial import ConvexHull
from scipy.special import zeta

from diskflow.angles import (
    CHECK_TOL,
    MARGIN_FLOOR,
    AngleSystem,
    ConformalClassSpec,
    _psi_edge_of,
    all_corner_angles,
    edge_psi,
    interior_margin,
)
from diskflow.ascent import ascend, sparse_solve
from diskflow.complexes import SubdividedComplex, TopologicalTriangulation, build_complex
from diskflow.delaunay import DelaunayComplex, _emptiness_flags
from diskflow.errors import (
    DiskflowError,
    DuplicateSide,
    NoConvergence,
    OutOfDomain,
    SelfGluedSide,
    TooLarge,
    UnmatchedSide,
)
from diskflow.hyperbolic import (
    _prism_volumes,
    _valid_angles,
    class_grad,
    class_hessian_sparse,
    face_hessian,
    lobachevsky,
    log_half_cosh_minus_one,
    objective_H,
)
from diskflow.reports import Report
from diskflow.smoothflow import MeshMetric, _domain_u, mean_zero
from diskflow.surfaces import (
    PointSample,
    SurfaceModel,
    _draw_points,
    _generator,
    geodesic_distance,
)
from diskflow.uniformize import (
    DUAL_TOL,
    RHO_FLOOR,
    _kite,
    _Pattern,
    _seed_radii,
    _two_sided_lengths,
    assemble_structure,
)


def lobachevsky_quad(theta: float) -> float:
    """Defining integral of the Lobachevsky function by adaptive quadrature."""
    val, _ = quad(
        lambda u: -np.log(np.abs(2.0 * np.sin(u))), 0.0, theta, limit=300
    )
    return val


def lobachevsky_series60(theta) -> np.ndarray:
    """The Lobachevsky power series to 60 terms from an (N, 60) power array,
    the reference for the 30-term Horner evaluation."""
    m = np.arange(1, 61)
    t = np.atleast_1d(np.asarray(theta, dtype=float)).copy()
    t -= np.pi * np.round(t / np.pi)
    sign = np.sign(t)
    t = np.abs(t)
    out = np.zeros_like(t)
    nz = t > 0
    tn = t[nz]
    powers = tn[:, None] ** (2 * m + 1)
    series = (powers * (zeta(2 * m) / (m * (2 * m + 1)))) / (np.pi ** (2 * m))
    out[nz] = tn - tn * np.log(2 * tn) + series.sum(axis=1)
    return out * sign


def _inscribed_triangle_area(t2: float, t3: float) -> float:
    # area of the triangle with vertices at angles (0, t2, t3) on the unit circle
    return 0.5 * abs(np.sin(t2) + np.sin(t3 - t2) - np.sin(t3))


def triangle_angle_integral_dblquad() -> float:
    """Integral of the inscribed-triangle area over all three vertex angles,
    by ``dblquad`` over two of them (the third is a rotation), the reference
    for the closed form 12 pi^2."""
    val, _ = dblquad(
        _inscribed_triangle_area, 0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi,
        epsabs=1e-11, epsrel=1e-11,
    )
    return 2.0 * np.pi * val


def expected_faces_quad(lam: float, delta: float) -> float:
    """Expected face count on the unit sphere by ``quad`` of the radial
    density, the reference for the closed form ``2 n P(2, x) - 4 P(3, x)``.

    With c = 2 pi lambda and t = 1 - cos r the count is (lambda^3 / 6)
    * area * 2 * 12 pi^2 * int_0^T e^(-c t) t (2 - t) dt, T = 2 sin^2(delta/2).
    The integrand's peak is about 1/c wide at t = 0, so the range stops at
    60/c, past which e^(-c t) is below 1e-26: adaptive ``quad`` over the
    whole range can miss the peak.
    """
    c = 2.0 * np.pi * lam
    T = 2.0 * np.sin(delta / 2.0) ** 2
    val, _ = quad(lambda t: np.exp(-c * t) * t * (2.0 - t), 0.0, min(T, 60.0 / c),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return (lam**3 / 6.0) * 4.0 * np.pi * 2.0 * 12.0 * np.pi**2 * val


def _partials(angles: np.ndarray) -> np.ndarray:
    return angles.sum(axis=-1, keepdims=True) / 2.0 - angles


_REF_ANGLES = np.array([np.pi / 6] * 3)
_REF_PARTIALS = _partials(_REF_ANGLES)


def prism_volume_path(
    A: float,
    B: float,
    C: float,
    via: tuple[float, float, float] | None = None,
    epsabs: float = 1e-10,
) -> float:
    """Prism volume by integrating the exact one-form from the anchor triple.

    Integration runs along straight segments in partial-angle coordinates;
    ``via`` inserts an intermediate angle triple, giving a second route for
    path-independence checks.  Segments are subdivided once near the domain
    boundary where the integrand's logarithm steepens.
    """
    end = _valid_angles([A, B, C])
    waypoints = [_REF_PARTIALS]
    if via is not None:
        waypoints.append(_partials(_valid_angles(via)))
    waypoints.append(_partials(end))

    total = 0.0
    for start, stop in zip(waypoints[:-1], waypoints[1:]):
        d = stop - start

        def integrand(t):
            p = start + t * d
            angles = p.sum() - p
            return float(np.dot(log_half_cosh_minus_one(angles), d))

        # defect at the endpoints decides whether to split the segment
        defects = [np.pi - 2 * q.sum() for q in (start, stop)]
        pieces = [(0.0, 1.0)] if min(defects) > 1e-3 else [(0.0, 0.5), (0.5, 1.0)]
        for lo, hi in pieces:
            val, _ = quad(integrand, lo, hi, epsabs=epsabs, epsrel=0.0, limit=200)
            total += val
    return total


def _hyp_lengths(A, B, C):
    angs = np.array([A, B, C])
    cos, sin = np.cos(angs), np.sin(angs)
    return np.array(
        [
            np.arccosh(
                (cos[i] + cos[(i + 1) % 3] * cos[(i + 2) % 3])
                / (sin[(i + 1) % 3] * sin[(i + 2) % 3])
            )
            for i in range(3)
        ]
    )


def _move(p: complex, phi: float, d: float) -> complex:
    """Geodesic step of length d from p in direction phi (upper half plane)."""
    x0, h = p.real, p.imag
    cphi = np.cos(phi)
    if abs(cphi) < 1e-14:
        return complex(x0, h * np.exp(d if np.sin(phi) > 0 else -d))
    c = x0 + h * np.tan(phi)
    R = h / abs(cphi)
    th = np.arctan2(h, x0 - c)
    sgn = -1.0 if cphi > 0 else 1.0
    th_new = 2.0 * np.arctan(np.tan(th / 2.0) * np.exp(sgn * d))
    return complex(c + R * np.cos(th_new), R * np.sin(th_new))


def _place_triangle(A, B, C):
    a, b, c = _hyp_lengths(A, B, C)
    P0 = complex(0.0, 1.0)
    P1 = complex(0.0, np.exp(c))
    P2 = _move(P0, np.pi / 2.0 - A, b)
    return P0, P1, P2


def _ideal_tet_volume(z1, z2, z3, z4) -> float:
    w = ((z4 - z2) * (z3 - z1)) / ((z4 - z1) * (z3 - z2))
    a0 = abs(np.angle(w))
    a1 = abs(np.angle((w - 1.0) / (0.0 - 1.0)))
    a2 = np.pi - a0 - a1
    return float(lobachevsky(a0) + lobachevsky(a1) + lobachevsky(a2))


def _stereo(w: complex) -> np.ndarray:
    d = abs(w) ** 2 + 1.0
    return np.array([2.0 * w.real / d, 2.0 * w.imag / d, (abs(w) ** 2 - 1.0) / d])


def true_prism_volume(A: float, B: float, C: float) -> float:
    """Volume of the ideal prism by hull decomposition into ideal tetrahedra."""
    ideal = []
    for p in _place_triangle(A, B, C):
        ideal.append(complex(p.real, p.imag))
        ideal.append(complex(p.real, -p.imag))
    hull = ConvexHull(np.array([_stereo(w) for w in ideal]))
    vol = 0.0
    for simp in hull.simplices:
        if 0 in simp:
            continue
        vol += abs(_ideal_tet_volume(ideal[0], *(ideal[j] for j in simp)))
    return vol


PRISM_ANCHOR_TRUE_VOLUME = 2.5157576984766887  # pi/6 equilateral prism


def class_basis(T: TopologicalTriangulation) -> np.ndarray:
    """(E, 3F) matrix of tangent directions to a conformal class.

    Row e carries +1 on the lower flag of edge e and -1 on its mate; moving
    along any combination changes no per-edge sum and no vertex sum.
    """
    B = np.zeros((T.edge_count, 3 * T.face_count))
    for e, (a, b) in enumerate(T.edges):
        B[e, a] = 1.0
        B[e, b] = -1.0
    return B


def class_hessian_fd(x: AngleSystem, step: float = 1e-6) -> np.ndarray:
    """Class Hessian by central differences of the class gradient."""
    B = class_basis(x.complex)
    E = x.complex.edge_count
    H = np.empty((E, E))
    for e in range(E):
        plus = AngleSystem(x.complex, x.psi + step * B[e])
        minus = AngleSystem(x.complex, x.psi - step * B[e])
        H[e] = (class_grad(plus) - class_grad(minus)) / (2 * step)
    return 0.5 * (H + H.T)


def class_hessian_dense(x: AngleSystem) -> np.ndarray:
    """Class Hessian as B H B' with the dense class basis B and the
    block-diagonal (3F, 3F) Hessian of the faces."""
    B = class_basis(x.complex)
    return B @ block_diag(*face_hessian(all_corner_angles(x))) @ B.T


def circle_pattern_residual(spec: ConformalClassSpec, rho: np.ndarray) -> np.ndarray:
    """The circle-pattern equations G_f = sum of kite angles - pi, flag by flag.

    R_f = 2 artanh(exp(rho_f)); the kite of flag k of face f, whose mate lies
    in face g, has the angle atan2(sin psi_e, sinh R_f coth R_g
    - cosh R_f cos psi_e) at f's centre.
    """
    T = spec.complex
    R = 2.0 * np.arctanh(np.exp(rho))
    G = np.full(T.face_count, -np.pi)
    for flag in range(3 * T.face_count):
        f, g = flag // 3, int(T.mate[flag]) // 3
        pe = spec.psi_edge[T.edge_of_flag[flag]]
        G[f] += np.arctan2(
            np.sin(pe), np.sinh(R[f]) / np.tanh(R[g]) - np.cosh(R[f]) * np.cos(pe)
        )
    return G


def circle_pattern_jacobian_fd(
    spec: ConformalClassSpec, rho: np.ndarray, step: float = 1e-6
) -> np.ndarray:
    """Jacobian of ``circle_pattern_residual`` in rho by central differences."""
    F = spec.complex.face_count
    J = np.empty((F, F))
    for f in range(F):
        e = np.zeros(F)
        e[f] = step
        plus, minus = circle_pattern_residual(spec, rho + e), circle_pattern_residual(spec, rho - e)
        J[:, f] = (plus - minus) / (2 * step)
    return J


def equal_area_member(spec: ConformalClassSpec) -> AngleSystem:
    """The member of the class whose faces all have the mean defect U, the
    least-norm class move (dense least squares) from the even split psi_e / 2."""
    T = spec.complex
    F = T.face_count
    U = (np.pi * F - 2.0 * spec.psi_edge.sum()) / F
    half = spec.psi_edge[T.edge_of_flag] / 2
    face_moves = class_basis(T).T.reshape(F, 3, -1).sum(axis=1)
    r = 0.5 * (np.pi - U) - half.reshape(-1, 3).sum(axis=1)
    move = np.linalg.lstsq(face_moves, r, rcond=None)[0]
    return AngleSystem(T, half + class_basis(T).T @ move)


def dual_member_lu_each_step(spec: ConformalClassSpec, max_iter: int) -> AngleSystem | None:
    """The circle-pattern dual with one LU per Newton step: every direction
    is the ``sparse_solve`` of J d = -G at its iterate, with the same seed,
    objective, stop and step cap as ``uniformize._dual_member``; None where
    that raises ``NoConvergence``."""
    rho = _seed_radii(spec)
    if rho is None:
        return None
    kite = _kite(spec)

    def objective(p):
        if not np.all((RHO_FLOOR < p.rho) & (p.rho < 0.0)):
            raise OutOfDomain("a face radius left (0, inf)")
        return -0.5 * float(p.G @ p.G)

    def decline(p, g):
        raise np.linalg.LinAlgError("no Newton direction for the circle-pattern equations")

    try:
        p, _ = ascend(
            _Pattern(kite, rho),
            objective=objective,
            gradient=lambda p: -(p.J @ p.G),
            residual=lambda p: p.G_ulps,
            converged=lambda _, r: r < DUAL_TOL,
            newton_dir=lambda p, g: sparse_solve(p.J, -p.G),
            fallback_dir=decline,
            move=lambda p, step, d: _Pattern(kite, p.rho + step * d),
            max_iter=max_iter,
        )
    except (np.linalg.LinAlgError, NoConvergence):
        return None
    y = p.member(spec.complex)
    return y if interior_margin(y) >= MARGIN_FLOOR else None


def class_ascent(spec: ConformalClassSpec, start: AngleSystem, *, tol: float = 1e-10,
                 max_iter: int = 200):
    """The prism volume maximized over the class by damped Newton from
    ``start``, a member of it (Rivin, Ann. of Math. 139 (1994)).

    One coordinate per edge: a step d moves the partials by D d, D the
    ``signed_incidence``; the gradient is ``class_grad`` and the Newton
    direction the ``sparse_solve`` of the class Hessian, negative definite
    on the class, with the gradient as fallback when it is singular.  It
    stops once the class gradient's sup norm is below ``tol``; the trace's
    residual is the worst two-sided length mismatch.  Returns the
    maximizer, its structure (checked at 10 ``tol``) and the trace; raises
    ``NoConvergence`` as ``ascend`` does.  The reference for the
    uniformizer's circle-pattern dual, whose root is the same maximizer.
    """
    T = spec.complex
    y, trace = ascend(
        start,
        objective=objective_H,
        gradient=class_grad,
        residual=lambda y: float(np.max(_two_sided_lengths(y)[1])),
        converged=lambda ginf, _: ginf < tol,
        newton_dir=lambda y, g: sparse_solve(class_hessian_sparse(y), -g),
        fallback_dir=lambda _, g: g,
        move=lambda y, step, d: AngleSystem(T, y.psi + step * (T.signed_incidence @ d)),
        max_iter=max_iter,
    )
    return y, assemble_structure(y, tol=10 * tol), trace


def margin_lp_simplex(spec: ConformalClassSpec) -> float:
    """Maximal interior margin eps of the class, by ``method="highs"``.

    Variables are the 3F partials and eps.  Each edge fixes the sum of its
    two partials; each face asks every corner angle (the sum of the other
    two partials) to be at least eps and its angle sum to be at most
    pi - eps.
    """
    T = spec.complex
    n = 3 * T.face_count
    A_eq = np.zeros((T.edge_count, n + 1))
    for e, (a, b) in enumerate(T.edges):
        A_eq[e, a] = A_eq[e, b] = 1.0
    A_ub = np.zeros((4 * T.face_count, n + 1))
    b_ub = np.zeros(4 * T.face_count)
    for t in range(T.face_count):
        for c in range(3):
            row = A_ub[4 * t + c]
            row[[3 * t + s for s in range(3) if s != c]] = -1.0
            row[n] = 1.0
        A_ub[4 * t + 3, 3 * t : 3 * t + 3] = 2.0
        A_ub[4 * t + 3, n] = 1.0
        b_ub[4 * t + 3] = np.pi
    c = np.zeros(n + 1)
    c[n] = -1.0
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=spec.psi_edge,
        bounds=[(None, None)] * n + [(None, np.pi)], method="highs",
    )
    assert res.success, res.message
    return float(res.x[n])


@dataclass(frozen=True)
class TeleportReport(Report):
    violating_set: tuple[int, ...] | None
    lhs: float
    rhs: float
    min_slack: float  # min over face sets of (slack sum - pi |S|); 0 is a tie


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


def teleport_lstsq(mesh: MeshMetric) -> np.ndarray:
    """Teleported factor by a dense least-squares solve of S phi = M (c - k)."""
    c = 2.0 * np.pi * mesh.complex.chi / mesh.area
    rhs = mesh.masses * (c - mesh.curvature)
    phi, *_ = np.linalg.lstsq(mesh.stiffness.toarray(), rhs, rcond=None)
    return mean_zero(mesh, phi)


def hessian_matrix(mesh: MeshMetric, phi: np.ndarray) -> sparse.csr_array:
    """Sparse second variation -(2 S + S diag(1/(m u)) S), singular on constants."""
    u = _domain_u(mesh, np.asarray(phi, dtype=float))
    S = mesh.stiffness
    return -(2.0 * S + S @ sparse.diags_array(1.0 / (mesh.masses * u)) @ S)


def newton_direction_lstsq(mesh: MeshMetric, phi: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Mean-zero Newton direction by a dense least-squares solve of H d = -G."""
    d, *_ = np.linalg.lstsq(hessian_matrix(mesh, phi).toarray(), -G, rcond=None)
    return mean_zero(mesh, d)


def derive_union_find(face_count: int, mate: np.ndarray) -> dict:
    """Edges, vertex orbits and their incidences of a side gluing, derived
    flag by flag with a union-find whose roots are the smallest corners."""
    n = 3 * face_count
    edges = [(f, int(mate[f])) for f in range(n) if f < mate[f]]
    edge_of_flag = np.empty(n, dtype=np.int64)
    for e, (a, b) in enumerate(edges):
        edge_of_flag[a] = e
        edge_of_flag[b] = e

    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    # side s of face f runs from corner (s+1) % 3 to corner (s+2) % 3, and a
    # gluing identifies the start of one side with the end of the other
    for a, b in edges:
        fa, sa = divmod(a, 3)
        fb, sb = divmod(b, 3)
        union(3 * fa + (sa + 1) % 3, 3 * fb + (sb + 2) % 3)
        union(3 * fa + (sa + 2) % 3, 3 * fb + (sb + 1) % 3)

    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    order = {r: i for i, r in enumerate(sorted(set(roots.tolist())))}
    vertex_of_corner = np.array([order[r] for r in roots], dtype=np.int64)
    corners_of_vertex: list[list[int]] = [[] for _ in range(len(order))]
    for c in range(n):
        corners_of_vertex[vertex_of_corner[c]].append(c)

    edge_endpoints = np.empty((len(edges), 2), dtype=np.int64)
    for e, (a, _) in enumerate(edges):
        fa, sa = divmod(a, 3)
        edge_endpoints[e, 0] = vertex_of_corner[3 * fa + (sa + 1) % 3]
        edge_endpoints[e, 1] = vertex_of_corner[3 * fa + (sa + 2) % 3]

    return {
        "edges": np.array(edges, dtype=np.int64).reshape(-1, 2),
        "edge_count": len(edges),
        "edge_of_flag": edge_of_flag,
        "vertex_of_corner": vertex_of_corner,
        "vertex_count": len(order),
        "corners_of_vertex": corners_of_vertex,
        "edge_endpoints": edge_endpoints,
    }


def emptiness_flags_dense(dc, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, n) masks of the sample points strictly inside each face's
    circumdisk and on its boundary, tested against every point; a face's own
    vertices are neither.  The reference for the local (F, 3) check."""
    surf = dc.sample.surface
    pts = dc.sample.points
    if surf.kind == "sphere":
        dots = dc.centers @ pts.T
        hi = np.cos(np.maximum(dc.radii - tol, 0.0))[:, None]
        lo = np.cos(np.minimum(dc.radii + tol, np.pi))[:, None]
        inside = dots > hi
        on_circle = (dots <= hi) & (dots >= lo)
    else:
        dist = geodesic_distance(surf, dc.centers[:, None, :], pts[None, :, :])
        inside = dist < dc.radii[:, None] - tol
        on_circle = np.abs(dist - dc.radii[:, None]) <= tol
    member = np.zeros_like(inside)
    member[np.repeat(np.arange(dc.face_count), 3), dc.faces.reshape(-1)] = True
    return inside & ~member, on_circle & ~member


def emptiness_decision(inside: np.ndarray, on_circle: np.ndarray) -> str:
    """What the emptiness check does with these flags: reject a point inside
    a circumdisk first, then a cocircular one, else accept."""
    if inside.any():
        return "inside"
    if on_circle.any():
        return "cocircular"
    return "accept"


def gluing_mate_loop(face_count: int, gluing_pairs) -> np.ndarray:
    """Side involution of a gluing, validated pair by pair: the reference for
    ``build_complex``'s error class and the first offending side it names."""
    mate = np.full(3 * face_count, -1, dtype=np.int64)
    for (f1, s1), (f2, s2) in gluing_pairs:
        for f, s in ((f1, s1), (f2, s2)):
            integers = type(f) is int and type(s) is int
            if not (integers and 0 <= f < face_count and 0 <= s < 3):
                raise UnmatchedSide(f"side (face {f}, side {s}) is outside the complex")
        a, b = 3 * f1 + s1, 3 * f2 + s2
        if a == b:
            raise SelfGluedSide(f"side (face {f1}, side {s1}) glued to itself")
        for x, (f, s) in ((a, (f1, s1)), (b, (f2, s2))):
            if mate[x] != -1:
                raise DuplicateSide(f"side (face {f}, side {s}) appears in two pairs")
        mate[a] = b
        mate[b] = a
    missing = np.nonzero(mate < 0)[0]
    if missing.size:
        f, s = divmod(int(missing[0]), 3)
        raise UnmatchedSide(f"side (face {f}, side {s}) is not glued")
    return mate


def subdivide_loop(T: TopologicalTriangulation) -> SubdividedComplex:
    """Midpoint subdivision built side pair by side pair, with a provenance
    dict per flag: the reference for ``subdivide``'s index arrays."""
    pairs = []
    provenance = {}  # lower flag -> (orig edge, medial?)
    for t in range(T.face_count):
        for j in range(3):
            a, b = (4 * t + j, 0), (4 * t + 3, j)
            pairs.append((a, b))
            provenance[3 * a[0] + a[1]] = (int(T.edge_of_flag[3 * t + j]), True)
            provenance[3 * b[0] + b[1]] = (int(T.edge_of_flag[3 * t + j]), True)
    for a_flag, b_flag in T.edges.tolist():
        t, i = divmod(a_flag, 3)
        s, ip = divmod(b_flag, 3)
        e = int(T.edge_of_flag[a_flag])
        first = ((4 * t + (i + 1) % 3, 2), (4 * s + (ip + 2) % 3, 1))
        second = ((4 * t + (i + 2) % 3, 1), (4 * s + (ip + 1) % 3, 2))
        for pa, pb in (first, second):
            pairs.append((pa, pb))
            provenance[3 * pa[0] + pa[1]] = (e, False)
            provenance[3 * pb[0] + pb[1]] = (e, False)

    sub = build_complex(4 * T.face_count, pairs)
    parent = np.empty(sub.edge_count, dtype=np.int64)
    medial = np.zeros(sub.edge_count, dtype=bool)
    for e, lo in enumerate(sub.edges[:, 0].tolist()):
        parent[e], medial[e] = provenance[lo]
    return SubdividedComplex(sub, parent, medial)


def dumps_canonical_recursive(obj) -> str:
    """Canonical JSON rendered by one recursive call per element."""

    def render(o) -> str:
        if isinstance(o, dict):
            items = sorted(o.items())
            inner = ",".join(f"{json.dumps(str(k))}:{render(v)}" for k, v in items)
            return "{" + inner + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = o.tolist() if isinstance(o, np.ndarray) else o
            return "[" + ",".join(render(v) for v in seq) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return format(float(o), ".17g")
        if isinstance(o, str):
            return json.dumps(o)
        raise TypeError(f"cannot serialize {type(o)}")

    return render(obj)


# -- library forms no program path calls -------------------------------------------


def vertex_angle_sums(x: AngleSystem) -> np.ndarray:
    """Sum of corner angles around each vertex."""
    T = x.complex
    return np.bincount(
        T.vertex_of_corner, all_corner_angles(x).reshape(-1), minlength=T.vertex_count
    )


@dataclass(frozen=True)
class AngleSystemReport(Report):
    corner_violations: list[tuple[int, int, float]]  # (face, corner, angle)
    vertex_violations: list[tuple[int, float]]       # (vertex, sum - 2pi)


def is_angle_system(x: AngleSystem, tol: float = CHECK_TOL) -> AngleSystemReport:
    """Check corner angles in (0, pi) and vertex sums equal to 2 pi."""
    A = all_corner_angles(x)
    bad = np.argwhere(~((tol < A) & (A < np.pi - tol))).tolist()
    corners = [(t, c, float(A[t, c])) for t, c in bad]
    gap = vertex_angle_sums(x) - 2 * np.pi
    verts = [(v, float(gap[v])) for v in np.flatnonzero(np.abs(gap) > tol).tolist()]
    return AngleSystemReport(not corners and not verts, corners, verts)


def face_curvatures(x: AngleSystem) -> np.ndarray:
    return all_corner_angles(x).sum(axis=1) - np.pi


@dataclass(frozen=True)
class CurvatureReport(Report):
    violations: list[tuple[int, float]]  # (face, curvature)
    max_curvature: float


def is_negatively_curved(x: AngleSystem) -> CurvatureReport:
    """Check every face curvature is below -``CHECK_TOL``."""
    k = face_curvatures(x)
    bad = [(t, float(k[t])) for t in np.flatnonzero(k > -CHECK_TOL).tolist()]
    return CurvatureReport(not bad, bad, float(k.max()) if k.size else -np.inf)


def verify_empty_disks(dc: DelaunayComplex) -> bool:
    """True when no sample point lies inside any face circumdisk by more
    than ``GENERIC_TOL``.

    Checked locally: no vertex across a side of a face lies that far inside
    that face's circumdisk, which by the Delaunay lemma leaves every
    circumdisk empty.
    """
    inside, _ = _emptiness_flags(dc)
    return not bool(inside.any())


def edge_lengths(A: float, B: float, C: float) -> tuple[float, float, float]:
    """Side lengths (a, b, c) opposite (A, B, C) by the dual law of cosines."""
    angs = _valid_angles([A, B, C])
    cos, sin = np.cos(angs), np.sin(angs)
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(float(np.arccosh((cos[i] + cos[j] * cos[k]) / (sin[j] * sin[k]))))
    return tuple(out)


def angles_from_lengths(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Angles opposite (a, b, c) by the hyperbolic law of cosines."""
    ls = np.array([a, b, c])
    ch, sh = np.cosh(ls), np.sinh(ls)
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(float(np.arccos((ch[j] * ch[k] - ch[i]) / (sh[j] * sh[k]))))
    return tuple(out)


def prism_volume(A: float, B: float, C: float) -> float:
    """Volume of the triangle's ideal perpendicular prism, anchored at pi/6."""
    return float(_prism_volumes(_valid_angles([[A, B, C]]))[0])


def prism_gradient(A: float, B: float, C: float) -> np.ndarray:
    """Derivative of the prism volume in the three partial angles."""
    return log_half_cosh_minus_one(_valid_angles([A, B, C]))


def angle_system_from_dict(data: dict) -> AngleSystem:
    T = TopologicalTriangulation.from_dict(data["complex"])
    return AngleSystem(T, data["psi"])


def mesh_to_dict(mesh: MeshMetric) -> dict:
    return {"complex": mesh.complex.to_dict(), "lengths": mesh.lengths}


# -- per-element forms and definitions --------------------------------------------


CLASS_TOL = 1e-12  # tolerance for class equality


def corner_angles(x: AngleSystem, t: int) -> tuple[float, float, float]:
    """Corner angles of face t; entry i sits opposite side i."""
    p = x.face_partials(t)
    return (p[1] + p[2], p[0] + p[2], p[0] + p[1])


def face_curvature(x: AngleSystem, t: int) -> float:
    """Angle sum of face t minus pi."""
    return float(sum(corner_angles(x, t)) - np.pi)


def informal_intersection_angle(x: AngleSystem, e: int) -> float:
    """Sum of the two partials across edge e."""
    a, b = x.complex.edges[e]
    return float(x.psi[a] + x.psi[b])


def angle_system_violations(x: AngleSystem, tol: float) -> tuple[list, list]:
    """The corner and vertex violations of ``is_angle_system``, one element at a
    time, from the library's corner angles and vertex sums."""
    A, sums = all_corner_angles(x), vertex_angle_sums(x)
    corners = [
        (t, c, float(A[t, c]))
        for t in range(x.complex.face_count)
        for c in range(3)
        if not (tol < A[t, c] < np.pi - tol)
    ]
    verts = [
        (v, float(sums[v] - 2 * np.pi))
        for v in range(x.complex.vertex_count)
        if abs(sums[v] - 2 * np.pi) > tol
    ]
    return corners, verts


def delaunay_violations(x: AngleSystem, tol: float) -> list[tuple[int, float]]:
    """The edges of ``is_delaunay``'s report, one edge at a time."""
    pe = edge_psi(x)
    return [(e, float(pe[e])) for e in range(pe.size) if not (tol < pe[e] < np.pi - tol)]


def curvature_violations(x: AngleSystem, tol: float) -> list[tuple[int, float]]:
    """The faces of ``is_negatively_curved``'s report, one face at a time."""
    k = face_curvatures(x)
    return [(t, float(k[t])) for t in range(k.size) if k[t] > -tol]


class ComplexMismatch(DiskflowError):
    """Two angle systems live on different triangulations."""


def same_class(x: AngleSystem, y: AngleSystem, tol: float = CLASS_TOL) -> bool:
    """Whether two angle systems on one complex have the same per-edge sums."""
    if x.complex != y.complex:
        raise ComplexMismatch("angle systems live on different complexes")
    return bool(np.max(np.abs(edge_psi(x) - edge_psi(y))) <= tol)


def euler_characteristic(T: TopologicalTriangulation) -> int:
    """V - E + F of the complex."""
    return T.chi


class UnknownVertex(DiskflowError):
    """Vertex index outside the complex."""


def vertex_edge_incidence(T: TopologicalTriangulation, v: int) -> list[int]:
    """Edges at vertex v, one entry per endpoint incidence.

    A loop edge (both endpoints at v) is listed twice; summed over all
    vertices this gives exactly 2E entries.
    """
    if not (0 <= v < T.vertex_count):
        raise UnknownVertex(f"vertex {v} not in complex with V={T.vertex_count}")
    return np.nonzero(T.edge_endpoints == v)[0].tolist()


def hessian_Ig(mesh: MeshMetric, phi: np.ndarray, psi: np.ndarray) -> float:
    """Second variation of the flow objective at phi in direction psi.

    Quadratic form of ``hessian_matrix``, -[2 psi' S psi + sum m (Lap psi)^2 / u];
    strictly negative for nonzero mean-zero psi and zero on constants.
    """
    psi = np.asarray(psi, dtype=float)
    return float(psi @ (hessian_matrix(mesh, phi) @ psi))


def triangle_angle_integral() -> float:
    """Integral of the inscribed-triangle area over all three vertex angles.

    Equals (2 pi)^3 times the mean area of a triangle inscribed by three
    uniform points on the unit circle, 3/(2 pi): that is 12 pi^2.
    """
    return 12.0 * np.pi**2


def inscribed_triangle_mean_area() -> float:
    """Mean area of the triangle spanned by 3 uniform points on the unit circle."""
    return triangle_angle_integral() / (2.0 * np.pi) ** 3


def sample_fixed_count(surface: SurfaceModel, n: int, seed) -> PointSample:
    """Exactly n i.i.d. area-uniform points, with the matching intensity n / area
    recorded, so the sample plugs into the Poisson sample's machinery."""
    pts = _draw_points(surface, _generator(seed), n)
    return PointSample(surface, pts, seed)
