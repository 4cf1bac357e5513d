"""The uniform hyperbolic structure of a conformal class, by its circle-pattern equations.

The class must be one of the paper's: every psi_e in (0, pi) and the psi_e
around each vertex adding up to 2 pi (``angles.refuse_inadmissible``).

The uniform member of the class is the one whose triangles fit: the two
faces meeting along each edge assign it the same hyperbolic length, so the
triangles assemble into an actual hyperbolic surface whose circumscribing
disks form the empty pattern.  It maximizes the prism volume over the class
(Rivin, Ann. of Math. 139 (1994)).  Those disks meet at the angles
pi - psi_e and are fixed by one circumradius per face, so it is also the
root of F circle-pattern equations (``_Pattern``), which ``uniformize``
solves by Newton in those F unknowns (``_dual_member``), seeded from the
class alone (``_seed_radii``), with the damped Newton driver of ``ascent``.
The dual factors its sparse Jacobian once, at its first step, and takes
each later direction by SciPy's ``cg`` preconditioned with the factor, to a
relative residual that ``cg`` tests before each iteration (inexact Newton).
Every iterate's kite angles are a member of the class, so the member at the
root is certified as it stands: its worst two-sided length mismatch must be
below ``tol``, and ``assemble_structure`` checks its lengths and
circumradii.  Only when the dual declines does ``find_negative_delaunay``'s
margin LP run: it gives every ``Infeasible`` verdict of an admissible class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .angles import (
    MARGIN_FLOOR,
    AngleSystem,
    ConformalClassSpec,
    all_corner_angles,
    edge_psi,
    find_negative_delaunay,
    interior_margin,
    refuse_inadmissible,
)
from .ascent import TraceRecord, ascend, factorized
from .complexes import TopologicalTriangulation
from .errors import LengthMismatch, NoConvergence, OutOfDomain
from .hyperbolic import class_grad, flag_edge_lengths, objective_H
from .reports import Report

if TYPE_CHECKING:
    from scipy import sparse

AREA_TOL = 1e-9  # how far the pattern's area may fall from -2 pi chi
# The circle-pattern Newton stops once every face's residual is within
# DUAL_TOL of its rounding bound (``_Pattern.G_ulps``).  From ``_seed_radii``,
# over 202 classes (criterion 5's 189 feasible ones, F=1536 seeds 0-9, the
# uncertified F=6144 classes and canonical F=24,576) the residual settled at
# 6.6 bounds or less, and stayed there over four more steps, and no earlier
# iterate came below 8.6.  Those classes take 4 to 11 steps; the ones at
# F=1536, F=6144 and F=24,576 take 5.
DUAL_TOL = 8.0
RHO_FLOOR = -300.0  # the dual's domain ends there: R_f < 1e-130 and cosh(rho)^2 nears overflow
# After its first step the dual's Newton directions are inexact (Dembo,
# Eisenstat and Steihaug, SIAM J. Numer. Anal. 19 (1982)): CG on -J d = G,
# preconditioned by the factor of J from the first step, to the relative
# residual eta = min(FORCING_MAX, |G|_inf), at least FORCING_FLOOR (Eisenstat
# and Walker, SIAM J. Sci. Comput. 17 (1996)).  On F=1536 seed 0, uncertified
# F=6144 seed 0 and canonical F=24,576 this takes the same 5 steps as exact
# directions, with 22, 22 and 18 CG iterations in all; a fixed eta of 1e-10
# takes 43, 50 and 32, and a FORCING_MAX of 0.5 or 0.01 takes 18 to 24.
FORCING_MAX = 0.1
# |G|_inf < 1e-10 only on the last step, whose residual is at rounding level
# either way: a floor of 1e-12 or 1e-8 left those three classes at 5 steps.
FORCING_FLOOR = 1e-10
# One CG iteration (a product with J and a solve with the factor) costs 1/22
# to 1/28 of factoring J at F=1536 to 24,576, so past about 20 iterations a
# new factor is cheaper: J is then refactored at the iterate, as it is when
# cg would meet its target only at its last iteration, which it never tests.
# No solve on the 202 classes took more than 12 iterations, and none refactored.
CG_MAX_ITER = 20


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
    return lengths, np.abs(y.complex.signed_incidence.T @ lengths)


class _Pattern:
    """One iterate of the circle-pattern dual: rho_f = log tanh(R_f / 2) < 0 per face.

    With c = cosh rho and s = -sinh rho, cosh R = c / s, sinh R = 1 / s and
    coth R = c.  Flag k of face f, whose mate lies in face g, spans a kite
    triangle (the centre of f, an end of its side, the centre of g) with
    sides R_f and R_g at the angle psi_e of the class.  Its angle at f's
    centre, half the angle that the side subtends there, is
    alpha_k = atan2(y_k, x_k) with y_k = sin psi_e s_f and
    x_k = c_g - cos psi_e c_f, and face f's equation is
    G_f = sum of alpha_k over its sides - pi = 0.  ``kite`` is ``_kite(spec)``.
    """

    def __init__(self, kite: tuple, rho: np.ndarray):
        self.kite, self.rho = kite, rho

    @cached_property
    def _sides(self) -> tuple[np.ndarray, ...]:
        f, g, cos_e, sin_e = self.kite
        c, s = np.cosh(self.rho), -np.sinh(self.rho)
        return c, s, c[g] - cos_e * c[f], sin_e * s[f]

    @cached_property
    def G(self) -> np.ndarray:
        *_, x, y = self._sides
        return np.arctan2(y, x).reshape(-1, 3).sum(axis=1) - np.pi

    @cached_property
    def G_ulps(self) -> float:
        """max_f |G_f| / (eps kappa_f), eps the float spacing at 1.  A relative
        error eps in c, x_k and y_k moves alpha_k by at most eps times
        (|y_k| (c_g + |cos psi_e| c_f) + |x_k y_k|) / Q_k, Q_k = x_k^2 + y_k^2,
        and kappa_f adds these over f's sides, plus pi for the sum itself."""
        f, g, cos_e, _ = self.kite
        c, _, x, y = self._sides
        ay = np.abs(y)
        moved = (ay * (c[g] + np.abs(cos_e) * c[f]) + np.abs(x) * ay) / (x * x + y * y)
        kappa = moved.reshape(-1, 3).sum(axis=1) + np.pi
        return float(np.max(np.abs(self.G) / kappa)) / np.finfo(float).eps

    @cached_property
    def J(self) -> sparse.csc_array:
        """dG/drho as CSC: per flag, -sin psi_e (c_f c_g - cos psi_e) / Q_k at
        (f, f) and sin psi_e s_f s_g / Q_k at (f, g), Q_k = x_k^2 + y_k^2,
        with duplicates summed (a side glued to its own face adds to both).
        Symmetric, as Q_k = c_f^2 + c_g^2 - 2 cos psi_e c_f c_g - sin^2 psi_e
        is the same for both flags of an edge, and negative definite: every
        row is strictly diagonally dominant, by sin psi_e (cosh(rho_f - rho_g)
        - cos psi_e) / Q_k per flag, with positive off-diagonal entries."""
        # imported here: scipy.sparse is slow to load and only the uniformizer needs it
        from scipy import sparse

        f, g, cos_e, sin_e = self.kite
        c, s, x, y = self._sides
        q = sin_e / (x * x + y * y)
        values = np.concatenate([-q * (c[f] * c[g] - cos_e), q * s[f] * s[g]])
        F = len(self.rho)
        return sparse.csc_array((values, (np.tile(f, 2), np.concatenate([f, g]))), shape=(F, F))

    def member(self, T: TopologicalTriangulation) -> AngleSystem:
        """The partial angles of the kites' base angles, psi_k = atan2(x_k, sin psi_e c_f).

        The two flags of an edge split its psi_e, so this is a member of the
        class at every iterate; at a root of G it is the uniform one.
        """
        f, _, _, sin_e = self.kite
        c, _, x, _ = self._sides
        return AngleSystem(T, np.arctan2(x, sin_e * c[f]))


def _kite(spec: ConformalClassSpec) -> tuple[np.ndarray, ...]:
    """``_Pattern``'s per-flag data: the face, the face across the side, and
    cos and sin of the side's psi_e."""
    T = spec.complex
    pe = spec.psi_edge[T.edge_of_flag]
    return np.arange(3 * T.face_count) // 3, T.mate // 3, np.cos(pe), np.sin(pe)


def _seed_radii(spec: ConformalClassSpec) -> np.ndarray:
    """One rho for every face, from the class alone.

    Every member's face defects add up to pi F - 2 sum(psi_e), so their mean
    U bounds any member's interior margin.  Each face gets the circumradius
    R of the equilateral triangle with defect U, whose corner angle is
    A = (pi - U) / 3: the kite at its centre has the angle pi / 3 there and
    A / 2 at the corner, so cosh R = C = cot(A / 2) / sqrt(3), and
    rho = log tanh(R / 2) = log((C - 1) / (C + 1)) / 2.  A class with
    U < ``MARGIN_FLOOR`` has no member that clears the floor: ``NoConvergence``.
    """
    F = spec.complex.face_count
    U = (np.pi * F - 2.0 * float(spec.psi_edge.sum())) / F
    if U < MARGIN_FLOOR:
        raise NoConvergence(f"seed below the margin floor: mean defect under {MARGIN_FLOOR:.0e}")
    C = 1.0 / (np.sqrt(3.0) * np.tan((np.pi - U) / 6.0))
    return np.full(F, 0.5 * np.log((C - 1.0) / (C + 1.0)))


def _dual_member(spec: ConformalClassSpec, max_iter: int) -> AngleSystem:
    """The member of the class at the root of its circle-pattern equations.

    The maximizer of the prism volume is a circle pattern, so it is also the
    root of F equations in one circumradius per face (``_Pattern``; Bobenko
    and Springborn, "Variational principles for circle patterns and Koebe's
    theorem", Trans. AMS 356 (2004)).  ``ascend`` solves them by damped
    Newton from ``_seed_radii``: the objective is -|G|^2 / 2 on
    ``RHO_FLOOR`` < rho < 0, its gradient -J G, and the Newton direction
    solves J d = -G.  J is factored once, and the factor solves it at the
    first step; each later direction is SciPy's ``cg`` on -J d = G,
    preconditioned by that factor, until its residual r has
    norm(r) < eta norm(G), a test made before each iteration, eta the
    forcing term of ``FORCING_MAX`` and ``FORCING_FLOOR``.  Failing that
    within ``CG_MAX_ITER`` iterations, J is refactored at the iterate, and
    the new factor solves it and preconditions from then on.  It has
    converged when every G_f is within ``DUAL_TOL`` times its rounding bound
    (``_Pattern.G_ulps``).  Raises ``NoConvergence`` naming the reason when
    it declines: the seed is below the margin floor, a factor of J is
    singular, the line search stalls or ``max_iter`` steps do not converge
    (named with the largest |G_f|), or the member's interior margin is below
    ``MARGIN_FLOOR``.
    """
    # imported here: scipy.sparse.linalg is slow to load, as for ``factorized``
    from scipy.sparse.linalg import LinearOperator, cg

    rho = _seed_radii(spec)
    kite = _kite(spec)

    def objective(p: _Pattern) -> float:
        if not np.all((RHO_FLOOR < p.rho) & (p.rho < 0.0)):
            raise OutOfDomain("a face radius left (0, inf)")
        return -0.5 * float(p.G @ p.G)

    solve = None  # of J as last factored

    def newton_dir(p: _Pattern, g: np.ndarray) -> np.ndarray:
        nonlocal solve
        if solve is not None:
            eta = max(FORCING_FLOOR, min(FORCING_MAX, float(np.max(np.abs(p.G)))))
            M = LinearOperator(p.J.shape, matvec=lambda r: -solve(r), dtype=float)
            d, info = cg(-p.J, p.G, rtol=eta, maxiter=CG_MAX_ITER, M=M)
            # info 0 with d = 0 is cg's answer to maxiter=0, not a solve
            if info == 0 and d.any():
                return d
        solve = factorized(p.J)
        return solve(-p.G)

    def decline(p: _Pattern, g: np.ndarray) -> np.ndarray:
        # the slope of an exact or CG direction is positive, so only a
        # factor or solve that raised LinAlgError lands here
        raise NoConvergence("singular Jacobian: no Newton direction for the pattern equations")

    try:
        p, _ = ascend(
            _Pattern(kite, rho),
            objective=objective,
            gradient=lambda p: -(p.J @ p.G),
            residual=lambda p: p.G_ulps,
            converged=lambda _, r: r < DUAL_TOL,
            newton_dir=newton_dir,
            fallback_dir=decline,
            move=lambda p, step, d: _Pattern(kite, p.rho + step * d),
            max_iter=max_iter,
        )
    except NoConvergence as exc:
        if exc.best is None:  # from ``decline``
            raise
        # ascend names |J G|_inf, the gradient of -|G|^2 / 2: name G itself
        k, worst = len(exc.trace), float(np.max(np.abs(exc.best.G)))
        where = (f"line search stalled at iteration {k}" if k < max_iter
                 else f"no convergence in {k} iterations")
        raise NoConvergence(f"{where} (largest pattern residual |G_f| = {worst:.3e})") from exc
    y = p.member(spec.complex)
    margin = interior_margin(y)
    if margin < MARGIN_FLOOR:
        raise NoConvergence(
            f"member below the margin floor: interior margin {margin:.3e} < {MARGIN_FLOOR:.0e}"
        )
    return y


def uniformize(
    spec: ConformalClassSpec, *, tol: float = 1e-10, max_iter: int = 200
) -> tuple[AngleSystem, HyperbolicStructure, list[TraceRecord]]:
    """Find the uniform angle system in the class of ``spec``.

    A class outside the paper's domain (the empty complex, a psi_e not
    inside (0, pi), a vertex sum of psi_e off 2 pi) is first refused with
    ``Infeasible`` by ``refuse_inadmissible``.  Then the circle-pattern
    dual runs from the class alone, in at most ``max_iter`` Newton steps.
    When it declines, ``find_negative_delaunay`` raises ``Infeasible`` if
    the class has no negatively curved Delaunay member, and otherwise
    ``uniformize`` raises ``NoConvergence`` naming the dual's reason, with
    an empty trace.  The dual's member is accepted when its worst two-sided
    length mismatch is below ``tol``, which is what "the triangles fit"
    means; else ``NoConvergence`` carries the member and the trace.  Returns
    the member, its assembled structure (lengths and circumradii checked at
    10 ``tol``), and a one-row trace: the prism volume, the sup norm of the
    class gradient, which is only reported, and the mismatch as the
    residual.
    """
    began = time.perf_counter()
    refuse_inadmissible(spec)
    try:
        y = _dual_member(spec, max_iter)
    except NoConvergence as exc:
        find_negative_delaunay(spec)
        raise NoConvergence(f"circle-pattern Newton declined: {exc}", trace=[]) from exc
    mismatch = float(np.max(_two_sided_lengths(y)[1]))
    trace = [TraceRecord(
        0, objective_H(y), float(np.max(np.abs(class_grad(y)))), 0.0, False, mismatch, 0,
        time.perf_counter() - began,
    )]
    if not mismatch < tol:
        raise NoConvergence(
            f"two-sided length mismatch {mismatch:.3e} not below tol {tol:.1e}",
            best=y,
            trace=trace,
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
    worst = int(np.argmax(mismatch))
    if mismatch[worst] > tol:
        raise LengthMismatch(
            f"edge {worst} (flags {tuple(T.edges[worst].tolist())}) length mismatch "
            f"{mismatch[worst]:.3e} > {tol:.1e}"
        )
    edge_lengths = 0.5 * lengths[T.edges].sum(axis=1)

    # circumradius per face; all three sides must give the same value
    A = all_corner_angles(y)
    psi = A.sum(axis=1, keepdims=True) / 2.0 - A
    ratio = np.tanh(lengths.reshape(-1, 3) / 2.0) / np.cos(psi)
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
