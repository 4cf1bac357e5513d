"""Hyperbolic triangle solver and the prism-volume objective.

A triple of angles with sum below pi determines a hyperbolic triangle; the
per-side quantity log((cosh l - 1)/2) drives everything here.  It is never
formed by subtracting 1 from a cosh: with s the half angle sum and partials
psi_i = s - A_i,

    (cosh l_i - 1)/2 = cos(s) cos(psi_i) / (sin A_j sin A_k),

which is exact and stable arbitrarily close to the degenerate boundary.

The volume of the ideal prism over a triangle (the convex hull of the
triangle and the three complete geodesics through its vertices perpendicular
to its plane) is, as a function of the three partial angles psi_i = s - A_i,
the potential of the exact one-form

    dV = sum_i log((cosh l_i - 1)/2) d psi_i,

so the volume grows in a partial angle exactly while the opposite side is
longer than arccosh(3).  In closed form

    V = L(pi/2 - s) + sum_i L(pi/2 - psi_i) + sum_i L(A_i)

with L the Lobachevsky function; the test suite pins this against two
independent routes (the straight-segment path integral of the one-form, and
an ideal-tetrahedron decomposition of the prism).  The exported volume is
anchored to 0 at the equilateral pi/6 triple; only differences and
derivatives are meaningful to callers.  V is strictly concave along the
directions that preserve every per-edge partial-angle sum, which is what
makes maximizing the total volume over a conformal class well posed.  With
D the complex's ``signed_incidence``, the class Hessian is D^T H D for H the
block diagonal of the 3x3 face Hessians, a ``scipy.sparse`` CSC array with
at most five nonzeros per row, so it costs memory linear in the face count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .angles import AngleSystem, all_corner_angles
from .errors import DegenerateAngle, NotHyperbolic

if TYPE_CHECKING:
    from scipy import sparse

ANGLE_GUARD = 1e-9  # reject angles or defects closer than this to the boundary

# zeta(2m) / (m (2m+1)) for m = 1..30, the lobachevsky series coefficients
_SERIES_COEF = np.array([
    0.5483113556160755, 0.10823232337111381, 0.048444907713545204,
    0.027891037672165123, 0.018199901365960326, 0.012823667776324462,
    0.009524392839381512, 0.007353053546025064, 0.0058479755397266965,
    0.004761909304581114, 0.00395257011245258, 0.0033333335320272967,
    0.002849002891457421, 0.002463054196367818, 0.002150537636411457,
    0.001893939394380362, 0.0016806722690053911, 0.0015015015015233512,
    0.0013495276653220486, 0.0012195121951230604, 0.0011074197120711266,
    0.0010101010101010676, 0.0009250693802035284, 0.0008503401360544248,
    0.0007843137254901968, 0.0007256894049346882, 0.0006734006734006734,
    0.0006265664160401002, 0.0005844535359438924, 0.000546448087431694,
])


def lobachevsky(theta):
    """The Lobachevsky function, minus the integral of log|2 sin| from 0.

    Odd and pi-periodic.  After range reduction to [0, pi/2] it is the power
    series t - t log(2t) + t sum_m zeta(2m) u^m / (m (2m+1)) in u = (t/pi)^2,
    cut at 30 terms and evaluated by Horner's rule.  There u <= 1/4, so the
    remainder is below 1e-21.  The coefficients zeta(2m) / (m (2m+1)) are
    float literals, the ``repr`` of ``scipy.special.zeta(2m) / (m (2m+1))``
    in float64; the test suite checks them against it bit for bit.  Accepts
    scalars or arrays.
    """
    t = np.asarray(theta, dtype=float)
    scalar = t.ndim == 0
    # reduce mod pi into (-pi/2, pi/2], then use oddness
    t = t - np.pi * np.round(t / np.pi)
    sign = np.sign(t)
    t = np.abs(t)
    u = (t / np.pi) ** 2
    acc = np.full_like(u, _SERIES_COEF[-1])
    for c in _SERIES_COEF[-2::-1]:
        acc *= u
        acc += c
    # t log(2t) is 0 at t = 0
    log2t = np.log(2 * t, out=np.zeros_like(t), where=t > 0)
    out = sign * (t - t * log2t + t * u * acc)
    return float(out) if scalar else out


def _valid_angles(angles) -> np.ndarray:
    """``angles`` (..., 3) as floats, if every corner triple is a hyperbolic face.

    The one domain check here: ``DegenerateAngle`` names the first angle not
    in (ANGLE_GUARD, pi - ANGLE_GUARD), else ``NotHyperbolic`` the first face
    whose defect pi - (A + B + C) is below ANGLE_GUARD.
    """
    A = np.asarray(angles, dtype=float)
    faces = A.reshape(-1, 3)
    bad = ~((faces > ANGLE_GUARD) & (faces < np.pi - ANGLE_GUARD))
    if bad.any():
        t, i = divmod(int(np.argmax(bad)), 3)
        raise DegenerateAngle(f"face {t}: angle {i} = {faces[t, i]} is not in "
                              f"({ANGLE_GUARD}, pi - {ANGLE_GUARD})")
    bad = np.pi - faces.sum(axis=1) < ANGLE_GUARD
    if bad.any():
        t = int(np.argmax(bad))
        raise NotHyperbolic(f"face {t}: angles {faces[t].tolist()} do not sum to below "
                            f"pi - {ANGLE_GUARD}")
    return A


def log_half_cosh_minus_one(angles: np.ndarray) -> np.ndarray:
    """log((cosh l_i - 1)/2) per side, from the stable product identity.

    ``angles`` is (..., 3); side i is opposite angle i.
    """
    angles = np.asarray(angles, dtype=float)
    s = angles.sum(axis=-1, keepdims=True) / 2.0
    psi = s - angles
    logsin = np.log(np.sin(angles))
    # for side i drop log sin A_i from the total of the three
    return (
        np.log(np.cos(s))
        + np.log(np.cos(psi))
        - (logsin.sum(axis=-1, keepdims=True) - logsin)
    )


# the closed form at the equilateral pi/6 triple
_ANCHOR = lobachevsky(np.pi / 4) + 3 * lobachevsky(5 * np.pi / 12) + 3 * lobachevsky(np.pi / 6)


def _prism_volumes(A: np.ndarray) -> np.ndarray:
    """Anchored prism volume of each face of a checked (F, 3) angle array.

    The unanchored closed form L(pi/2 - s) + sum_i L(pi/2 - psi_i)
    + sum_i L(A_i) is the actual hyperbolic volume; the anchor subtracts its
    value at the equilateral pi/6 triple (2.5157576984766887) so that only
    differences and derivatives carry meaning.
    """
    s = A.sum(axis=1) / 2.0
    psi = s[:, None] - A
    return (
        lobachevsky(np.pi / 2 - s)
        + lobachevsky(np.pi / 2 - psi).sum(axis=1)
        + lobachevsky(A).sum(axis=1)
        - _ANCHOR
    )


# -- the objective over an angle system ---------------------------------------------


def objective_H(x: AngleSystem) -> float:
    """Total prism volume over all faces."""
    return float(_prism_volumes(_valid_angles(all_corner_angles(x))).sum())


def flag_log_terms(x: AngleSystem) -> np.ndarray:
    """log((cosh l - 1)/2) per flag, sides in flag order."""
    return log_half_cosh_minus_one(_valid_angles(all_corner_angles(x))).reshape(-1)


def flag_edge_lengths(x: AngleSystem) -> np.ndarray:
    """Hyperbolic length of each side, per flag."""
    logs = flag_log_terms(x)
    return np.arccosh(2.0 * np.exp(logs) + 1.0)


def class_grad(x: AngleSystem) -> np.ndarray:
    """Gradient restricted to the conformal class, one entry per edge.

    Entry e is the log term of the lower flag minus that of its mate (D^T of
    the per-flag terms, D the ``signed_incidence``); it vanishes exactly when
    the two incident faces assign the edge the same length.
    """
    return x.complex.signed_incidence.T @ flag_log_terms(x)


def face_hessian(angles: np.ndarray) -> np.ndarray:
    """(..., 3, 3) Hessians of the prism volume in the partials of each face.

    ``angles`` is (..., 3), one corner triple per face.  Off-diagonal (i, j):
    -(tan s + cot A_k); the diagonal adds -tan psi_i and the second
    cotangent.  Symmetric by construction.
    """
    angles = np.asarray(angles, dtype=float)
    s = angles.sum(axis=-1, keepdims=True) / 2.0
    ts = np.tan(s)
    cotA = 1.0 / np.tan(angles)
    cot_j, cot_k = np.roll(cotA, -1, axis=-1), np.roll(cotA, -2, axis=-1)
    i, j = np.arange(3), np.roll(np.arange(3), -1)
    H = np.empty(angles.shape + (3,))
    H[..., i, i] = -ts - (np.tan(s - angles) + cot_j + cot_k)
    H[..., i, j] = H[..., j, i] = -ts - cot_k
    return H


def class_hessian_sparse(x: AngleSystem) -> sparse.csc_array:
    """(E, E) Hessian of the objective along the conformal class, as CSC.

    D^T H D, with D the complex's ``signed_incidence`` and H the (3F, 3F)
    block diagonal of the face Hessians, stored as BSR with one 3x3 block
    per face.  An edge borders two faces, so a row holds itself and at most
    four others.
    """
    # imported here: scipy.sparse is slow to load and only the uniformizer needs it
    from scipy import sparse

    D, F = x.complex.signed_incidence, x.complex.face_count
    blocks = face_hessian(_valid_angles(all_corner_angles(x)))
    H = sparse.bsr_array((blocks, np.arange(F), np.arange(F + 1)), shape=(3 * F, 3 * F))
    return (D.T @ H @ D).tocsc()


def class_hessian(x: AngleSystem) -> np.ndarray:
    """The class Hessian of ``class_hessian_sparse`` as a dense (E, E) array."""
    return class_hessian_sparse(x).toarray()

