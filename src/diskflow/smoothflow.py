"""Conformal deformation of discrete background metrics to constant curvature.

The background metric is a per-edge length assignment on a chi < 0 complex,
discretized the classical way: cotangent stiffness form S, lumped vertex
masses m (a third of the incident face areas), and angle-defect curvature
k_v = (2 pi - angle sum)/m_v.  These choices make the structure exact rather
than approximate: sum m_v k_v = 2 pi chi on the nose, S annihilates
constants, and summation by parts psi' S f = -sum m (Lap psi) f holds to
rounding, so the variational identities below are algebraic facts of the
discrete model.

A conformal factor is a per-vertex field phi, with curvature
k_h = e^(-2 phi) (-Lap phi + k).  The objective

    I(phi) = -[ phi' S phi + sum m u log u + sum m k log|k| ],   u = Lap phi - k

is defined where u > 0, which is k_h < 0; the background k may take either
sign, entering I only through the constant last term (read as 0 where
k = 0).  When every k < 0, I vanishes at phi = 0 and at constants.  It has
gradient S log|k_h| and is strictly concave in mean-zero directions with
second variation -[2 psi' S psi + sum m (Lap psi)^2 / u].  Its ascent flow
drives log|k_h| to a constant; critical points are exactly the constant
curvature factors, unique up to the additive constant.  ``log_ricci_flow``
ascends it with the shared damped Newton driver of ``ascent``, taking the
Newton direction at every iterate: the second variation is negative definite
on mean-zero directions throughout the domain, so that direction always
ascends, and damped Newton converges from any start and then quadratically
(Springborn-Schroeder-Pinkall 2008).  ``teleport`` solves S by
``ascent.grounded_solve``, as its kernel is the constants; the Newton step
solves a system with S's own 1-ring pattern (``_newton``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ascent import TraceRecord, ascend, grounded_solve, sparse_solve
from .complexes import TopologicalTriangulation
from .errors import (
    NoConvergence,
    OutOfDomain,
    SolveFailure,
    ZeroCurvatureVertex,
    finite_vector,
)

if TYPE_CHECKING:
    from scipy import sparse


class MeshMetric:
    """Background discrete metric: complex, edge lengths, derived operators.

    Attributes: ``corner_angles`` (F, 3) Euclidean angles (corner i opposite
    side i), ``face_areas``, ``masses`` m_v, ``stiffness`` S (sparse CSR),
    ``curvature`` k_v, ``area`` total.
    """

    def __init__(self, complex: TopologicalTriangulation, lengths: np.ndarray):
        if complex.chi >= 0:
            raise ValueError(f"mesh metrics require chi < 0, got chi={complex.chi}")
        lengths = finite_vector(lengths, complex.edge_count, "edge")
        if np.any(lengths <= 0):
            raise ValueError("edge lengths must be positive")
        self.complex = complex
        self.lengths = lengths

        F = complex.face_count
        V = complex.vertex_count
        side_len = lengths[complex.edge_of_flag].reshape(F, 3)
        a, b, c = side_len.T
        broken = (a >= b + c) | (b >= a + c) | (c >= a + b)
        if broken.any():
            raise ValueError(f"face {int(np.argmax(broken))} violates the triangle inequality")

        # corner i sits opposite side i, between the two sides that follow it
        nxt, prv = np.roll(side_len, -1, axis=1), np.roll(side_len, -2, axis=1)
        cos = (nxt**2 + prv**2 - side_len**2) / (2.0 * nxt * prv)
        self.corner_angles = np.arccos(np.clip(cos, -1.0, 1.0))
        self.face_areas = 0.5 * side_len[:, 1] * side_len[:, 2] * np.sin(
            self.corner_angles[:, 0]
        )

        # bincount adds in corner order, as np.add.at would, so bit for bit alike
        corners = complex.vertex_of_corner
        self.masses = np.bincount(corners, np.repeat(self.face_areas / 3.0, 3), minlength=V)

        # corner i weights side i, whose endpoints are the other two corners
        corner_vertex = corners.reshape(F, 3)
        u = np.roll(corner_vertex, -1, axis=1).reshape(-1)
        w = np.roll(corner_vertex, -2, axis=1).reshape(-1)
        weight = 0.5 / np.tan(self.corner_angles).reshape(-1)
        keep = u != w  # a side whose endpoints coincide adds nothing
        u, w, weight = u[keep], w[keep], weight[keep]
        # imported here: scipy.sparse is slow to load and only the flow needs it
        from scipy import sparse

        # duplicate (row, column) pairs are summed
        self.stiffness = sparse.csr_array(
            (
                np.concatenate([weight, weight, -weight, -weight]),
                (np.concatenate([u, w, u, w]), np.concatenate([u, w, w, u])),
            ),
            shape=(V, V),
        )

        angle_sums = np.bincount(corners, self.corner_angles.reshape(-1), minlength=V)
        self.curvature = (2.0 * np.pi - angle_sums) / self.masses
        self.area = float(self.masses.sum())

    @property
    def vertex_count(self) -> int:
        return self.complex.vertex_count

    def laplacian(self, phi: np.ndarray) -> np.ndarray:
        """Discrete Laplace operator, -M^-1 S phi (negative semidefinite)."""
        return -(self.stiffness @ phi) / self.masses


def mean_zero(mesh: MeshMetric, phi: np.ndarray) -> np.ndarray:
    """Project out the mass-weighted mean."""
    return phi - float(mesh.masses @ phi) / mesh.area


def curvature_h(mesh: MeshMetric, phi: np.ndarray) -> np.ndarray:
    """Curvature of the conformally changed metric, e^(-2 phi)(-Lap phi + k)."""
    phi = np.asarray(phi, dtype=float)
    return np.exp(-2.0 * phi) * (-mesh.laplacian(phi) + mesh.curvature)


def teleport(mesh: MeshMetric) -> np.ndarray:
    """Mean-zero factor whose conformal curvature is negative everywhere.

    Solves S phi = M (c - k) with c = 2 pi chi / A; the right side is
    mass-orthogonal to constants, so the system is consistent, and the
    result has k_h = e^(-2 phi) c < 0 at every vertex.
    """
    c = 2.0 * np.pi * mesh.complex.chi / mesh.area
    rhs = mesh.masses * (c - mesh.curvature)
    try:
        phi = grounded_solve(mesh.stiffness, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"stiffness solve failed: {exc}") from exc
    if np.max(np.abs(mesh.stiffness @ phi - rhs)) > 1e-8 * max(1.0, np.abs(rhs).max()):
        raise SolveFailure("stiffness solve did not reach the required residual")
    return mean_zero(mesh, phi)


U_FLOOR = 1e-12  # the objective's domain is Lap phi - k > U_FLOOR at every vertex


def _domain_u(mesh: MeshMetric, phi: np.ndarray) -> np.ndarray:
    """u = Lap phi - k, or ``OutOfDomain`` naming its least vertex (NaN first)."""
    phi = np.asarray(phi, dtype=float)
    u = mesh.laplacian(phi) - mesh.curvature
    if not np.all(u > U_FLOOR):
        v = int(np.argmin(u))
        raise OutOfDomain(
            f"Lap phi - k is not above {U_FLOOR:g} at vertex {v} ({u[v]:.3e})", vertex=v
        )
    return u


def evaluate_Ig(mesh: MeshMetric, phi: np.ndarray) -> float:
    """The averaged objective; zero at phi = 0 and at constants when every k < 0."""
    phi = np.asarray(phi, dtype=float)
    u = _domain_u(mesh, phi)
    k = mesh.curvature
    log_k = np.log(np.abs(k), out=np.zeros_like(k), where=k != 0)  # k log|k| -> 0 at k = 0
    return -float(
        phi @ (mesh.stiffness @ phi)
        + mesh.masses @ (u * np.log(u))
        + mesh.masses @ (k * log_k)
    )


def gradient_Ig(mesh: MeshMetric, phi: np.ndarray) -> np.ndarray:
    """Gradient vector S log|k_h|; entries sum to zero exactly."""
    phi = np.asarray(phi, dtype=float)
    u = _domain_u(mesh, phi)
    log_kh = -2.0 * phi + np.log(u)
    return mesh.stiffness @ log_kh


def _weighted_curvature(
    mesh: MeshMetric, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """k_h, the new metric's masses m e^(2 phi), and the mean of k_h they weight."""
    phi = np.asarray(phi, dtype=float)
    kh = curvature_h(mesh, phi)
    w = mesh.masses * np.exp(2.0 * phi)
    return kh, w, float(w @ kh / w.sum())


def curvature_spread(mesh: MeshMetric, phi: np.ndarray) -> float:
    """Area-weighted relative standard deviation of the conformal curvature."""
    kh, w, mean = _weighted_curvature(mesh, phi)
    sd = float(np.sqrt(w @ (kh - mean) ** 2 / w.sum()))
    return sd / abs(mean)


def entropy(mesh: MeshMetric, phi: np.ndarray) -> float:
    """Uniformization entropy -sum m e^(2 phi) k_h log|k_h| of the new metric."""
    kh, w, _ = _weighted_curvature(mesh, phi)
    if np.any(kh == 0.0):
        raise ZeroCurvatureVertex("conformal curvature vanishes at a vertex")
    return -float(w @ (kh * np.log(np.abs(kh))))


@dataclass(frozen=True)
class FlowReport:
    converged: bool
    iterations: int
    steps: list[TraceRecord]
    final_spread: float
    final_curvature_mean: float
    final_objective: float


def newton_matrix(mesh: MeshMetric, w: np.ndarray) -> sparse.csr_array:
    """S + 2 diag(w): symmetric positive definite for w > 0, with S's pattern."""
    from scipy import sparse  # imported here, as in MeshMetric

    return mesh.stiffness + sparse.diags_array(2.0 * w)


def _newton(mesh: MeshMetric, phi: np.ndarray) -> np.ndarray:
    """Mean-zero Newton direction: with gradient S l, l = log|k_h|, and W =
    diag(m u), (2S + S W^-1 S) d = S l is (S + 2W) d = W l up to constants."""
    u = _domain_u(mesh, phi)
    w = mesh.masses * u
    return mean_zero(mesh, sparse_solve(newton_matrix(mesh, w), w * (np.log(u) - 2.0 * phi)))


def log_ricci_flow(
    mesh: MeshMetric,
    phi0: np.ndarray | None = None,
    *,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> tuple[np.ndarray, FlowReport]:
    """Ascend the objective until the conformal curvature is constant.

    Every step is a damped Newton step; the mean-zero projection of
    -Lap log|k_h| (the mass-preconditioned gradient) is taken only when the
    Newton solve (``_newton``) fails or does not ascend.  Steps are halved
    until they keep Lap phi - k > U_FLOOR and the objective nondecreasing.
    Starts from the teleported factor by default.  The only start condition
    is Lap phi0 - k > U_FLOOR (k_h(phi0) < 0), which teleport meets on any
    chi < 0 metric; otherwise ``OutOfDomain`` names a vertex.  Converged
    means both the curvature spread and the sup norm of the gradient are
    below ``tol``.  ``max_iter`` caps the accepted steps; the last iterate is
    tested too.  The report's step residual is the curvature spread.  Raises
    ``NoConvergence`` with the best iterate and report attached if the line
    search stalls or ``max_iter`` steps do not reach ``tol``, and
    ``ValueError`` unless ``phi0`` is finite with one entry per vertex.
    """
    phi = teleport(mesh) if phi0 is None else finite_vector(phi0, mesh.vertex_count, "vertex")

    failure = None
    try:
        phi, trace = ascend(
            phi,
            objective=lambda p: evaluate_Ig(mesh, p),
            gradient=lambda p: gradient_Ig(mesh, p),
            residual=lambda p: curvature_spread(mesh, p),
            converged=lambda grad_inf, spread: spread < tol and grad_inf < tol,
            newton_dir=lambda p, _: _newton(mesh, p),
            fallback_dir=lambda p, G: mean_zero(mesh, G / mesh.masses),
            move=lambda p, step, d: p + step * d,
            max_iter=max_iter,
        )
    except NoConvergence as exc:
        phi, trace, failure = exc.best, exc.trace, exc
    phi = mean_zero(mesh, phi)
    report = FlowReport(
        converged=failure is None,
        iterations=trace[-1].iteration if trace else 0,
        steps=trace,
        final_spread=curvature_spread(mesh, phi),
        final_curvature_mean=_weighted_curvature(mesh, phi)[2],
        final_objective=evaluate_Ig(mesh, phi),
    )
    if failure is not None:
        raise NoConvergence(f"flow: {failure}", best=phi, trace=report) from failure
    return phi, report
