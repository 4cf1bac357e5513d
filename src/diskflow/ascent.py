"""Damped Newton ascent with Armijo backtracking, shared by both solvers.

The uniformizer (prism volume over a conformal class) and the log-Ricci flow
(the averaged curvature functional) both maximize a concave objective over
an open convex domain, which each objective checks itself, with the same
step policy and the same trace.  Every Newton system of both is symmetric
definite, and ``factorized`` factors each the same way, declining a
singular system the way ``ascend`` expects, and returns the factor's solve:
``sparse_solve`` applies it once, and the uniformizer's circle-pattern dual
keeps it to precondition later steps.  ``grounded_solve`` is
``sparse_solve``'s form for a symmetric system whose kernel is the constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, OutOfDomain

ARMIJO = 1e-4      # fraction of the directional slope a step must gain
SHRINK = 0.5       # backtracking factor
MIN_STEP = 1e-18   # the line search stalls below this step
FLAT = 1e-14       # float resolution of the objective, relative to 1 + |f|


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of the ascent.

    ``objective`` and ``residual`` are taken at the iterate the record ends
    on, ``grad_inf`` at the iterate it starts from.  ``step`` is the accepted
    step length, reached after ``backtracks`` halvings of the unit step; the
    final record of a converged run has step 0 and stays on the iterate it
    tested.  ``elapsed`` is the ``perf_counter`` time in seconds since
    ``ascend`` began; it is diagnostic only, so records that differ in it
    alone compare equal.
    """

    iteration: int
    objective: float
    grad_inf: float
    step: float
    newton: bool
    residual: float
    backtracks: int
    elapsed: float = field(compare=False)


# Every system the solvers build is symmetric definite, so one SuperLU setup
# serves them all: minimum degree on A^T + A with the diagonal pivots kept.
# With SuperLU's default supernode relaxation and panel size that ordering
# factors a V=12,286 stiffness matrix in 1.4 s; relax=1 and panel_size=4 take
# 40 ms at the same fill (scipy 1.17, 2 cores), and are faster on the
# uniformizer's systems too.
_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "relax": 1, "panel_size": 4,
    "options": {"SymmetricMode": True},
}


def factorized(A):
    """Factor A, sparse symmetric definite (of either sign), by SuperLU; return its solve.

    Raises ``LinAlgError``, the way a Newton direction declines, when A is
    exactly singular; the returned solve raises it when x is not finite.
    """
    # imported here: scipy.sparse.linalg is slow to load and Monte Carlo never solves
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A.tocsc(), **_LU_OPTIONS)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(b: np.ndarray) -> np.ndarray:
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("sparse solve produced a non-finite result")
        return x

    return solve


def sparse_solve(A, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, A sparse symmetric definite, by its ``factorized`` solve."""
    return factorized(A)(b)


def grounded_solve(A, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, A sparse symmetric with the constants as kernel, at x_0 = 0.

    For a connected graph's Laplacian, dropping row and column 0 leaves a
    regular system; the dropped equation holds when b sums to zero.  Raises
    ``LinAlgError`` when the grounded system is singular or the solution is
    not finite.
    """
    x = np.zeros(len(b))
    x[1:] = sparse_solve(A[1:, 1:], b[1:])
    return x


def ascend(
    x, *, objective, gradient, residual, converged, newton_dir, fallback_dir,
    move, max_iter: int,
) -> tuple[object, list[TraceRecord]]:
    """Maximize ``objective(x)`` in at most ``max_iter`` accepted steps.

    ``gradient(x)`` returns a vector g; ``newton_dir(x, g)`` a direction d in
    the same space, or declines by raising ``LinAlgError``;
    ``fallback_dir(x, g)`` is the direction taken when Newton declines or its
    slope g @ d is not positive.  ``move(x, step, d)`` is the candidate
    iterate, accepted once the objective gains the Armijo share of
    ``step * g @ d``; the step is halved otherwise, as when
    ``objective(candidate)`` raises ``OutOfDomain`` (raised at x, it propagates).
    ``residual(x)`` is computed once per iterate, recorded, and passed with
    the sup norm of g to ``converged(grad_inf, residual)``, which is tested
    at every iterate, the last one included.  Returns the converged iterate
    and the trace; raises ``NoConvergence`` carrying both when the line
    search stalls or the steps run out, and ``ValueError`` when ``max_iter``
    is negative (at 0 only the start is tested).
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter!r}")
    start = time.perf_counter()
    f = objective(x)
    r = residual(x)
    trace: list[TraceRecord] = []
    for it in range(max_iter + 1):
        g = gradient(x)
        ginf = float(np.max(np.abs(g)))
        if converged(ginf, r):
            trace.append(TraceRecord(it, f, ginf, 0.0, False, r, 0, time.perf_counter() - start))
            return x, trace
        if it == max_iter:
            break

        try:
            d = newton_dir(x, g)
        except np.linalg.LinAlgError:  # a singular Newton system declines
            d = None
        slope = float(g @ d) if d is not None else np.nan
        newton = bool(np.isfinite(slope) and slope > 0.0)
        if not newton:
            d = fallback_dir(x, g)
            slope = float(g @ d)

        # near the maximum the true gain drops below float resolution of f;
        # the Armijo test is slackened by that resolution so the final
        # quadratic Newton steps are not rejected as non-improving
        flat = FLAT * (1.0 + abs(f))
        step, backtracks = 1.0, 0
        while step > MIN_STEP:
            cand = move(x, step, d)
            try:
                f_cand = objective(cand)
            except OutOfDomain:  # outside the objective's domain: no gain, halve
                f_cand = -np.inf
            if f_cand >= f + ARMIJO * step * slope - flat:
                break
            step *= SHRINK
            backtracks += 1
        else:
            raise NoConvergence(
                f"line search stalled at iteration {it} (grad_inf={ginf:.3e})",
                best=x,
                trace=trace,
            )
        x, f = cand, f_cand
        r = residual(x)
        trace.append(
            TraceRecord(it, f, ginf, step, newton, r, backtracks, time.perf_counter() - start)
        )

    raise NoConvergence(
        f"no convergence in {max_iter} iterations (grad_inf={ginf:.3e})",
        best=x,
        trace=trace,
    )
