"""Exception hierarchy shared by all diskflow modules, and the input vector check."""

from __future__ import annotations

import numpy as np


class DiskflowError(Exception):
    """Base class for every error raised by this package."""


# -- combinatorics ------------------------------------------------------------

class UnmatchedSide(DiskflowError):
    """A face side is missing from the gluing."""


class SelfGluedSide(DiskflowError):
    """A side is paired with itself."""


class DuplicateSide(DiskflowError):
    """A side appears in more than one gluing pair."""


# -- angle systems ------------------------------------------------------------

class Infeasible(DiskflowError):
    """No negatively curved Delaunay representative exists.

    Carries the certificate margin (the maximized interior margin, <= 0 or
    below the feasibility floor) as ``margin``.
    """

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


# -- objective domains --------------------------------------------------------

class OutOfDomain(DiskflowError):
    """An objective's argument is outside the open set it is defined on.

    ``vertex`` names the worst vertex of a conformal factor, else None.
    """

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


class NotInDomain(OutOfDomain):
    """Some face is not a valid hyperbolic triangle; the message names the first."""


class DegenerateAngle(NotInDomain):
    """An angle is outside (0, pi) or too close to the boundary."""


class NotHyperbolic(NotInDomain):
    """Angle sum is not below pi by the guard."""


# -- uniformization -----------------------------------------------------------

class LengthMismatch(DiskflowError):
    """Edge lengths computed from the two incident faces disagree."""


class NoConvergence(DiskflowError):
    """Iteration hit its cap before reaching tolerance.

    ``best`` holds the last iterate.  ``trace`` holds the list of
    per-iteration ``TraceRecord``s when raised by ``ascend`` (so by
    ``uniformize``), and the whole ``FlowReport``, whose ``steps`` are those
    records, when raised by ``log_ricci_flow``.
    """

    def __init__(self, message: str, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


# -- stochastic geometry ------------------------------------------------------

class TooLarge(DiskflowError):
    """A point sample does not fit in memory; the message names its size."""


class DegenerateSample(DiskflowError):
    """Sample contains a (near-)cocircular quadruple or coincident points."""


class BadDelta(DiskflowError):
    """Decision radius outside the admissible range."""


class BadParameter(DiskflowError):
    """A command-line value is outside its documented range; names the flag."""


# -- mesh metrics and the flow -------------------------------------------------

class SolveFailure(DiskflowError):
    """Linear solve for the conformal factor failed."""


class ZeroCurvatureVertex(DiskflowError):
    """Entropy is undefined where the conformal curvature vanishes."""


def finite_vector(values, n: int | tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as n finite floats, one per ``what``, else ``ValueError`` saying why.

    ``n`` may be a shape such as (F, 3); a bad value is named by its flat index.
    A nesting numpy cannot read as floats (a list where a number belongs) is
    read cell by cell instead, to name the first cell that is not a number.
    """
    shape = n if isinstance(n, tuple) else (int(n),)
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = np.array(values, dtype=object)
        if out.shape == shape:
            for i, v in enumerate(out.flat):
                try:
                    float(v)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"value at {what} {i} is not a number ({v!r})") from None
    if out.shape != shape:
        raise ValueError(f"expected shape {shape}, one value per {what}, got {out.shape}")
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"value at {what} {i} is not finite ({out.flat[i]})")
    return out
