"""Euler characteristic and curvature-defect estimators over random Delaunay
triangulations, plus the expected face count of the sphere in closed form.

The per-trial estimator is A*lambda - F/2: the expected vertex count of a
Poisson sample is exactly A*lambda, and on a closed triangulated surface
F - E + V collapses to V - F/2, so in the limit of dense samples the mean
recovers the Euler characteristic.  Each trial draws from its own stream
keyed by (seed, trial, retry); degenerate draws are resampled and counted.

The quadrature route integrates the face-creation density instead of
sampling it.  The radial integral is elementary, so the expected count is
two regularized incomplete gamma functions (``scipy.special.gammainc``),
exact for every intensity; no numerical integration runs here.
``chi_quadrature`` is the estimator at that expected count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .delaunay import delaunay
from .errors import BadDelta, DegenerateSample
from .surfaces import SurfaceModel, _check_intensity, sample_poisson

MAX_RESAMPLES = 100  # consecutive degenerate draws after which a trial fails


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    n: int
    faces: int
    estimator: float


@dataclass(frozen=True)
class ChiEstimate:
    mean: float
    std_error: float
    records: list[TrialRecord]
    resampled: int
    surface: SurfaceModel
    intensity: float
    seed: object


def _run_trial(surface: SurfaceModel, intensity: float, seed, trial: int):
    """Sample and triangulate one trial, resampling degenerate draws."""
    for retry in range(MAX_RESAMPLES):
        sample = sample_poisson(surface, intensity, seed=[seed, trial, retry])
        try:
            return sample, delaunay(sample), retry
        except DegenerateSample:
            continue
    raise DegenerateSample(
        f"trial {trial} failed {MAX_RESAMPLES} consecutive resamples"
    )


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_trials(worker, args, jobs: int) -> list:
    """``[worker(a) for a in args]`` on up to ``jobs`` threads.

    A trial spends most of its time in qhull, which runs with the GIL
    released, so threads overlap trials without forking, pickling or
    copying the caller's memory.  At most one thread per trial and per
    usable core is started, and none when that leaves one.  Results are
    read in trial order, so the first failing trial's exception is raised,
    as a sequential run would raise it.
    """
    workers = min(jobs, len(args), _usable_cores())
    if workers <= 1:
        return [worker(a) for a in args]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args))


def chi_estimator(
    surface: SurfaceModel, intensity: float, trials: int, seed: int, jobs: int = 1
) -> ChiEstimate:
    """Monte Carlo estimate of the Euler characteristic, A*lambda - F/2."""
    area = surface.area

    def one_trial(trial: int) -> tuple[int, int, int, int]:
        sample, dc, retries = _run_trial(surface, intensity, seed, trial)
        return trial, sample.count, dc.face_count, retries

    records = []
    resampled = 0
    for trial, n, faces, retries in _map_trials(one_trial, range(trials), jobs):
        resampled += retries
        est = area * intensity - faces / 2.0
        records.append(TrialRecord(trial, n, faces, est))
    vals = np.array([r.estimator for r in records])
    se = float(vals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else np.inf
    return ChiEstimate(
        mean=float(vals.mean()),
        std_error=se,
        records=records,
        resampled=resampled,
        surface=surface,
        intensity=intensity,
        seed=seed,
    )


# -- local curvature defect ------------------------------------------------------


@dataclass(frozen=True)
class CapRegion:
    """Spherical cap around the north pole, named by its area."""

    area: float

    def contains(self, centers: np.ndarray) -> np.ndarray:
        cos_r = 1.0 - self.area / (2.0 * np.pi)
        return centers[:, 2] >= cos_r


@dataclass(frozen=True)
class RectRegion:
    """Axis-aligned sub-rectangle of the torus fundamental domain."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, centers: np.ndarray) -> np.ndarray:
        return (
            (centers[:, 0] >= self.x0)
            & (centers[:, 0] < self.x1)
            & (centers[:, 1] >= self.y0)
            & (centers[:, 1] < self.y1)
        )


@dataclass(frozen=True)
class DefectEstimate:
    estimate: float
    std_error: float
    counts: np.ndarray
    region_area: float
    trials: int


def face_defect_in_region(
    surface: SurfaceModel,
    intensity: float,
    trials: int,
    region,
    seed: int,
    jobs: int = 1,
) -> DefectEstimate:
    """Estimate the curvature integral over a region from face counts.

    Faces are attributed to the region by circumcenter.  The estimate
    2 lambda area(region) - mean(count) converges to (1/pi) times the
    integral of the Gauss curvature over the region.
    """

    def one_trial(trial: int) -> int:
        _, dc, _ = _run_trial(surface, intensity, seed, trial)
        return int(region.contains(dc.centers).sum())

    counts = np.array(_map_trials(one_trial, range(trials), jobs), dtype=float)
    est = 2.0 * intensity * region.area - counts.mean()
    se = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else np.inf
    return DefectEstimate(
        estimate=float(est),
        std_error=se,
        counts=counts,
        region_area=float(region.area),
        trials=trials,
    )


# -- direct quadrature of the expected face count -----------------------------------


def expected_faces_quadrature(
    surface: SurfaceModel, intensity: float, delta: float
) -> float:
    """Expected number of Delaunay faces with circumradius below delta.

    The face-creation density over (cap radius r, three boundary angles,
    center) is the empty-cap probability e^(-lambda a(r)) times the volume
    factor 2 (sin r)^3 nu per unit center area, where nu is the inscribed
    Euclidean triangle area and sin r the circle's direction-speed; the
    factor 2 is the Jacobian of the (center, radius, angles) chart, and
    ordered triples are compensated by 1/6.  The angle integral is 12 pi^2,
    (2 pi)^3 times the mean area 3/(2 pi) of a triangle on three uniform
    points of the unit circle, so with c = 2 pi lambda

        E F = 16 pi^3 lambda^3  int_0^delta e^(-c (1 - cos r)) sin^3 r dr.

    Substituting t = 1 - cos r (dt = sin r dr, sin^2 r = t (2 - t)) turns
    the radial integral into int_0^T e^(-c t) t (2 - t) dt with
    T = 2 sin^2(delta/2), and int_0^T e^(-c t) t^(a-1) dt = Gamma(a) P(a, cT)
    / c^a with P the regularized lower incomplete gamma.  The constants
    collapse to

        E F = 2 n P(2, x) - 4 P(3, x),

    with n = 4 pi lambda the expected vertex count and x = cT = lambda times
    the cap area.  As x grows this tends to 2n - 4, the sphere's face count.
    T is formed from the sine: 1 - cos delta loses digits at small delta.
    """
    n, x = _cap_counts(surface, intensity, delta)
    return float(2.0 * n * gammainc(2, x) - 4.0 * gammainc(3, x))


def chi_quadrature(surface: SurfaceModel, intensity: float, delta: float) -> float:
    """The estimator A lambda - E F / 2 at the expected face count of
    ``expected_faces_quadrature``.

    That is n - n P(2, x) + 2 P(3, x) = n Q(2, x) + 2 P(3, x), with Q = 1 - P
    the upper regularized gamma (``scipy.special.gammaincc``): the same
    quantity, evaluated without subtracting E F / 2 from n, which at large
    lambda cancels to 0 where the value tends to 2.
    """
    n, x = _cap_counts(surface, intensity, delta)
    return float(n * gammaincc(2, x) + 2.0 * gammainc(3, x))


def _cap_counts(surface: SurfaceModel, intensity: float, delta: float) -> tuple[float, float]:
    """The quadrature's n = lambda A and x = lambda times the area of a cap of
    radius delta, after its checks of the surface, delta and the intensity."""
    if surface.kind != "sphere":
        raise BadDelta("quadrature route is defined on the unit sphere")
    if not (0.0 < delta <= surface.delta_max):
        raise BadDelta(
            f"delta {delta!r} outside (0, {surface.delta_max!r}]"
        )
    _check_intensity(intensity)
    n = surface.area * intensity
    return n, n * np.sin(delta / 2.0) ** 2
