"""Constant-curvature ambient surfaces and Poisson sampling.

Two surfaces are supported: the unit sphere (points as unit 3-vectors) and a
flat rectangular torus (points in the fundamental domain [0,a) x [0,b)).
Both have exactly computable geodesic circumdisks; ``delaunay`` computes
one for every face of the triangulation it builds, in one vectorized pass.

Randomness is counter based: every sample is drawn from a Philox generator
keyed by a seed sequence, so a (seed, trial) pair names its stream
independently of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLarge


@dataclass(frozen=True)
class SurfaceModel:
    """Unit sphere or flat torus of width a and height b."""

    kind: str                 # "sphere" | "torus"
    width: float = 1.0        # torus only
    height: float = 1.0       # torus only

    def __post_init__(self):
        if self.kind not in ("sphere", "torus"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "torus" and not (0 < self.width < np.inf and 0 < self.height < np.inf):
            raise ValueError("torus dimensions must be finite and positive")

    @classmethod
    def sphere(cls) -> "SurfaceModel":
        return cls("sphere")

    @classmethod
    def torus(cls, width: float = 1.0, height: float = 1.0) -> "SurfaceModel":
        return cls("torus", float(width), float(height))

    @property
    def area(self) -> float:
        if self.kind == "sphere":
            return 4.0 * np.pi
        return self.width * self.height

    @property
    def gauss_curvature(self) -> float:
        return 1.0 if self.kind == "sphere" else 0.0

    @property
    def injectivity_radius(self) -> float:
        if self.kind == "sphere":
            return np.pi
        return min(self.width, self.height) / 2.0

    @property
    def delta_max(self) -> float:
        """Largest admissible decision radius, i/6 for the injectivity radius i.

        Strong convexity never binds: it holds below pi/2 on the sphere and
        below min(a, b)/4 on the flat torus, both above i/6."""
        return self.injectivity_radius / 6.0


@dataclass(frozen=True)
class PointSample:
    """A realization of the Poisson process on a surface."""

    surface: SurfaceModel
    points: np.ndarray      # (n, 3) unit vectors or (n, 2) fundamental-domain coords
    seed: object

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _draw_points(surface: SurfaceModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. area-uniform points on the surface."""
    if surface.kind == "sphere":
        z = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    return rng.uniform([0.0, 0.0], [surface.width, surface.height], size=(n, 2))


def _check_intensity(intensity: float) -> None:
    if not 0 < intensity < np.inf:
        raise ValueError(f"intensity must be finite and positive, got {intensity!r}")


def sample_poisson(surface: SurfaceModel, intensity: float, seed) -> PointSample:
    """Poisson(intensity * area) many points, i.i.d. uniform for the area.

    ``seed`` may be an int or a sequence of ints; equal seeds reproduce the
    sample exactly.  Raises ``ValueError`` unless the intensity is finite
    and positive, and ``TooLarge`` naming n when the n points do not fit in
    memory.
    """
    _check_intensity(intensity)
    rng = _generator(seed)
    n = int(rng.poisson(intensity * surface.area))
    try:
        points = _draw_points(surface, rng, n)
    except MemoryError as exc:
        raise TooLarge(f"the {n} points of the sample do not fit in memory") from exc
    return PointSample(surface, points, seed)


def geodesic_distance(surface: SurfaceModel, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise-broadcast geodesic distance between points."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if surface.kind == "sphere":
        dots = np.clip((p * q).sum(axis=-1), -1.0, 1.0)
        return np.arccos(dots)
    d = np.abs(p - q)
    d[..., 0] = np.minimum(d[..., 0], surface.width - d[..., 0])
    d[..., 1] = np.minimum(d[..., 1], surface.height - d[..., 1])
    return np.sqrt((d**2).sum(axis=-1))
