"""Constant-curvature ambient surfaces and Poisson sampling.

Two surfaces are supported: the unit sphere (points as unit 3-vectors) and a
flat rectangular torus (points in the fundamental domain [0,a) x [0,b)).
Both have exactly computable geodesic circumdisks, which is what the empty
disk constructions downstream rely on.

Randomness is counter based: every sample is drawn from a Philox generator
keyed by a seed sequence, so a (seed, trial) pair names its stream
independently of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriple, TooLarge


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
    def convexity_radius(self) -> float:
        # strong convexity: half the injectivity radius on the sphere would be
        # pi/2; on the flat torus geodesic balls are convex below min(a,b)/4
        if self.kind == "sphere":
            return np.pi / 2.0
        return min(self.width, self.height) / 4.0

    @property
    def delta_max(self) -> float:
        """Largest admissible decision radius, min(i/6, convexity radius)."""
        return min(self.injectivity_radius / 6.0, self.convexity_radius)

    def disk_area(self, r) -> np.ndarray | float:
        """Area of a geodesic disk of radius r."""
        if self.kind == "sphere":
            return 2.0 * np.pi * (1.0 - np.cos(r))
        return np.pi * np.asarray(r) ** 2


@dataclass(frozen=True)
class PointSample:
    """A realization of the Poisson process on a surface."""

    surface: SurfaceModel
    points: np.ndarray      # (n, 3) unit vectors or (n, 2) fundamental-domain coords
    intensity: float
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
    return PointSample(surface, points, float(intensity), seed)


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


@dataclass(frozen=True)
class Circumdisk:
    center: np.ndarray
    radius: float
    area: float


def _planar_circumcenters(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circumcenters and radii of (S, 3, 2) planar triangles.

    Also returns d, twice the cross product of the sides from the first
    vertex; d = 0 (collinear) leaves a non-finite center and radius.
    """
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    d = 2.0 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
               - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    b2 = ((b - a) ** 2).sum(axis=1)
    c2 = ((c - a) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = ((c[:, 1] - a[:, 1]) * b2 - (b[:, 1] - a[:, 1]) * c2) / d
        uy = ((b[:, 0] - a[:, 0]) * c2 - (c[:, 0] - a[:, 0]) * b2) / d
    centers = a + np.column_stack([ux, uy])
    radii = np.linalg.norm(centers - a, axis=1)
    return centers, radii, d


def circumdisk(surface: SurfaceModel, triple: np.ndarray) -> Circumdisk:
    """Geodesic circumdisk of three points.

    On the sphere the two caps bounded by the circumscribed circle are both
    candidates; the smaller one is returned.  On the torus the triple is
    unwrapped to the nearest representatives of its first point, which is
    faithful while the circumradius stays below the injectivity radius.
    """
    tri = np.asarray(triple, dtype=float)
    if tri.shape[0] != 3:
        raise DegenerateTriple(f"need exactly 3 points, got {tri.shape[0]}")
    if surface.kind == "sphere":
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        norm = np.linalg.norm(n)
        if norm < 1e-14:
            raise DegenerateTriple("degenerate spherical triple")
        c = n / norm
        if float(c @ tri[0]) < 0.0:
            c = -c
        r = float(np.arccos(np.clip(c @ tri[0], -1.0, 1.0)))
        return Circumdisk(c, r, float(surface.disk_area(r)))
    # torus: unwrap relative to the first point
    tri = tri.copy()
    dims = np.array([surface.width, surface.height])
    for i in (1, 2):
        delta = tri[i] - tri[0]
        tri[i] -= dims * np.round(delta / dims)
    centers, radii, d = _planar_circumcenters(tri[None])
    if abs(d[0]) < 1e-14 * max(1.0, np.abs(tri).max() ** 2):
        raise DegenerateTriple("collinear triple has no circumdisk")
    r = float(radii[0])
    return Circumdisk(np.mod(centers[0], dims), r, float(np.pi * r * r))
