"""Geodesic Delaunay triangulations by the empty-disk criterion.

Sphere: the convex hull of points on the unit sphere is exactly the Delaunay
triangulation; each hull facet's outward normal is the center of its empty
cap.  Torus: the sample is tiled 3x3, a planar Delaunay triangulation of the
tiled points is computed, and the triangles whose circumcenter falls in the
central fundamental domain are kept, each periodic triangle having exactly
one such representative while every circumradius stays below min(a, b)/2.

Only the tiled points within a margin m of the domain are triangulated.
The first margin is m = 3r, where r = sqrt((log n + c) / (pi n / area))
with c = WINDOW_C is a radius the largest empty disk of n uniform points
rarely reaches (a given disk of radius r is empty with probability
e^-c / n).  The windowed result is exact whenever it certifies itself: a
kept disk of radius below m/3 lies inside the window, so it is empty of
every tiled point and is a true Delaunay face; 2n such faces are then all
of them; and the face across each side is a translate of a kept one, so
its third vertex lies within m of the domain and the vertex across the
side is the true one.  When a kept radius reaches m/3, the count is not
2n or a kept face lies on the window's hull, the margin doubles (6r, 12r,
...) and the wider window is tried, so a sample with one large hole still
triangulates a few n points instead of 9n.  Once the margin reaches
min(a, b)/2 the full nine-copy tiling is triangulated instead, with its
own checks.  Only an exactly cocircular quadruple, which the emptiness
check rejects either way, may be split along another diagonal.

Construction always cross-checks itself: the Euler count must match the
surface and every kept circumdisk must be verifiably empty and unambiguous
within ``GENERIC_TOL``; violations raise ``DegenerateSample`` so that Monte
Carlo drivers can resample (the probability of needing to decays faster than
any power of the intensity).  The emptiness check is local: by the Delaunay
lemma (Delaunay 1934; Lawson 1977) a triangulation whose every edge is
locally Delaunay is globally Delaunay, so each face is tested only against
the three vertices across its sides, and a cocircular quadruple shows up as
a tie in that same test.  The check is linear in the sample size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, Delaunay as PlanarDelaunay

from .errors import DegenerateSample, DegenerateTriple
from .reports import Report
from .surfaces import PointSample, _planar_circumcenters, circumdisk, geodesic_distance

GENERIC_TOL = 1e-10  # distance within which a point counts as on a circumcircle
EXHAUSTIVE_LIMIT = 60  # largest sample checked for cocircularity over every triple
WINDOW_C = 10.0  # the window radius r is sqrt((log n + WINDOW_C) / (pi n / area))


@dataclass(frozen=True)
class DelaunayComplex:
    """Geodesic Delaunay triangulation with per-face circumdisk data."""

    sample: PointSample
    faces: np.ndarray        # (F, 3) indices into the sample
    opposite: np.ndarray     # (F, 3) sample index of the vertex across side j
    centers: np.ndarray      # (F, d) circumdisk centers, in the fundamental domain
    radii: np.ndarray        # (F,) geodesic circumradii

    @property
    def face_count(self) -> int:
        return int(self.faces.shape[0])

    @property
    def vertex_count(self) -> int:
        return self.sample.count

    @property
    def edge_count(self) -> int:
        return 3 * self.face_count // 2

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count


def delaunay(sample: PointSample) -> DelaunayComplex:
    """Build the Delaunay triangulation of a sample (>= 4 points), checked
    empty and generic within ``GENERIC_TOL``."""
    dc = _triangulate(sample)
    _check_generic(dc)
    return dc


def _triangulate(sample: PointSample) -> DelaunayComplex:
    """The triangulation, checked for its face count but not for emptiness."""
    if sample.count < 4:
        raise DegenerateSample(f"need at least 4 points, got {sample.count}")
    if sample.surface.kind == "sphere":
        return _sphere_delaunay(sample)
    return _torus_delaunay(sample)


def _opposite_vertices(simplices: np.ndarray, neighbors: np.ndarray, rows) -> np.ndarray:
    """Vertex across side j of each selected simplex.

    Side j is opposite corner j, and ``neighbors[:, j]`` (scipy's convention)
    shares its other two corners, so the third corner of the neighbour is its
    vertex sum minus theirs.  A side without a neighbour (-1) raises.
    """
    nbr = neighbors[rows]
    if np.any(nbr < 0):
        raise DegenerateSample("a face has no neighbour across one of its sides")
    own = simplices[rows]
    return simplices[nbr].sum(axis=-1) - own.sum(axis=-1, keepdims=True) + own


def _sphere_delaunay(sample: PointSample) -> DelaunayComplex:
    pts = sample.points
    n = pts.shape[0]
    try:
        hull = ConvexHull(pts)
    except Exception as exc:  # qhull errors on coincident/degenerate input
        raise DegenerateSample(f"convex hull failed: {exc}") from exc
    faces = hull.simplices
    if faces.shape[0] != 2 * n - 4:  # a triangulated hull of V vertices has 2V - 4 facets
        raise DegenerateSample(
            f"hull has {faces.shape[0]} facets, expected {2 * n - 4}"
        )
    normals = hull.equations[:, :3]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    cosr = np.clip((normals * pts[faces[:, 0]]).sum(axis=1), -1.0, 1.0)
    radii = np.arccos(cosr)
    return DelaunayComplex(
        sample=sample,
        faces=faces,
        opposite=_opposite_vertices(faces, hull.neighbors, slice(None)),
        centers=normals,
        radii=radii,
    )


def _torus_delaunay(sample: PointSample) -> DelaunayComplex:
    """Triangulate the tiled points near the domain, doubling the margin
    while the window cannot certify its own result; fall back to all nine
    copies once the margin reaches min(a, b)/2."""
    surf = sample.surface
    n = sample.count
    margin = 3.0 * np.sqrt((np.log(n) + WINDOW_C) * surf.area / (np.pi * n))
    while margin < surf.injectivity_radius:
        try:
            return _tiled_delaunay(sample, margin)
        except DegenerateSample:
            margin *= 2.0  # the window did not certify itself; widen it
    return _tiled_delaunay(sample, np.inf)


def _tiled_delaunay(sample: PointSample, margin: float) -> DelaunayComplex:
    """Planar Delaunay triangulation of the 3x3 tiling, cropped to the points
    within ``margin`` of [0,a) x [0,b) (all 9n when ``margin`` is inf).

    Keeps the faces whose circumcenter lies in the domain.  Raises when one
    of them has radius at least margin/3 or min(a,b)/2, when they are not
    2n, or when one has no neighbour across a side.
    """
    surf = sample.surface
    pts = sample.points
    n = pts.shape[0]
    a, b = surf.width, surf.height
    offsets = [
        np.array([dx, dy])
        for dx in (-a, 0.0, a)
        for dy in (-b, 0.0, b)
    ]
    big = np.vstack([pts + off for off in offsets])
    near = (
        (big[:, 0] >= -margin) & (big[:, 0] < a + margin)
        & (big[:, 1] >= -margin) & (big[:, 1] < b + margin)
    )
    big, src = big[near], np.tile(np.arange(n), 9)[near]
    try:
        tri = PlanarDelaunay(big)
    except Exception as exc:
        raise DegenerateSample(f"planar triangulation failed: {exc}") from exc

    coords = big[tri.simplices]
    centers, radii, _ = _planar_circumcenters(coords)
    keep = (
        np.isfinite(radii)
        & (centers[:, 0] >= 0.0) & (centers[:, 0] < a)
        & (centers[:, 1] >= 0.0) & (centers[:, 1] < b)
    )
    if np.any(radii[keep] >= margin / 3.0):
        raise DegenerateSample("a circumdisk reaches outside the window")
    if np.any(radii[keep] >= min(a, b) / 2.0):
        raise DegenerateSample(
            "a circumradius reaches min(a,b)/2; the 3x3 tiling is not faithful"
        )
    faces = src[tri.simplices[keep]]
    if faces.shape[0] != 2 * n:
        raise DegenerateSample(f"kept {faces.shape[0]} faces, expected {2 * n}")
    return DelaunayComplex(
        sample=sample,
        faces=faces,
        opposite=src[_opposite_vertices(tri.simplices, tri.neighbors, keep)],
        centers=centers[keep],
        radii=radii[keep],
    )


def _emptiness_flags(dc: DelaunayComplex) -> tuple[np.ndarray, np.ndarray]:
    """(F, 3) boolean masks for the vertex across each side of each face:
    inside the face's circumdisk by more than ``GENERIC_TOL``, and within
    ``GENERIC_TOL`` of its boundary.

    A vertex across a side that is also a corner of the face (a periodic copy
    on a small torus) is neither.  On the sphere the comparison runs on dot
    products (cos is monotone on [0, pi]), so no inverse trig is needed.
    """
    surf = dc.sample.surface
    across = dc.sample.points[dc.opposite]
    if surf.kind == "sphere":
        dots = (dc.centers[:, None, :] * across).sum(axis=-1)
        hi = np.cos(np.maximum(dc.radii - GENERIC_TOL, 0.0))[:, None]
        lo = np.cos(np.minimum(dc.radii + GENERIC_TOL, np.pi))[:, None]
        inside = dots > hi
        on_circle = (dots <= hi) & (dots >= lo)
    else:
        dist = geodesic_distance(surf, dc.centers[:, None, :], across)
        inside = dist < dc.radii[:, None] - GENERIC_TOL
        on_circle = np.abs(dist - dc.radii[:, None]) <= GENERIC_TOL
    other = (dc.opposite[:, :, None] != dc.faces[:, None, :]).all(axis=-1)
    return inside & other, on_circle & other


def verify_empty_disks(dc: DelaunayComplex) -> bool:
    """True when no sample point lies inside any face circumdisk by more
    than ``GENERIC_TOL``.

    Checked locally: no vertex across a side of a face lies that far inside
    that face's circumdisk, which by the Delaunay lemma leaves every
    circumdisk empty.
    """
    inside, _ = _emptiness_flags(dc)
    return not bool(inside.any())


def _check_generic(dc: DelaunayComplex) -> None:
    inside, on_circle = _emptiness_flags(dc)
    if inside.any():
        raise DegenerateSample("a sample point lies inside a circumdisk")
    if on_circle.any():
        raise DegenerateSample("four points are cocircular within tolerance")


@dataclass(frozen=True)
class DensityReport(Report):
    covering_ok: bool
    generic_ok: bool
    max_circumradius: float
    delta: float
    detail: str = ""


def _exhaustive_cocircular(sample: PointSample, delta: float) -> bool:
    """True when some 4 points lie within ``GENERIC_TOL`` of a common circle
    of radius < delta.

    Quartic in the sample size, so only used up to ``EXHAUSTIVE_LIMIT`` points.
    """
    surf = sample.surface
    pts = sample.points
    n = pts.shape[0]
    for i, j, k in combinations(range(n), 3):
        try:
            cd = circumdisk(surf, pts[[i, j, k]])
        except DegenerateTriple:
            continue
        if cd.radius >= delta:
            continue
        others = np.delete(np.arange(n), [i, j, k])
        d = geodesic_distance(surf, pts[others], cd.center)
        if np.any(np.abs(d - cd.radius) <= GENERIC_TOL):
            return True
    return False


def is_generically_delta_dense(sample: PointSample, delta: float) -> DensityReport:
    """Covering and genericity check at decision radius ``delta``.

    Covering holds when the largest empty disk (the largest Delaunay
    circumradius) stays below delta.  Genericity means no four points are
    cocircular within ``GENERIC_TOL`` at radius below delta: samples up to
    ``EXHAUSTIVE_LIMIT`` points are checked over every triple; larger ones
    through the empty circumdisks realized by the triangulation, each tested
    against the vertices across its sides, which by the Delaunay lemma
    decides emptiness and cocircularity for every sample point (a Poisson
    sample violates either check with probability zero).
    """
    if sample.count <= EXHAUSTIVE_LIMIT and sample.count >= 4:
        if _exhaustive_cocircular(sample, delta):
            return DensityReport(
                ok=False,
                covering_ok=False,
                generic_ok=False,
                max_circumradius=np.inf,
                delta=delta,
                detail="four points lie on a common circle of radius below delta",
            )
    if sample.count < 4:
        return DensityReport(
            ok=False,
            covering_ok=False,
            generic_ok=True,
            max_circumradius=np.inf,
            delta=delta,
            detail="too few points to triangulate, so some delta ball is empty",
        )
    try:
        dc = delaunay(sample)
    except DegenerateSample as exc:
        return DensityReport(
            ok=False,
            covering_ok=False,
            generic_ok=False,
            max_circumradius=np.inf,
            delta=delta,
            detail=str(exc),
        )
    rmax = float(dc.radii.max())
    covering = rmax < delta
    return DensityReport(
        ok=covering,
        covering_ok=covering,
        generic_ok=True,
        max_circumradius=rmax,
        delta=delta,
    )
