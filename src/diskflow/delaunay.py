"""Geodesic Delaunay triangulations by the empty-disk criterion.

Sphere: the convex hull of points on the unit sphere is exactly the Delaunay
triangulation; each hull facet's outward normal is the center of its empty
cap.  Torus: the sample is tiled 3x3, a planar Delaunay triangulation of the
tiled points is computed, and the triangles whose circumcenter falls in the
central fundamental domain are kept, each periodic triangle having exactly
one such representative while every circumradius stays below min(a, b)/2.

Only the tiled points within a margin m of the domain are triangulated.
The first margin is m = 2r, where r = sqrt((log n + c) / (pi n / area))
with c = WINDOW_C is a radius the largest empty disk of n uniform points
rarely reaches (a given disk of radius r is empty with probability
e^-c / n).  The windowed result is exact whenever its disks certify it.
When a disk lies strictly inside the window with ``GENERIC_TOL`` to spare,
every tiled point within ``GENERIC_TOL`` of it is a window point; so such a
disk of the windowed triangulation is empty of every tiled point, and its
face is a true Delaunay face.  When that holds for every kept face, 2n
such faces are all of them; when it also holds for the face across each
kept side, that face is the true neighbour, and its third vertex the true
vertex across the side.  When a kept disk or a disk across a kept side
reaches outside the window, the count is not 2n or a kept face lies on
the window's hull, the margin doubles (4r, 8r, ...) and the wider window
is tried, so a sample with one large hole near the domain's edge still
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
``is_generically_delta_dense`` takes both of its verdicts from one such
construction: genericity from this check, covering from the largest radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample
from .reports import Report
from .surfaces import PointSample, geodesic_distance

GENERIC_TOL = 1e-10  # distance within which a point counts as on a circumcircle
WINDOW_C = 10.0  # the window radius r is sqrt((log n + WINDOW_C) / (pi n / area))


# the triangulations call these by name, so replacing one on the module
# (a tracer, ``monkeypatch``) replaces what runs
def ConvexHull(points: np.ndarray):
    """scipy.spatial's ``ConvexHull`` of ``points``; the sphere's triangulator."""
    import scipy.spatial  # imported here: slow to load, and only Monte Carlo triangulates
    return scipy.spatial.ConvexHull(points)


def PlanarDelaunay(points: np.ndarray):
    """scipy.spatial's ``Delaunay`` of ``points``; the torus's triangulator."""
    import scipy.spatial  # imported here, as above
    return scipy.spatial.Delaunay(points)


@dataclass(frozen=True)
class DelaunayComplex:
    """Geodesic Delaunay triangulation with per-face circumdisk data."""

    sample: PointSample
    faces: np.ndarray        # (F, 3) indices into the sample
    opposite: np.ndarray     # (F, 3) sample index of the vertex across side j
    centers: np.ndarray      # (F, 3) unit vectors, or (F, 2) points of [0,a) x [0,b)
    radii: np.ndarray        # (F,) geodesic distance from each center to its corners

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
    """Triangulate the tiled points within 2r of the domain, doubling the
    margin while the window's disks cannot certify its result; fall back to
    all nine copies once the margin reaches min(a, b)/2."""
    surf = sample.surface
    n = sample.count
    margin = 2.0 * np.sqrt((np.log(n) + WINDOW_C) * surf.area / (np.pi * n))
    while margin < surf.injectivity_radius:
        try:
            return _tiled_delaunay(sample, margin)
        except DegenerateSample:
            margin *= 2.0  # the window did not certify itself; widen it
    return _tiled_delaunay(sample, np.inf)


def _planar_circumcenters(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters and radii of (S, 3, 2) planar triangles.

    A collinear triangle, whose divisor d (twice the cross product of the
    sides from the first vertex) is 0, gets a non-finite center and radius.
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
    return centers, radii


def _tiled_delaunay(sample: PointSample, margin: float) -> DelaunayComplex:
    """Planar Delaunay triangulation of the 3x3 tiling, cropped to the points
    within ``margin`` of [0,a) x [0,b) (all 9n when ``margin`` is inf).

    Keeps the faces whose circumcenter lies in the domain.  Raises when one
    of them has radius at least min(a,b)/2 or no neighbour across a side,
    when the circumdisk of a kept face or of a face across a kept side,
    widened by ``GENERIC_TOL``, does not lie strictly inside the window, or
    when the kept faces are not 2n.
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
    centers, radii = _planar_circumcenters(coords)
    keep = (
        np.isfinite(radii)
        & (centers[:, 0] >= 0.0) & (centers[:, 0] < a)
        & (centers[:, 1] >= 0.0) & (centers[:, 1] < b)
    )
    if np.any(radii[keep] >= min(a, b) / 2.0):
        raise DegenerateSample(
            "a circumradius reaches min(a,b)/2; the 3x3 tiling is not faithful"
        )
    opposite = src[_opposite_vertices(tri.simplices, tri.neighbors, keep)]
    disks = keep.copy()  # the kept faces and the faces across their sides
    disks[tri.neighbors[keep]] = True
    c, r = centers[disks], radii[disks, None] + GENERIC_TOL
    if not np.all((c - r > -margin) & (c + r < np.array([a, b]) + margin)):
        raise DegenerateSample("a circumdisk reaches outside the window")
    faces = src[tri.simplices[keep]]
    if faces.shape[0] != 2 * n:
        raise DegenerateSample(f"kept {faces.shape[0]} faces, expected {2 * n}")
    return DelaunayComplex(
        sample=sample,
        faces=faces,
        opposite=opposite,
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
    detail: str = ""


def is_generically_delta_dense(sample: PointSample, delta: float) -> DensityReport:
    """Covering and genericity at decision radius ``delta``, from one ``delaunay`` call.

    Covering holds when the largest Delaunay circumradius, the largest empty
    disk, is below delta.  Generic means no empty circumdisk has a fourth
    sample point within ``GENERIC_TOL`` of its circle, so the triangulation
    is unique; ``delaunay``'s local check decides that for every sample point.
    A sample it rejects fails both, with its reason as ``detail``, and so
    does a torus sample whose largest empty disk reaches min(a, b)/2; fewer
    than 4 points leave some delta ball empty and fail covering only.
    """
    if sample.count < 4:
        return DensityReport(
            False, False, True, np.inf,
            "too few points to triangulate, so some delta ball is empty",
        )
    try:
        rmax = float(delaunay(sample).radii.max())
    except DegenerateSample as exc:
        return DensityReport(False, False, False, np.inf, str(exc))
    return DensityReport(rmax < delta, rmax < delta, True, rmax)
