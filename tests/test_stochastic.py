import importlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diskflow.delaunay import (
    GENERIC_TOL,
    _emptiness_flags,
    _tiled_delaunay,
    _torus_delaunay,
    _triangulate,
    delaunay,
    is_generically_delta_dense,
    verify_empty_disks,
)
from diskflow.errors import BadDelta, DegenerateSample, DegenerateTriple
from diskflow.estimators import (
    CapRegion,
    RectRegion,
    _map_trials,
    chi_estimator,
    chi_quadrature,
    expected_faces_quadrature,
    face_defect_in_region,
)
from diskflow.surfaces import (
    PointSample,
    SurfaceModel,
    circumdisk,
    geodesic_distance,
    sample_poisson,
)

from oracles import (
    emptiness_decision,
    emptiness_flags_dense,
    expected_faces_quad,
    inscribed_triangle_mean_area,
    triangle_angle_integral,
    triangle_angle_integral_dblquad,
)

SPHERE = SurfaceModel.sphere()
TORUS = SurfaceModel.torus(1.0, 1.0)


# -- surfaces -------------------------------------------------------------------------


def test_surface_constants():
    assert SPHERE.area == 4 * np.pi
    assert SPHERE.gauss_curvature == 1.0
    assert SPHERE.injectivity_radius == np.pi
    assert np.isclose(SPHERE.delta_max, np.pi / 6)
    assert TORUS.area == 1.0
    assert TORUS.gauss_curvature == 0.0
    assert TORUS.injectivity_radius == 0.5
    assert np.isclose(TORUS.delta_max, 1 / 12)  # min(i/6, min(a,b)/4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_sizes_and_intensities_must_be_finite_and_positive(bad):
    for dims in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="torus dimensions must be finite and positive"):
            SurfaceModel.torus(*dims)
    with pytest.raises(ValueError, match="intensity must be finite and positive"):
        sample_poisson(SPHERE, bad, seed=0)
    for quadrature in (expected_faces_quadrature, chi_quadrature):
        with pytest.raises(ValueError, match="intensity must be finite and positive"):
            quadrature(SPHERE, bad, 0.3)


def test_sampling_determinism():
    s1 = sample_poisson(SPHERE, 10.0, seed=42)
    s2 = sample_poisson(SPHERE, 10.0, seed=42)
    assert np.array_equal(s1.points, s2.points)
    s3 = sample_poisson(SPHERE, 10.0, seed=43)
    assert s3.count != s1.count or not np.array_equal(s3.points, s1.points)


def test_poisson_count_mean():
    lam = 1000 / (4 * np.pi)
    counts = [sample_poisson(SPHERE, lam, seed=[0, i]).count for i in range(300)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 1000) < 3.5 * se


def test_sphere_points_unit_norm():
    s = sample_poisson(SPHERE, 20.0, seed=1)
    assert np.allclose(np.linalg.norm(s.points, axis=1), 1.0)


def test_torus_points_in_domain():
    t = SurfaceModel.torus(2.0, 3.0)
    s = sample_poisson(t, 20.0, seed=1)
    assert np.all(s.points >= 0)
    assert np.all(s.points[:, 0] < 2.0) and np.all(s.points[:, 1] < 3.0)


def test_empty_region_law():
    # P(fixed cap of area a is empty) = exp(-lambda a), within Monte Carlo error
    lam = 100 / (4 * np.pi)
    cap_area = 0.4
    cos_r = 1 - cap_area / (2 * np.pi)
    trials = 1500
    hits = 0
    for i in range(trials):
        pts = sample_poisson(SPHERE, lam, seed=[99, i]).points
        if pts.size == 0 or not np.any(pts[:, 2] >= cos_r):
            hits += 1
    p = hits / trials
    target = np.exp(-lam * cap_area)
    se = np.sqrt(target * (1 - target) / trials)
    assert abs(p - target) < 3.5 * se


def test_geodesic_distance_torus_wraps():
    d = geodesic_distance(TORUS, np.array([0.05, 0.5]), np.array([0.95, 0.5]))
    assert np.isclose(d, 0.1)


# -- circumdisks ----------------------------------------------------------------------


def test_sphere_circumdisk_recovery():
    r = 0.4
    angs = [0.3, 2.0, 4.5]
    pts = np.array(
        [[np.sin(r) * np.cos(a), np.sin(r) * np.sin(a), np.cos(r)] for a in angs]
    )
    cd = circumdisk(SPHERE, pts)
    assert np.allclose(cd.center, [0, 0, 1], atol=1e-12)
    assert np.isclose(cd.radius, r)
    assert np.isclose(cd.area, 2 * np.pi * (1 - np.cos(r)))


def test_torus_circumdisk_recovery():
    c = np.array([0.5, 0.5])
    angs = [0.3, 2.0, 4.5]
    pts = np.array([c + 0.1 * np.array([np.cos(a), np.sin(a)]) for a in angs])
    cd = circumdisk(TORUS, pts)
    assert np.allclose(cd.center, c, atol=1e-12)
    assert np.isclose(cd.radius, 0.1)
    assert np.isclose(cd.area, np.pi * 0.01)


def test_torus_circumdisk_across_wrap():
    c = np.array([0.02, 0.5])
    angs = [0.5, 2.5, 4.0]
    pts = np.mod(
        np.array([c + 0.05 * np.array([np.cos(a), np.sin(a)]) for a in angs]), 1.0
    )
    cd = circumdisk(TORUS, pts)
    assert np.isclose(cd.radius, 0.05)


def test_flat_limit_area_ratio():
    for r in (0.2, 0.02, 0.002):
        ratio = SPHERE.disk_area(r) / (np.pi * r**2)
        assert abs(ratio - 1) < r**2
    assert TORUS.disk_area(0.01) == np.pi * 0.0001


def test_degenerate_triple():
    pts = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=float)
    with pytest.raises(DegenerateTriple):
        circumdisk(SPHERE, pts)
    col = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
    with pytest.raises(DegenerateTriple):
        circumdisk(TORUS, col)


# -- Delaunay -------------------------------------------------------------------------


def test_tetrahedral_points():
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    dc = delaunay(PointSample(SPHERE, v, 1.0, 0))
    assert (dc.face_count, dc.edge_count, dc.vertex_count) == (4, 6, 4)
    assert dc.chi == 2
    assert verify_empty_disks(dc)


def test_sphere_euler_identity_runs():
    for i in range(5):
        s = sample_poisson(SPHERE, 300 / (4 * np.pi), seed=[3, i])
        dc = delaunay(s)
        assert dc.face_count == 2 * dc.vertex_count - 4
        assert dc.chi == 2
        assert verify_empty_disks(dc)


def test_torus_euler_identity_runs():
    for i in range(5):
        s = sample_poisson(TORUS, 300.0, seed=[4, i])
        dc = delaunay(s)
        assert dc.face_count == 2 * dc.vertex_count
        assert dc.chi == 0
        assert verify_empty_disks(dc)


def test_too_few_points():
    s = PointSample(SPHERE, np.array([[0.0, 0, 1], [0, 1, 0]]), 1.0, 0)
    with pytest.raises(DegenerateSample):
        delaunay(s)


def test_cocircular_quadruple_rejected():
    r = 0.3
    angs = [0.1, 1.3, 2.9, 5.0]
    circle = np.array(
        [[np.sin(r) * np.cos(a), np.sin(r) * np.sin(a), np.cos(r)] for a in angs]
    )
    fill = np.array([[0, 0, -1.0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    pts = np.vstack([circle, fill])
    with pytest.raises(DegenerateSample):
        delaunay(PointSample(SPHERE, pts, 1.0, 0))


def _seam_circle_sample():
    """Four torus points on a circle of radius 0.1 about (0.03, 0.5), which
    crosses the x = 0 seam, plus filler points kept off the circle's disk."""
    rng = np.random.default_rng(0)
    center = np.array([0.03, 0.5])
    angles = np.array([0.4, 2.0, 3.6, 5.2])
    circle = np.mod(center + 0.1 * np.column_stack([np.cos(angles), np.sin(angles)]), 1.0)
    fill = rng.uniform(0.0, 1.0, size=(200, 2))
    fill = fill[geodesic_distance(TORUS, fill, center) > 0.12]
    return PointSample(TORUS, np.vstack([circle, fill]), 1.0, 0)


def _assert_local_matches_dense(sample):
    """The local and dense checks make the same decision; returns it."""
    dc = _triangulate(sample)
    local = emptiness_decision(*_emptiness_flags(dc))
    dense = emptiness_decision(*emptiness_flags_dense(dc, GENERIC_TOL))
    assert local == dense
    assert verify_empty_disks(dc) == (local != "inside")
    if local == "accept":
        assert delaunay(sample).face_count == dc.face_count
    else:
        with pytest.raises(DegenerateSample, match=local):
            delaunay(sample)
    return local


def test_cocircular_quadruple_on_torus_seam_rejected():
    sample = _seam_circle_sample()
    assert np.ptp(sample.points[:4, 0]) > 0.5  # the circle wraps around x = 0
    assert _assert_local_matches_dense(sample) == "cocircular"
    # the window and the full tiling may cut the quadrilateral on the circle
    # along different diagonals; both reject it and agree on every other face
    window = _tiled_delaunay(sample, 3.0 * _window_radius(sample))
    full = _tiled_delaunay(sample, np.inf)
    for dc in (window, full):
        assert emptiness_decision(*_emptiness_flags(dc)) == "cocircular"

    def off_circle(dc):
        return {tuple(sorted(f)) for f in dc.faces.tolist() if not set(f) <= {0, 1, 2, 3}}

    assert off_circle(window) == off_circle(full)


def _window_radius(sample):
    """The window radius r at the module's current ``WINDOW_C``."""
    c = importlib.import_module("diskflow.delaunay").WINDOW_C
    n = sample.count
    return np.sqrt((np.log(n) + c) * sample.surface.area / (np.pi * n))


def _canonical_rows(dc):
    """(face, opposite) rows with each face rotated to start at its smallest
    vertex, sorted; centers and radii in the same order."""
    start = np.argmin(dc.faces, axis=1)
    turn = (start[:, None] + np.arange(3)) % 3
    rows = np.hstack([np.take_along_axis(dc.faces, turn, 1), np.take_along_axis(dc.opposite, turn, 1)])
    order = np.lexsort(rows.T[::-1])
    return rows[order], dc.centers[order], dc.radii[order]


def _assert_window_matches_full_tiling(sample):
    """``_torus_delaunay`` gives the full 3x3 tiling's faces, opposite
    vertices, centers and radii, or raises its error.  The windows it tries
    have margins 3r, 6r, 12r, ..., then possibly inf.  Returns "window" when
    a cropped triangulation was accepted, "fallback" when every window
    declined and "full" when the first window was too wide to try."""
    module = importlib.import_module("diskflow.delaunay")
    margins = []

    def spy(sample, margin):
        margins.append(margin)
        return _tiled_delaunay(sample, margin)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_tiled_delaunay", spy)
        try:
            got = _torus_delaunay(sample)
        except DegenerateSample as exc:
            got = exc
    try:
        full = _tiled_delaunay(sample, np.inf)
    except DegenerateSample as exc:
        assert isinstance(got, DegenerateSample) and str(got) == str(exc)
    else:
        assert not isinstance(got, DegenerateSample)
        rows, centers, radii = _canonical_rows(got)
        full_rows, full_centers, full_radii = _canonical_rows(full)
        np.testing.assert_array_equal(rows, full_rows)
        np.testing.assert_allclose(centers, full_centers, rtol=0, atol=1e-12)
        np.testing.assert_allclose(radii, full_radii, rtol=0, atol=1e-12)
    windows = [m for m in margins if np.isfinite(m)]
    assert windows == [3.0 * _window_radius(sample) * 2.0**k for k in range(len(windows))]
    assert all(m < sample.surface.injectivity_radius for m in windows)
    assert margins[len(windows):] in ([], [np.inf])
    if not windows:
        return "full"
    return "fallback" if margins[-1] == np.inf else "window"


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_window_triangulation_matches_full_tiling(t, seed):
    sample = sample_poisson(TORUS, 4.0 * 1000.0 ** t, seed=seed)
    assume(sample.count >= 4)  # fewer points never reach the tiling
    _assert_window_matches_full_tiling(sample)


def test_window_declines_a_circumdisk_wider_than_its_margin():
    # a hole of radius rho leaves a Delaunay face of radius about rho: at
    # rho = 1.5 r the 3r window declines and the 6r window certifies, at
    # rho = 2.74 r both decline and 12r reaches min(a,b)/2, so the full
    # tiling decides
    sample = sample_poisson(TORUS, 2000.0, seed=24)
    assert _assert_window_matches_full_tiling(sample) == "window"
    for rho, kind in ((0.08, "window"), (0.15, "fallback")):
        hole = geodesic_distance(TORUS, sample.points, np.array([0.5, 0.5])) > rho
        holed = PointSample(TORUS, sample.points[hole], 1.0, 0)
        r = _window_radius(holed)
        assert 1.25 * r < rho and 12.0 * r >= TORUS.injectivity_radius
        with pytest.raises(DegenerateSample, match="outside the window"):
            _tiled_delaunay(holed, 3.0 * r)
        assert _assert_window_matches_full_tiling(holed) == kind
        rmax = delaunay(holed).radii.max()
        assert r < rmax and (rmax < 2.0 * r) == (kind == "window")


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_doubled_windows_match_full_tiling(t, seed):
    # at WINDOW_C = 0 a 3r window often declines, so the 6r, 12r, ... windows
    # and the full tiling decide
    sample = sample_poisson(TORUS, 4.0 * 1000.0 ** t, seed=seed)
    assume(sample.count >= 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("diskflow.delaunay"), "WINDOW_C", 0.0)
        _assert_window_matches_full_tiling(sample)


def test_low_window_constant_exercises_doubled_windows():
    # the fuzz above is only as good as its declines: at n ~ 1000 most 3r
    # windows decline and a doubled one certifies
    kinds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("diskflow.delaunay"), "WINDOW_C", 0.0)
        for i in range(10):
            sample = sample_poisson(TORUS, 1000.0, seed=[33, i])
            r = _window_radius(sample)
            try:
                _tiled_delaunay(sample, 3.0 * r)
            except DegenerateSample:
                kinds.append(_assert_window_matches_full_tiling(sample))
    assert kinds.count("window") >= 5


def test_five_cocircular_sphere_points_rejected():
    r = 0.3
    circle = np.array(
        [[np.sin(r) * np.cos(a), np.sin(r) * np.sin(a), np.cos(r)]
         for a in [0.1, 1.3, 2.9, 4.0, 5.0]]
    )
    fill = np.array([[0, 0, -1.0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    sample = PointSample(SPHERE, np.vstack([circle, fill]), 1.0, 0)
    assert _assert_local_matches_dense(sample) == "cocircular"
    # the pentagon is cut into three faces; one of them has two other
    # cocircular points but only one of them across a side
    dc = _triangulate(sample)
    local = _emptiness_flags(dc)[1].sum(axis=1)
    dense = emptiness_flags_dense(dc, GENERIC_TOL)[1].sum(axis=1)
    assert (local > 0).sum() == (dense > 0).sum() == 3
    assert np.any(local < dense)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(SPHERE, 0.5, 30.0), (TORUS, 4.0, 300.0)]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_local_check_matches_dense_check_on_random_samples(case, t, seed):
    surface, lo, hi = case
    sample = sample_poisson(surface, lo * (hi / lo) ** t, seed=seed)
    try:
        _triangulate(sample)
    except DegenerateSample:
        return  # rejected before any emptiness check
    _assert_local_matches_dense(sample)


def test_local_check_skips_periodic_copies_of_face_vertices():
    # on a torus with a handful of points the vertex across a side can be
    # a copy of one of the face's own vertices; the dense check never tests
    # a face against its own vertices, and neither may the local one
    copies = 0
    for i in range(60):
        sample = sample_poisson(TORUS, 12.0, seed=[21, i])
        try:
            dc = _triangulate(sample)
        except DegenerateSample:
            continue
        copies += int((dc.opposite[:, :, None] == dc.faces[:, None, :]).any(axis=-1).sum())
        _assert_local_matches_dense(sample)
        _assert_window_matches_full_tiling(sample)
    assert copies > 0


def test_opposite_vertex_completes_the_neighbouring_face():
    for sample in (sample_poisson(SPHERE, 40.0, seed=22), sample_poisson(TORUS, 60.0, seed=22)):
        dc = delaunay(sample)
        # a side and the vertex across it form a face, so as an unordered
        # triple it occurs among the faces (mod n on the torus)
        sides = np.stack([np.roll(dc.faces, -1, axis=1), np.roll(dc.faces, -2, axis=1)], axis=-1)
        triples = np.concatenate([sides, dc.opposite[:, :, None]], axis=-1).reshape(-1, 3)
        known = {tuple(sorted(f)) for f in dc.faces.tolist()}
        assert all(tuple(sorted(q)) in known for q in triples.tolist())


def test_torus_face_without_neighbour_is_degenerate(monkeypatch):
    module = importlib.import_module("diskflow.delaunay")
    planar = module.PlanarDelaunay

    def cut(points):
        # every simplex loses its neighbour across side 0
        tri = planar(points)
        neighbors = tri.neighbors.copy()
        neighbors[:, 0] = -1
        return SimpleNamespace(simplices=tri.simplices, neighbors=neighbors)

    monkeypatch.setattr(module, "PlanarDelaunay", cut)
    # at 1000 points the cropped window is tried first and declines
    for intensity in (60.0, 1000.0):
        with pytest.raises(DegenerateSample, match="no neighbour"):
            delaunay(sample_poisson(TORUS, intensity, seed=23))


def test_torus_face_count_short_of_2n_is_degenerate(monkeypatch):
    module = importlib.import_module("diskflow.delaunay")
    planar = module._planar_circumcenters

    def lose_one(coords):
        # the first circumcenter in the domain moves out of it
        centers, radii, d = planar(coords)
        first = np.flatnonzero(((centers >= 0.0) & (centers < 1.0)).all(axis=1))[0]
        centers[first] = -1.0
        return centers, radii, d

    monkeypatch.setattr(module, "_planar_circumcenters", lose_one)
    sample = sample_poisson(TORUS, 1000.0, seed=25)
    with pytest.raises(DegenerateSample, match=f"kept {2 * sample.count - 1} faces"):
        delaunay(sample)


def test_density_report_dense_sample():
    s = sample_poisson(SPHERE, 5000 / (4 * np.pi), seed=5)
    rep = is_generically_delta_dense(s, np.pi / 6)
    assert rep.ok and rep.covering_ok and rep.generic_ok
    assert rep.max_circumradius < np.pi / 6


def test_density_report_constructed_cocircular():
    r = 0.3
    angs = [0.1, 1.3, 2.9, 5.0]
    circle = np.array(
        [[np.sin(r) * np.cos(a), np.sin(r) * np.sin(a), np.cos(r)] for a in angs]
    )
    fill = np.array([[0, 0, -1.0], [1, 0, 0], [0, 1, 0]])
    s = PointSample(SPHERE, np.vstack([circle, fill]), 1.0, 0)
    rep = is_generically_delta_dense(s, 0.5)
    assert not rep.ok and not rep.generic_ok


def test_density_report_three_points():
    pts = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = is_generically_delta_dense(PointSample(SPHERE, pts, 1.0, 0), 0.2)
    assert not rep.ok and not rep.covering_ok and rep.generic_ok


# -- estimators -----------------------------------------------------------------------


def test_chi_estimator_sphere():
    est = chi_estimator(SPHERE, 500 / (4 * np.pi), trials=60, seed=7)
    assert all(r.faces == 2 * r.n - 4 for r in est.records)
    assert abs(est.mean - 2) < 3 * est.std_error


def test_chi_estimator_torus():
    est = chi_estimator(TORUS, 500.0, trials=60, seed=7)
    assert all(r.faces == 2 * r.n for r in est.records)
    assert abs(est.mean - 0) < 3 * est.std_error


def test_chi_estimator_mean_does_not_shift_with_intensity():
    a = chi_estimator(SPHERE, 250 / (4 * np.pi), trials=60, seed=8)
    b = chi_estimator(SPHERE, 500 / (4 * np.pi), trials=60, seed=9)
    joint_se = np.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) < 3.5 * joint_se


def test_chi_estimator_deterministic():
    a = chi_estimator(SPHERE, 100 / (4 * np.pi), trials=10, seed=123)
    b = chi_estimator(SPHERE, 100 / (4 * np.pi), trials=10, seed=123)
    assert [r.estimator for r in a.records] == [r.estimator for r in b.records]


def test_defect_torus_rectangle():
    est = face_defect_in_region(
        TORUS, 400.0, trials=40, region=RectRegion(0.1, 0.1, 0.6, 0.5), seed=10
    )
    assert abs(est.estimate - 0.0) < 3 * est.std_error


def test_defect_full_sphere():
    est = face_defect_in_region(
        SPHERE, 300 / (4 * np.pi), trials=40, region=CapRegion(4 * np.pi), seed=11
    )
    # full-sphere counts are exactly F = 2n - 4, so the estimate concentrates at 4
    assert abs(est.estimate - 4.0) < 3 * est.std_error


def test_quadrature_constant_matches_classical_value():
    assert abs(inscribed_triangle_mean_area() - 3 / (2 * np.pi)) < 1e-8
    # Monte Carlo oracle for the same constant
    rng = np.random.default_rng(12)
    th = rng.uniform(0, 2 * np.pi, size=(200000, 3))
    area = 0.5 * np.abs(
        np.sin(th[:, 1] - th[:, 0])
        + np.sin(th[:, 2] - th[:, 1])
        + np.sin(th[:, 0] - th[:, 2])
    )
    mc = area.mean()
    se = area.std(ddof=1) / np.sqrt(area.size)
    assert abs(inscribed_triangle_mean_area() - mc) < 4 * se


def test_quadrature_constant_matches_its_double_integral():
    # the closed form 12 pi^2 against dblquad at tolerance 1e-11
    ref = triangle_angle_integral_dblquad()
    assert abs(triangle_angle_integral() - ref) <= 1e-9 * ref
    assert triangle_angle_integral() == 12 * np.pi**2


def test_quadrature_estimator_near_two():
    lam = 200 / (4 * np.pi)
    ef = expected_faces_quadrature(SPHERE, lam, np.pi / 6)
    assert 1.9 <= 4 * np.pi * lam - ef / 2 <= 2.1
    # dense samples: the density's peak near r = 0 is about 1/sqrt(lambda) wide
    for lam in (1e5, 1e6, 1e8):
        ef = expected_faces_quadrature(SPHERE, lam, np.pi / 6)
        assert abs(4 * np.pi * lam - ef / 2 - 2) < 1e-5, lam


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.1, 1, 15.915494, 1e3, 1e5, 1e6, 1e8, 1e10, 1e12])
@pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1, 0.5235987])
def test_quadrature_closed_form_matches_its_integral(lam, delta):
    ref = expected_faces_quad(lam, delta)
    assert abs(expected_faces_quadrature(SPHERE, lam, delta) - ref) <= 1e-12 * ref


def test_quadrature_delta_validation():
    with pytest.raises(BadDelta):
        expected_faces_quadrature(SPHERE, 10.0, np.pi)
    with pytest.raises(BadDelta):
        expected_faces_quadrature(TORUS, 10.0, 0.05)


def test_resampling_counts_degenerate_trials():
    # intensity so low that 4-point samples are rare: trials must still finish
    est = chi_estimator(SPHERE, 6 / (4 * np.pi), trials=5, seed=13)
    assert len(est.records) == 5
    assert est.resampled >= 0


def test_fixed_count_sampling_hook():
    from oracles import sample_fixed_count

    s = sample_fixed_count(SPHERE, 40, seed=14)
    assert s.count == 40
    dc = delaunay(s)
    assert dc.face_count == 2 * 40 - 4


def test_parallel_jobs_match_sequential():
    seq = chi_estimator(SPHERE, 200 / (4 * np.pi), trials=8, seed=15, jobs=1)
    par = chi_estimator(SPHERE, 200 / (4 * np.pi), trials=8, seed=15, jobs=2)
    assert [r.estimator for r in seq.records] == [r.estimator for r in par.records]


@pytest.mark.parametrize(
    "surface, intensity, region",
    [(TORUS, 300.0, RectRegion(0.1, 0.2, 0.6, 0.9)), (SPHERE, 200 / (4 * np.pi), CapRegion(2.0))],
    ids=["torus-rect", "sphere-cap"],
)
def test_parallel_defect_matches_sequential(surface, intensity, region):
    seq = face_defect_in_region(surface, intensity, 8, region, seed=16, jobs=1)
    par = face_defect_in_region(surface, intensity, 8, region, seed=16, jobs=2)
    np.testing.assert_array_equal(seq.counts, par.counts)
    assert (seq.estimate, seq.std_error) == (par.estimate, par.std_error)


def test_parallel_torus_chi_matches_sequential():
    seq = chi_estimator(TORUS, 300.0, trials=8, seed=17, jobs=1)
    par = chi_estimator(TORUS, 300.0, trials=8, seed=17, jobs=2)
    assert seq.records == par.records
    assert (seq.mean, seq.std_error, seq.resampled) == (par.mean, par.std_error, par.resampled)


def test_exhausted_resamples_raise_the_same_error_in_parallel(monkeypatch):
    # trials 1 and 3 never triangulate; the first of them is named under
    # either job count, whichever thread fails first
    import diskflow.estimators as estimators

    def flaky(sample):
        if sample.seed[1] in (1, 3):
            raise DegenerateSample("forced")
        return delaunay(sample)

    monkeypatch.setattr(estimators, "delaunay", flaky)
    messages = []
    for jobs in (1, 2):
        with pytest.raises(DegenerateSample) as info:
            chi_estimator(TORUS, 50.0, trials=4, seed=18, jobs=jobs)
        messages.append(str(info.value))
    assert messages == ["trial 1 failed 100 consecutive resamples"] * 2


@pytest.mark.parametrize("extra", ["interior", "duplicate", "near-duplicate"])
def test_sphere_point_off_the_hull_is_degenerate(extra):
    # a triangulated hull of V vertices has 2V - 4 facets, so a point that
    # is not a vertex leaves 2n - 6 and the facet count rejects the sample
    pts = sample_poisson(SPHERE, 40 / (4 * np.pi), seed=31).points
    added = {
        "interior": 0.5 * pts[0],
        "duplicate": pts[0],
        "near-duplicate": pts[0] + np.array([1e-15, 0.0, 0.0]),
    }[extra]
    n = pts.shape[0] + 1
    sample = PointSample(SPHERE, np.vstack([pts, added]), 1.0, 0)
    with pytest.raises(DegenerateSample, match=f"hull has {2 * n - 6} facets, expected {2 * n - 4}"):
        delaunay(sample)


@pytest.mark.parametrize(
    "jobs, trials, cores, started",
    [(8, 3, 4, [3]), (8, 20, 2, [2]), (3, 20, 8, [3]), (2, 20, None, []),
     (1, 5, 4, []), (6, 1, 8, [])],
)
def test_map_trials_starts_one_worker_per_trial_and_core(jobs, trials, cores, started,
                                                         monkeypatch):
    import concurrent.futures
    import os

    seen = []

    class RecordingPool:  # runs inline, so no thread is started
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    if cores is None:  # neither an affinity mask nor a core count: one core
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:  # the affinity mask counts, not the machine's cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _map_trials(abs, list(range(-trials, 0)), jobs) == list(range(trials, 0, -1))
    assert seen == started
