"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output summary).  Tolerances and instance sizes are pinned here
and nowhere else.
"""

import functools
import time

import numpy as np
import pytest

from diskflow.angles import (
    AngleSystem,
    ConformalClassSpec,
    all_corner_angles,
    edge_psi,
    find_negative_delaunay,
    is_delaunay,
    partials_from_angles,
)
from diskflow.cli import run as cli_run
from diskflow.errors import Infeasible
from diskflow.estimators import (
    CapRegion,
    chi_estimator,
    expected_faces_quadrature,
    face_defect_in_region,
)
from diskflow.hyperbolic import (
    class_hessian,
    log_half_cosh_minus_one,
)
from diskflow.smoothflow import (
    curvature_h,
    evaluate_Ig,
    gradient_Ig,
    log_ricci_flow,
    mean_zero,
    teleport,
)
from diskflow.surfaces import SurfaceModel
from diskflow.uniformize import uniformize

from helpers import octahedron, random_class_spec, random_complex, vertex_sum_matrix
from oracles import (
    class_basis,
    hessian_Ig,
    is_negatively_curved,
    is_teleportable_bruteforce,
    prism_gradient,
    prism_volume_path,
    true_prism_volume,
    vertex_angle_sums,
)
from test_smoothflow import random_mixed_sign_mesh, random_negative_mesh


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")

        return wrapper

    return deco


@criterion(1, "partials/angles roundtrip and class-direction preservation")
def test_criterion_1_angle_algebra():
    rng = np.random.default_rng(101)
    # 1000 random faces: roundtrip exact to 1e-12
    from oracles import corner_angles
    from diskflow.complexes import pillow

    T2 = pillow()
    worst = 0.0
    for _ in range(1000):
        tri = rng.uniform(0.05, np.pi - 0.05, size=3)
        x = partials_from_angles(T2, np.array([tri, tri]))
        back = np.asarray(corner_angles(x, 0))
        worst = max(worst, float(np.max(np.abs(back - tri))))
    assert worst < 1e-12

    # moving along the span of the class basis preserves vertex sums and
    # every per-edge value to 1e-12
    from helpers import random_angle_system

    for F in (6, 8, 10):
        T = random_complex(rng, F)
        x = random_angle_system(T, rng)
        B = class_basis(T)
        z = rng.uniform(-0.5, 0.5, size=T.edge_count)
        y = AngleSystem(T, x.psi + B.T @ z)
        assert np.max(np.abs(vertex_angle_sums(y) - vertex_angle_sums(x))) < 1e-12
        assert np.max(np.abs(edge_psi(y) - edge_psi(x))) < 1e-12


@criterion(2, "prism volume gradient, one-form exactness, path independence")
def test_criterion_2_prism_gradient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)

    def random_triples(n):
        out = []
        while len(out) < n:
            t = rng.uniform(0.1, 1.6, size=3)
            if t.sum() < 0.97 * np.pi:
                out.append(t)
        return out

    # the sign convention is pinned by an independent oracle: finite
    # differences of the decomposition volume match +log((cosh l - 1)/2)
    for trip in random_triples(3):
        angs = np.asarray(trip)
        psi = angs.sum() / 2 - angs
        h = 1e-5
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            ap = (psi + dp).sum() - (psi + dp)
            am = (psi - dp).sum() - (psi - dp)
            fd = (true_prism_volume(*ap) - true_prism_volume(*am)) / (2 * h)
            assert abs(fd - log_half_cosh_minus_one(angs)[i]) < 1e-5

    # gradient of the path-integral volume, 100 random triples, rel 1e-6
    h = 1e-4
    for trip in random_triples(100):
        angs = np.asarray(trip)
        psi = angs.sum() / 2 - angs
        g = prism_gradient(*trip)
        fd = np.empty(3)
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            ap = (psi + dp).sum() - (psi + dp)
            am = (psi - dp).sum() - (psi - dp)
            fd[i] = (
                prism_volume_path(*ap, epsabs=1e-12)
                - prism_volume_path(*am, epsabs=1e-12)
            ) / (2 * h)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6

    # one-form exactness: mixed partials symmetric to rel 1e-6
    for trip in random_triples(20):
        psi = np.asarray(trip).sum() / 2 - np.asarray(trip)
        J = np.empty((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = 1e-6
            up = (psi + dp).sum() - (psi + dp)
            dn = (psi - dp).sum() - (psi - dp)
            J[:, j] = (
                log_half_cosh_minus_one(up) - log_half_cosh_minus_one(dn)
            ) / 2e-6
        assert np.max(np.abs(J - J.T)) / np.max(np.abs(J)) < 1e-6

    # path independence to 1e-8
    for trip in random_triples(10):
        via = tuple(np.asarray(random_triples(1)[0]))
        assert abs(
            prism_volume_path(*trip) - prism_volume_path(*trip, via=via)
        ) < 1e-8

    assert time.perf_counter() - t0 < 30.0


@criterion(3, "class Hessian negative definite on the genus-2 complex, F=24")
def test_criterion_3_concavity(canonical24_spec):
    rng = np.random.default_rng(103)
    T = canonical24_spec.complex
    y0 = find_negative_delaunay(canonical24_spec)
    A = vertex_sum_matrix(T)
    from scipy.linalg import null_space

    K = null_space(A)
    checked = 0
    while checked < 20:
        z = rng.normal(scale=0.02, size=K.shape[1])
        y = AngleSystem(T, y0.psi + K @ z)
        if not (is_delaunay(y).ok and is_negatively_curved(y).ok):
            continue
        M = class_hessian(y)
        assert np.linalg.eigvalsh(M).max() < 0
        checked += 1


@criterion(4, "discrete uniformization on the genus-2 complex, F=24")
def test_criterion_4_uniformization(canonical24_spec):
    t0 = time.perf_counter()
    y1, st, trace = uniformize(canonical24_spec, tol=1e-10, max_iter=200)
    assert len(trace) <= 200
    assert trace[-1].grad_inf < 1e-10
    assert trace[-1].residual < 1e-8
    assert abs(st.total_area - 4 * np.pi) < 1e-9

    rng = np.random.default_rng(104)
    T = canonical24_spec.complex
    B = class_basis(T)
    y0 = find_negative_delaunay(canonical24_spec)
    pert = AngleSystem(T, y0.psi + B.T @ (0.01 * rng.standard_normal(T.edge_count)))
    assert is_delaunay(pert).ok and is_negatively_curved(pert).ok
    y2, _, _ = uniformize(canonical24_spec, start=pert, tol=1e-10, max_iter=200)
    assert np.max(np.abs(y1.psi - y2.psi)) < 1e-8
    assert time.perf_counter() - t0 < 10.0


@criterion(5, "LP teleportation agrees with the subset criterion")
def test_criterion_5_teleportation():
    rng = np.random.default_rng(105)

    # the all-pi/2 spec (valid on the octahedron, degree 4) is infeasible
    T8 = octahedron()
    with pytest.raises(Infeasible):
        find_negative_delaunay(ConformalClassSpec(T8, np.full(T8.edge_count, np.pi / 2)))

    compared = 0
    feasible = 0
    while compared < 50:
        T = random_complex(rng, int(rng.choice([4, 6, 8, 10, 12])))
        try:
            spec = random_class_spec(T, rng)
        except RuntimeError:
            continue
        rep = is_teleportable_bruteforce(spec)
        try:
            y = find_negative_delaunay(spec)
            margin = 1.0
        except Infeasible as exc:
            y = None
            margin = exc.margin if exc.margin is not None else -1.0
        if abs(rep.min_slack) < 1e-9 or abs(margin) < 1e-9:
            continue  # boundary tie: the strict inequality defines no verdict
        assert (margin > 0) == rep.ok
        if y is not None:
            # feasible outputs sit in the negative Delaunay set with margin
            ang = all_corner_angles(y)
            interior = min(ang.min(), (np.pi - ang.sum(axis=1)).min())
            assert interior >= 1e-6 - 1e-12
            assert is_delaunay(y).ok and is_negatively_curved(y).ok
            feasible += 1
        compared += 1
    assert feasible >= 5  # the harness saw both outcomes


@criterion(6, "Monte Carlo Euler characteristic on sphere and torus")
def test_criterion_6_gauss_bonnet_monte_carlo():
    t0 = time.perf_counter()
    sphere = SurfaceModel.sphere()
    est = chi_estimator(sphere, 500 / (4 * np.pi), trials=200, seed=106)
    assert all(r.faces == 2 * r.n - 4 for r in est.records)
    assert abs(est.mean - 2.0) < 3 * est.std_error

    torus = SurfaceModel.torus(1.0, 1.0)
    est_t = chi_estimator(torus, 500.0, trials=200, seed=106)
    assert all(r.faces == 2 * r.n for r in est_t.records)
    assert abs(est_t.mean - 0.0) < 3 * est_t.std_error
    assert time.perf_counter() - t0 < 120.0


@criterion(7, "local curvature defect of a spherical cap")
def test_criterion_7_face_defect():
    sphere = SurfaceModel.sphere()
    est = face_defect_in_region(
        sphere,
        2000 / (4 * np.pi),
        trials=400,
        region=CapRegion(0.8 * np.pi),
        seed=107,
    )
    assert abs(est.estimate - 0.8) < 3 * est.std_error


@criterion(8, "quadrature of the expected face count and its intensity trend")
def test_criterion_8_quadrature():
    sphere = SurfaceModel.sphere()
    delta = np.pi / 6

    def estimator_error(total_points):
        lam = total_points / (4 * np.pi)
        ef = expected_faces_quadrature(sphere, lam, delta)
        return abs(4 * np.pi * lam - ef / 2 - 2.0)

    assert estimator_error(200) < 0.1
    errs = [estimator_error(n) for n in (50, 100, 200, 400, 800)]
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


@criterion(9, "averaged functional: value, gradient, Hessian, invariance")
def test_criterion_9_smooth_functional(cone14_mesh, cone14_unit):
    rng = np.random.default_rng(109)
    mesh = random_negative_mesh(cone14_mesh, rng)
    V = mesh.vertex_count

    assert evaluate_Ig(cone14_unit, np.zeros(14)) == 0.0

    phi = 0.04 * mean_zero(mesh, rng.normal(size=V))
    G = gradient_Ig(mesh, phi)
    log_kh = np.log(np.abs(curvature_h(mesh, phi)))
    h = 1e-6
    for _ in range(10):
        psi = mean_zero(mesh, rng.normal(size=V))
        fd = (evaluate_Ig(mesh, phi + h * psi) - evaluate_Ig(mesh, phi - h * psi)) / (
            2 * h
        )
        assert abs(fd - G @ psi) < 1e-5 * max(1.0, abs(fd))
        sbp = -(mesh.masses * mesh.laplacian(psi)) @ log_kh
        assert abs(G @ psi - sbp) < 1e-8

    for _ in range(100):
        psi = mean_zero(mesh, rng.normal(size=V))
        assert hessian_Ig(mesh, phi, psi) < 0

    base = evaluate_Ig(mesh, phi)
    for c in (1.0, -0.3):
        assert abs(evaluate_Ig(mesh, phi + c) - base) < 1e-12


@criterion(10, "curvature flow recovers the constant metric")
def test_criterion_10_flow(cone14_unit):
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    for _ in range(3):
        phi0 = mean_zero(cone14_unit, 0.05 * rng.standard_normal(14))
        phi, rep = log_ricci_flow(cone14_unit, phi0)
        assert rep.converged and rep.iterations <= 5000
        assert rep.final_spread < 1e-6
        vals = [s.objective for s in rep.steps]
        assert all(vals[i + 1] >= vals[i] - 1e-13 for i in range(len(vals) - 1))
        # the background is the constant metric: recovered factor is a
        # constant shift of zero
        assert np.max(np.abs(phi)) < 1e-6
    assert time.perf_counter() - t0 < 60.0


@criterion(11, "metric teleportation on mixed-sign genus-2 meshes")
def test_criterion_11_metric_teleportation():
    rng = np.random.default_rng(111)
    for _ in range(20):
        mesh = random_mixed_sign_mesh(rng)
        assert mesh.complex.chi == -2
        phi = teleport(mesh)
        kh = curvature_h(mesh, phi)
        assert np.all(kh < 0)
        c = 2 * np.pi * mesh.complex.chi / mesh.area
        mean = mesh.masses @ (-mesh.laplacian(phi) + mesh.curvature) / mesh.area
        assert abs(mean - c) < 1e-10


def test_teleport_then_flow_on_mixed_sign_meshes():
    # the criterion-11 meshes and one at V=3070: from the teleported factor
    # the flow reaches constant curvature whatever the background's signs
    rng = np.random.default_rng(111)
    meshes = [random_mixed_sign_mesh(rng) for _ in range(20)]
    meshes.append(random_mixed_sign_mesh(np.random.default_rng(3070), subdivisions=5))
    assert meshes[-1].vertex_count == 3070
    for mesh in meshes:
        assert mesh.curvature.min() < 0 < mesh.curvature.max()
        phi, rep = log_ricci_flow(mesh)
        assert rep.converged and rep.final_spread < 1e-6
        total = mesh.masses @ (np.exp(2 * phi) * curvature_h(mesh, phi))
        target = 2 * np.pi * mesh.complex.chi
        assert abs(total - target) <= 1e-10 * abs(target)


@criterion(12, "seeded stochastic commands are byte-identical")
def test_criterion_12_determinism(tmp_path):
    cases = [
        ["gauss-bonnet", "--surface", "sphere", "--lambda", "39.789",
         "--trials", "200", "--seed", "7"],
        ["gauss-bonnet", "--surface", "torus", "--lambda", "120.0",
         "--trials", "40", "--seed", "11"],
        ["defect", "--surface", "sphere", "--lambda", "20.0", "--trials", "25",
         "--seed", "5", "--cap-area", "2.5132741228718345"],
    ]
    for i, args in enumerate(cases):
        out1 = tmp_path / f"a{i}.csv"
        out2 = tmp_path / f"b{i}.csv"
        assert cli_run(args + ["--out", str(out1)]) == 0
        assert cli_run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
