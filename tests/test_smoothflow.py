import inspect

import numpy as np
import pytest

from diskflow.complexes import from_vertex_triples, genus2_octagon, subdivide, tetrahedron
from diskflow.errors import NoConvergence, OutOfDomain, ZeroCurvatureVertex
from diskflow.smoothflow import (
    FlowReport,
    MeshMetric,
    curvature_h,
    curvature_spread,
    entropy,
    evaluate_Ig,
    gradient_Ig,
    hessian_matrix,
    log_ricci_flow,
    mean_zero,
    teleport,
)

from oracles import hessian_Ig, newton_direction_lstsq, teleport_lstsq


def random_mixed_sign_mesh(rng, tries=100, subdivisions=1):
    """Random lengths on the subdivided octagon complex (V=10 after one
    subdivision, V=3070 after five; chi=-2)."""
    sub = genus2_octagon()
    for _ in range(subdivisions):
        sub = subdivide(sub).complex
    for _ in range(tries):
        lengths = rng.uniform(0.75, 1.3, size=sub.edge_count)
        try:
            mesh = MeshMetric(sub, lengths)
        except ValueError:
            continue
        if mesh.curvature.min() < 0 < mesh.curvature.max():
            return mesh
    raise RuntimeError("no mixed-sign mesh found")


def random_negative_mesh(base_mesh, rng, jitter=0.015, tries=100):
    """Jitter a constant-curvature mesh, keeping the background negative."""
    for _ in range(tries):
        lengths = base_mesh.lengths * (1 + jitter * rng.uniform(-1, 1, base_mesh.lengths.size))
        try:
            mesh = MeshMetric(base_mesh.complex, lengths)
        except ValueError:
            continue
        if mesh.curvature.max() < 0:
            return mesh
    raise RuntimeError("no negatively curved mesh found")


# -- mesh structure -------------------------------------------------------------------


def test_mesh_requires_negative_chi():
    T = tetrahedron()
    with pytest.raises(ValueError):
        MeshMetric(T, np.ones(T.edge_count))


def test_mesh_requires_triangle_inequality(genus2_sub):
    T = genus2_sub.complex
    lengths = np.ones(T.edge_count)
    lengths[0] = 5.0
    sides = lengths[T.edge_of_flag].reshape(-1, 3)
    first = next(t for t, (a, b, c) in enumerate(sides) if a >= b + c or b >= a + c or c >= a + b)
    with pytest.raises(ValueError, match=f"face {first} violates"):
        MeshMetric(T, lengths)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mesh_rejects_non_finite_lengths(genus2_sub, bad):
    T = genus2_sub.complex
    lengths = np.ones(T.edge_count)
    lengths[3] = bad
    with pytest.raises(ValueError, match="finite"):
        MeshMetric(T, lengths)


@pytest.mark.parametrize("subdivisions", [1, 3])
def test_masses_and_curvature_match_the_add_at_scatter_bit_for_bit(subdivisions):
    mesh = random_mixed_sign_mesh(np.random.default_rng(4), subdivisions=subdivisions)
    corners = mesh.complex.vertex_of_corner
    masses = np.zeros(mesh.vertex_count)
    np.add.at(masses, corners, np.repeat(mesh.face_areas / 3.0, 3))
    angle_sums = np.zeros(mesh.vertex_count)
    np.add.at(angle_sums, corners, mesh.corner_angles.reshape(-1))
    assert mesh.masses.tobytes() == masses.tobytes()
    assert mesh.curvature.tobytes() == ((2.0 * np.pi - angle_sums) / masses).tobytes()


def test_gauss_bonnet_exact(cone_mesh, cone14_mesh):
    for mesh in (cone_mesh, cone14_mesh):
        total = mesh.masses @ mesh.curvature
        assert abs(total - 2 * np.pi * mesh.complex.chi) < 1e-12


def test_stiffness_psd_kernel_constants(cone14_mesh):
    S = cone14_mesh.stiffness.toarray()
    assert np.max(np.abs(S - S.T)) == 0.0
    assert np.max(np.abs(S @ np.ones(cone14_mesh.vertex_count))) < 1e-13
    evs = np.linalg.eigvalsh(S)
    assert evs[0] > -1e-12
    assert evs[1] > 1e-8  # connected: single zero mode


def test_cone_meshes_have_constant_curvature(cone_mesh, cone14_mesh, cone14_unit):
    assert np.ptp(cone_mesh.curvature) < 1e-12
    assert np.ptp(cone14_mesh.curvature) < 1e-12
    assert np.allclose(cone14_unit.curvature, -1.0, atol=1e-12)


# -- conformal curvature ---------------------------------------------------------------


def test_curvature_h_at_zero(cone14_mesh):
    assert np.allclose(curvature_h(cone14_mesh, np.zeros(14)), cone14_mesh.curvature)


def test_curvature_h_constant_shift(cone14_mesh):
    c = 0.37
    kh = curvature_h(cone14_mesh, np.full(14, c))
    assert np.allclose(kh, np.exp(-2 * c) * cone14_mesh.curvature, atol=1e-13)


def test_conformal_gauss_bonnet_identity():
    rng = np.random.default_rng(0)
    mesh = random_mixed_sign_mesh(rng)
    for _ in range(5):
        phi = rng.normal(scale=0.5, size=mesh.vertex_count)
        kh = curvature_h(mesh, phi)
        total = (mesh.masses * np.exp(2 * phi)) @ kh
        assert abs(total - 2 * np.pi * mesh.complex.chi) < 1e-10


# -- teleport --------------------------------------------------------------------------


def test_teleport_fixed_point_on_constant_mesh(cone14_mesh):
    phi = teleport(cone14_mesh)
    assert np.max(np.abs(phi)) < 1e-12


def test_teleport_mixed_sign_meshes():
    rng = np.random.default_rng(1)
    for _ in range(5):
        mesh = random_mixed_sign_mesh(rng)
        phi = teleport(mesh)
        kh = curvature_h(mesh, phi)
        assert np.all(kh < 0)
        assert abs(mesh.masses @ phi) < 1e-10  # mean-zero normalization
        c = 2 * np.pi * mesh.complex.chi / mesh.area
        # area-weighted mean of -Lap phi + k reproduces c
        mean = mesh.masses @ (-mesh.laplacian(phi) + mesh.curvature) / mesh.area
        assert abs(mean - c) < 1e-10


# -- the objective ----------------------------------------------------------------------


def test_Ig_zero_at_zero_and_constants(cone14_unit):
    V = cone14_unit.vertex_count
    assert evaluate_Ig(cone14_unit, np.zeros(V)) == 0.0
    assert abs(evaluate_Ig(cone14_unit, np.full(V, 1.3))) < 1e-12


def test_Ig_scale_invariance(cone14_mesh):
    rng = np.random.default_rng(2)
    mesh = random_negative_mesh(cone14_mesh, rng)
    phi = 0.02 * mean_zero(mesh, rng.normal(size=mesh.vertex_count))
    base = evaluate_Ig(mesh, phi)
    for c in (0.5, -1.2):
        assert abs(evaluate_Ig(mesh, phi + c) - base) < 1e-12


def test_Ig_negative_off_critical(cone14_unit):
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = mean_zero(cone14_unit, 0.02 * rng.normal(size=14))
        val = evaluate_Ig(cone14_unit, phi)
        assert val < 0
        # second-order model: half the Hessian quadratic form at zero
        half = 0.5 * hessian_Ig(cone14_unit, np.zeros(14), phi)
        assert abs(val - half) < 0.25 * abs(val)


def test_Ig_domain_errors(cone14_unit):
    big = np.zeros(14)
    big[0] = 50.0  # pushes Lap phi - k through zero somewhere
    with pytest.raises(OutOfDomain):
        evaluate_Ig(cone14_unit, big)


def test_domain_is_lap_phi_minus_k_above_the_floor(cone14_unit, monkeypatch):
    import diskflow.smoothflow as sf

    phi = teleport(cone14_unit)
    u = cone14_unit.laplacian(phi) - cone14_unit.curvature
    v = int(np.argmin(u))
    assert u[v] > 0
    # u equal to the floor is outside, at the start as at every step
    monkeypatch.setattr(sf, "U_FLOOR", float(u[v]))
    with pytest.raises(OutOfDomain, match=f"not above {u[v]:g} at vertex {v} ") as exc:
        log_ricci_flow(cone14_unit, phi)
    assert exc.value.vertex == v


def right_angle_vertex_mesh():
    """Twice-subdivided octagon with one edge split by a new vertex m whose
    four corners are the right angles of 3-4-5 triangles; every other edge
    has length 5.  The four right angles sum to 2 pi exactly in floating
    point, so the background curvature at m is exactly 0."""
    T = subdivide(subdivide(genus2_octagon()).complex).complex
    tri = T.vertex_of_corner.reshape(-1, 3).tolist()
    a, b, c = tri[0]
    g = next(f for f, t in enumerate(tri) if f > 0 and a in t and b in t)
    d = next(v for v in tri[g] if v not in (a, b))
    m = T.vertex_count
    S = from_vertex_triples(
        [t for f, t in enumerate(tri) if f not in (0, g)]
        + [(a, m, c), (m, b, c), (b, m, d), (m, a, d)]
    )
    # corner 0 of each new face keeps its label: m, then a and b across m
    vm, va, vb = S.vertex_of_corner[[-3, -12, -6]]
    at_m = (S.edge_endpoints == vm).any(axis=1)
    to_ab = np.isin(S.edge_endpoints, [va, vb]).any(axis=1)
    lengths = np.where(at_m, np.where(to_ab, 3.0, 4.0), 5.0)
    return MeshMetric(S, lengths), vm


def test_Ig_at_a_vertex_of_zero_background_curvature():
    mesh, vm = right_angle_vertex_mesh()
    assert mesh.curvature[vm] == 0.0
    assert mesh.curvature.min() < 0 < mesh.curvature.max()
    phi0 = teleport(mesh)
    assert np.isfinite(evaluate_Ig(mesh, phi0))
    phi, rep = log_ricci_flow(mesh)
    assert rep.converged and rep.final_spread < 1e-6
    assert np.isfinite(rep.final_objective)


def test_gradient_matches_fd_and_parts(cone14_mesh):
    rng = np.random.default_rng(4)
    mesh = random_negative_mesh(cone14_mesh, rng)
    phi = 0.05 * mean_zero(mesh, rng.normal(size=mesh.vertex_count))
    G = gradient_Ig(mesh, phi)
    assert abs(G.sum()) < 1e-10
    h = 1e-6
    for _ in range(5):
        psi = mean_zero(mesh, rng.normal(size=mesh.vertex_count))
        fd = (evaluate_Ig(mesh, phi + h * psi) - evaluate_Ig(mesh, phi - h * psi)) / (
            2 * h
        )
        assert abs(fd - G @ psi) < 1e-5 * max(1.0, abs(fd))
        # summation by parts: psi' S log|k_h| equals -sum m (Lap psi) log|k_h|
        log_kh = np.log(np.abs(curvature_h(mesh, phi)))
        lhs = psi @ (mesh.stiffness @ log_kh)
        rhs = -(mesh.masses * mesh.laplacian(psi)) @ log_kh
        assert abs(lhs - rhs) < 1e-10
        assert abs(G @ psi - lhs) < 1e-10


def test_gradient_zero_iff_constant_curvature(cone14_mesh):
    assert np.max(np.abs(gradient_Ig(cone14_mesh, np.zeros(14)))) < 1e-12
    rng = np.random.default_rng(5)
    phi = mean_zero(cone14_mesh, 0.05 * rng.normal(size=14))
    assert np.max(np.abs(gradient_Ig(cone14_mesh, phi))) > 1e-6


def test_hessian_negative_on_mean_zero_directions(cone14_mesh):
    rng = np.random.default_rng(6)
    mesh = random_negative_mesh(cone14_mesh, rng)
    phi = 0.02 * mean_zero(mesh, rng.normal(size=mesh.vertex_count))
    for _ in range(30):
        psi = mean_zero(mesh, rng.normal(size=mesh.vertex_count))
        assert hessian_Ig(mesh, phi, psi) < 0
    assert abs(hessian_Ig(mesh, phi, np.ones(mesh.vertex_count))) < 1e-12


def test_hessian_matrix_matches_fd(cone14_unit):
    rng = np.random.default_rng(7)
    phi = mean_zero(cone14_unit, 0.03 * rng.normal(size=14))
    Hm = hessian_matrix(cone14_unit, phi)
    psi = mean_zero(cone14_unit, rng.normal(size=14))
    h = 1e-5
    fd = (
        evaluate_Ig(cone14_unit, phi + h * psi)
        - 2 * evaluate_Ig(cone14_unit, phi)
        + evaluate_Ig(cone14_unit, phi - h * psi)
    ) / h**2
    assert abs(psi @ Hm @ psi - fd) < 1e-3 * max(1.0, abs(fd))


def test_grounded_solves_match_dense_lstsq(cone14_unit):
    from diskflow.smoothflow import _newton

    rng = np.random.default_rng(11)
    mixed = random_mixed_sign_mesh(rng)
    assert mixed.curvature.min() < 0 < mixed.curvature.max()
    for mesh in (cone14_unit, mixed):
        ref = teleport_lstsq(mesh)
        assert np.max(np.abs(teleport(mesh) - ref)) <= 1e-10 * max(1.0, np.abs(ref).max())
    # the Newton system needs k < 0 everywhere, so the second mesh is a
    # jittered cone-14 with nonconstant negative curvature
    jittered = MeshMetric(
        cone14_unit.complex,
        cone14_unit.lengths * (1 + 0.01 * rng.uniform(-1, 1, cone14_unit.complex.edge_count)),
    )
    assert np.ptp(jittered.curvature) > 1e-3 and jittered.curvature.max() < 0
    for mesh in (cone14_unit, jittered):
        for _ in range(3):
            phi = mean_zero(mesh, 0.03 * rng.normal(size=mesh.vertex_count))
            G = gradient_Ig(mesh, phi)
            G *= 1e-4 / np.max(np.abs(G))  # a gradient as small as near the maximum
            ref = newton_direction_lstsq(mesh, phi, G)
            d = _newton(mesh, phi, G)
            assert np.max(np.abs(d - ref)) <= 1e-10 * max(1.0, np.abs(ref).max())


# -- flow -------------------------------------------------------------------------------


def test_flow_fixed_point(cone14_unit):
    phi, rep = log_ricci_flow(cone14_unit, np.zeros(14))
    assert rep.converged
    assert rep.iterations == 0
    assert np.max(np.abs(phi)) < 1e-14


def test_flow_recovers_constant_metric(cone14_unit):
    rng = np.random.default_rng(8)
    phi0 = mean_zero(cone14_unit, 0.05 * rng.normal(size=14))
    phi, rep = log_ricci_flow(cone14_unit, phi0)
    assert rep.converged and rep.iterations <= 5000
    assert rep.final_spread < 1e-6
    assert np.max(np.abs(phi)) < 1e-6  # constant shift of zero, normalized away
    Is = [s.objective for s in rep.steps]
    assert all(Is[i + 1] >= Is[i] - 1e-13 for i in range(len(Is) - 1))
    assert rep.final_objective >= evaluate_Ig(cone14_unit, phi0)


def test_flow_from_teleport_on_random_mesh(cone14_mesh):
    # jittered negative background, default start (the teleported factor)
    rng = np.random.default_rng(9)
    mesh = random_negative_mesh(cone14_mesh, rng)
    phi, rep = log_ricci_flow(mesh)
    assert rep.converged
    kh = curvature_h(mesh, phi)
    assert np.all(kh < 0)
    assert curvature_spread(mesh, phi) < 1e-6
    # critical iff uniform, in both directions
    assert np.max(np.abs(gradient_Ig(mesh, phi))) < 1e-6


def test_flow_takes_full_newton_steps_on_jittered_meshes(cone14_mesh):
    tol = inspect.signature(log_ricci_flow).parameters["tol"].default
    for seed in range(6):
        for jitter in (0.015, 0.03):
            mesh = random_negative_mesh(cone14_mesh, np.random.default_rng(seed), jitter)
            phi, rep = log_ricci_flow(mesh)
            *accepted, last = rep.steps
            assert rep.converged and rep.iterations <= 5
            assert all(s.newton and s.backtracks == 0 and s.step == 1.0 for s in accepted)
            assert last.step == 0.0 and last.grad_inf < tol and last.residual < tol


def test_flow_falls_back_to_the_gradient_when_newton_fails(cone14_mesh, monkeypatch):
    import diskflow.smoothflow as sf

    newton, calls = sf._newton, []

    def failing_once(mesh, phi, G):
        calls.append(phi)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular")
        return newton(mesh, phi, G)

    monkeypatch.setattr(sf, "_newton", failing_once)
    mesh = random_negative_mesh(cone14_mesh, np.random.default_rng(9))
    _, rep = log_ricci_flow(mesh)
    *accepted, _ = rep.steps
    assert rep.converged
    assert [s.newton for s in accepted] == [False] + [True] * (len(accepted) - 1)


def test_flow_falls_back_cleanly_on_a_singular_hessian(cone14_mesh, monkeypatch):
    # an exactly singular Newton system declines with LinAlgError, so the
    # first step is a gradient step and nothing is printed or warned
    import warnings

    from scipy import sparse

    import diskflow.smoothflow as sf

    hessian, calls = sf.hessian_matrix, []

    def singular_once(mesh, phi):
        calls.append(phi)
        if len(calls) == 1:
            return sparse.csr_array((mesh.vertex_count, mesh.vertex_count))
        return hessian(mesh, phi)

    monkeypatch.setattr(sf, "hessian_matrix", singular_once)
    mesh = random_negative_mesh(cone14_mesh, np.random.default_rng(9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = log_ricci_flow(mesh)
    *accepted, _ = rep.steps
    assert rep.converged
    assert [s.newton for s in accepted] == [False] + [True] * (len(accepted) - 1)


def test_teleport_singular_stiffness_is_a_solve_failure(cone14_unit):
    import copy
    import warnings

    from scipy import sparse

    from diskflow.errors import SolveFailure

    mesh = copy.copy(cone14_unit)
    mesh.stiffness = sparse.csr_array((mesh.vertex_count, mesh.vertex_count))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveFailure, match="stiffness solve failed"):
            teleport(mesh)


def test_flow_converges_on_uniformized_genus2_at_766_vertices():
    # hyperbolic lengths of the uniformized F=1536 genus-2 complex read as
    # Euclidean lengths: every vertex has k < 0, spread over 6% of its mean,
    # far enough from constant that gradient steps alone do not reach the
    # tolerance within the default 5000 iterations
    from diskflow.angles import conformal_class_of, partials_from_angles
    from diskflow.uniformize import uniformize

    T = genus2_octagon()
    for _ in range(4):
        T = subdivide(T).complex
    deg = np.array([len(c) for c in T.corners_of_vertex])
    corner = 2 * np.pi / deg[T.vertex_of_corner]
    _, st, _ = uniformize(conformal_class_of(partials_from_angles(T, corner.reshape(-1, 3))))
    mesh = MeshMetric(T, st.edge_lengths)
    assert mesh.vertex_count == 766 and mesh.curvature.max() < 0

    phi, rep = log_ricci_flow(mesh)
    assert rep.converged and rep.final_spread < 1e-6
    assert np.max(np.abs(gradient_Ig(mesh, phi))) < 1e-6
    *accepted, last = rep.steps
    assert accepted and all(s.newton for s in accepted)
    assert last.step == 0.0


def test_flow_iteration_cap(cone14_mesh):
    rng = np.random.default_rng(10)
    mesh = random_negative_mesh(cone14_mesh, rng, jitter=0.03)
    with pytest.raises(NoConvergence) as exc:
        log_ricci_flow(mesh, tol=1e-12, max_iter=2)
    assert exc.value.best is not None


def test_flow_stall_reports_best(cone14_unit, monkeypatch):
    # every candidate of the second iteration is refused, so its line search stalls
    import diskflow.smoothflow as sf

    grad, objective = sf.gradient_Ig, sf.evaluate_Ig
    iterations = []

    def counting_grad(mesh, phi):
        iterations.append(phi)
        return grad(mesh, phi)

    def refusing_objective(mesh, phi):
        return objective(mesh, phi) if len(iterations) < 2 else -np.inf

    monkeypatch.setattr(sf, "gradient_Ig", counting_grad)
    monkeypatch.setattr(sf, "evaluate_Ig", refusing_objective)
    rng = np.random.default_rng(8)
    phi0 = mean_zero(cone14_unit, 0.05 * rng.normal(size=14))
    with pytest.raises(NoConvergence, match="line search stalled at iteration 1") as exc:
        log_ricci_flow(cone14_unit, phi0)
    rep = exc.value.trace
    assert isinstance(rep, FlowReport) and not rep.converged
    assert [s.iteration for s in rep.steps] == [0] and rep.steps[0].step > 0
    assert exc.value.best.shape == (14,) and np.all(np.isfinite(exc.value.best))


def test_mesh_from_uniformizer_output(canonical24_spec):
    # the uniformizer's hyperbolic edge lengths satisfy the Euclidean
    # triangle inequalities, so they define a usable background metric
    from diskflow.uniformize import uniformize

    _, st, _ = uniformize(canonical24_spec)
    mesh = MeshMetric(st.complex, st.edge_lengths)
    assert abs(mesh.masses @ mesh.curvature - 2 * np.pi * mesh.complex.chi) < 1e-12
    phi = teleport(mesh)
    assert np.all(curvature_h(mesh, phi) < 0)


# -- entropy ----------------------------------------------------------------------------


def test_entropy_values(cone14_unit, cone14_mesh):
    assert abs(entropy(cone14_unit, np.zeros(14))) < 1e-12  # k_h = -1
    c = 2 * np.pi * cone14_mesh.complex.chi / cone14_mesh.area
    expected = -2 * np.pi * cone14_mesh.complex.chi * np.log(abs(c))
    assert abs(entropy(cone14_mesh, np.zeros(14)) - expected) < 1e-10


def test_entropy_scaling_identity():
    rng = np.random.default_rng(11)
    mesh = random_mixed_sign_mesh(rng)
    phi = teleport(mesh)
    base = entropy(mesh, phi)
    chi = mesh.complex.chi
    for c in (0.7, -0.4):
        assert abs(entropy(mesh, phi + c) - (base + 4 * np.pi * chi * c)) < 1e-9


def test_entropy_zero_curvature_error(cone14_unit):
    rng = np.random.default_rng(12)
    mesh = random_mixed_sign_mesh(rng)  # some vertex may sit at zero
    # scan for a factor that zeroes curvature at a vertex is fiddly; instead
    # check the guard directly on a crafted curvature through teleport domain
    if np.any(mesh.curvature == 0.0):
        with pytest.raises(ZeroCurvatureVertex):
            entropy(mesh, np.zeros(mesh.vertex_count))
    else:
        assert np.isfinite(entropy(mesh, np.zeros(mesh.vertex_count)))
