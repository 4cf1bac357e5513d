import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import zeta

from diskflow.angles import AngleSystem, partials_from_angles
from diskflow.errors import DegenerateAngle, NotHyperbolic, NotInDomain, OutOfDomain
from diskflow.hyperbolic import (
    _SERIES_COEF,
    class_grad,
    class_hessian,
    class_hessian_sparse,
    face_hessian,
    flag_edge_lengths,
    flag_log_terms as grad_H,
    lobachevsky,
    log_half_cosh_minus_one,
    objective_H,
)

from oracles import (
    PRISM_ANCHOR_TRUE_VOLUME,
    angles_from_lengths,
    class_basis,
    class_hessian_dense,
    class_hessian_fd,
    edge_lengths,
    lobachevsky_quad,
    lobachevsky_series60,
    prism_gradient,
    prism_volume,
    prism_volume_path,
    true_prism_volume,
)


def random_hyperbolic_triples(rng, n, lo=0.1, hi=1.6, max_sum=0.97 * np.pi):
    out = []
    while len(out) < n:
        t = rng.uniform(lo, hi, size=3)
        if t.sum() < max_sum:
            out.append(t)
    return out


# -- Lobachevsky --------------------------------------------------------------------


def test_series_coefficients_are_zeta_bit_for_bit():
    m = np.arange(1, 31)
    assert np.array_equal(_SERIES_COEF, zeta(2 * m) / (m * (2 * m + 1)))


def test_lobachevsky_zero():
    assert lobachevsky(0.0) == 0.0


@given(st.floats(-8.0, 8.0))
def test_lobachevsky_symmetries(t):
    assert abs(lobachevsky(t + np.pi) - lobachevsky(t)) < 1e-12
    assert abs(lobachevsky(-t) + lobachevsky(t)) < 1e-12


def test_lobachevsky_against_quadrature():
    for t in (np.pi / 6, 0.3, 1.0, 1.4, 2.2):
        assert abs(lobachevsky(t) - lobachevsky_quad(t)) < 1e-12


def test_lobachevsky_horner_matches_the_60_term_series():
    marks = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, 3.5, -7.0])
    dense = np.linspace(-4.0, 4.0, 20001)
    for ts in (marks, dense):
        assert np.max(np.abs(lobachevsky(ts) - lobachevsky_series60(ts))) <= 2e-16


def test_lobachevsky_known_value():
    assert abs(lobachevsky(np.pi / 6) - 0.5074708) < 5e-8


def test_lobachevsky_vectorized():
    ts = np.linspace(-2, 2, 17)
    vals = lobachevsky(ts)
    assert vals.shape == ts.shape
    assert np.allclose(vals, [lobachevsky(float(t)) for t in ts])


# -- triangle solver -----------------------------------------------------------------


def test_edge_lengths_equilateral():
    a, b, c = edge_lengths(np.pi / 4, np.pi / 4, np.pi / 4)
    assert np.isclose(a, np.arccosh(1 + np.sqrt(2)))
    assert np.isclose(a, 1.528571, atol=1e-6)
    assert a == b == c


def test_edge_lengths_roundtrip():
    rng = np.random.default_rng(0)
    for A, B, C in random_hyperbolic_triples(rng, 30):
        a, b, c = edge_lengths(A, B, C)
        back = angles_from_lengths(a, b, c)
        assert np.max(np.abs(np.array(back) - [A, B, C])) < 1e-10


def test_edge_lengths_euclidean_limit():
    prev = np.inf
    for eps in (1e-2, 1e-4, 1e-6):
        a, _, _ = edge_lengths(np.pi / 3, np.pi / 3, np.pi / 3 - eps)
        assert a < prev
        prev = a
    assert prev < 1e-2


def test_edge_lengths_permutation():
    A, B, C = 0.5, 0.8, 1.1
    a, b, c = edge_lengths(A, B, C)
    b2, c2, a2 = edge_lengths(B, C, A)
    assert (a, b, c) == (a2, b2, c2)


def test_edge_lengths_rejects_bad_triples():
    with pytest.raises(NotHyperbolic):
        edge_lengths(1.5, 1.5, 1.5)
    with pytest.raises(DegenerateAngle):
        edge_lengths(-0.1, 0.5, 0.5)
    with pytest.raises(DegenerateAngle):
        edge_lengths(0.0, 0.5, 0.5)


def test_log_identity_matches_direct_cosh():
    rng = np.random.default_rng(1)
    for trip in random_hyperbolic_triples(rng, 20):
        ls = np.array(edge_lengths(*trip))
        direct = np.log((np.cosh(ls) - 1.0) / 2.0)
        assert np.max(np.abs(log_half_cosh_minus_one(trip) - direct)) < 1e-10


# -- prism volume --------------------------------------------------------------------


def test_prism_anchor_is_zero():
    assert abs(prism_volume(np.pi / 6, np.pi / 6, np.pi / 6)) < 1e-14


def test_prism_volume_against_decomposition_oracle():
    # the hull-of-ideal-points oracle shares nothing with the closed form or
    # the path integral; anchored agreement pins both the value and the sign
    rng = np.random.default_rng(2)
    for trip in random_hyperbolic_triples(rng, 8):
        expected = true_prism_volume(*trip) - PRISM_ANCHOR_TRUE_VOLUME
        assert abs(prism_volume(*trip) - expected) < 1e-9


def test_prism_closed_form_vs_path_integral():
    rng = np.random.default_rng(3)
    for trip in random_hyperbolic_triples(rng, 10):
        assert abs(prism_volume(*trip) - prism_volume_path(*trip)) < 1e-9


def test_path_independence():
    targets = [(np.pi / 4, np.pi / 5, np.pi / 6), (0.9, 0.5, 0.75), (1.2, 0.3, 0.4)]
    vias = [(0.4, 0.3, 0.9), (0.7, 0.7, 0.7), (0.2, 1.0, 0.5)]
    for trip, via in zip(targets, vias):
        direct = prism_volume_path(*trip)
        legged = prism_volume_path(*trip, via=via)
        assert abs(direct - legged) < 1e-8


def test_prism_gradient_against_path_integral_fd():
    rng = np.random.default_rng(4)
    h = 1e-4
    for trip in random_hyperbolic_triples(rng, 5):
        angs = np.asarray(trip)
        psi = angs.sum() / 2.0 - angs
        g = prism_gradient(*trip)
        fd = np.empty(3)
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            ap = (psi + dp).sum() - (psi + dp)
            am = (psi - dp).sum() - (psi - dp)
            fd[i] = (prism_volume_path(*ap) - prism_volume_path(*am)) / (2 * h)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6


def test_one_form_exactness_mixed_partials():
    rng = np.random.default_rng(5)
    h = 1e-6
    for trip in random_hyperbolic_triples(rng, 10):
        angs = np.asarray(trip)
        psi = angs.sum() / 2.0 - angs

        def omega(p):
            a = p.sum() - p
            return log_half_cosh_minus_one(a)

        J = np.empty((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            J[:, j] = (omega(psi + dp) - omega(psi - dp)) / (2 * h)
        assert np.max(np.abs(J - J.T)) / np.max(np.abs(J)) < 1e-6


# -- the objective over angle systems -------------------------------------------------


def test_objective_and_gradient_on_symmetric_genus2(symmetric_g2_system):
    x = symmetric_g2_system
    assert np.max(np.abs(class_grad(x))) < 1e-12
    lengths = flag_edge_lengths(x)
    assert np.ptp(lengths) < 1e-12  # all sides congruent by symmetry
    assert np.isclose(objective_H(x), 6 * prism_volume(np.pi / 9, np.pi / 9, np.pi / 9))


def test_grad_H_is_per_flag_log_term(symmetric_g2_system):
    x = symmetric_g2_system
    g = grad_H(x)
    ls = flag_edge_lengths(x)
    assert np.allclose(g, np.log((np.cosh(ls) - 1) / 2), atol=1e-12)


def test_class_grad_matches_fd_of_H(genus2):
    rng = np.random.default_rng(6)
    x0 = AngleSystem(genus2, np.full(18, np.pi / 18))
    B = class_basis(genus2)
    x = AngleSystem(genus2, x0.psi + B.T @ rng.uniform(-0.02, 0.02, size=9))
    g = class_grad(x)
    h = 1e-6
    for e in range(genus2.edge_count):
        plus = AngleSystem(genus2, x.psi + h * B[e])
        minus = AngleSystem(genus2, x.psi - h * B[e])
        fd = (objective_H(plus) - objective_H(minus)) / (2 * h)
        assert abs(fd - g[e]) < 1e-6 * max(1.0, abs(g[e]))


def test_class_hessian_symmetric_negative_definite(canonical24_spec):
    from diskflow.angles import find_negative_delaunay

    y = find_negative_delaunay(canonical24_spec)
    M = class_hessian(y)
    assert np.max(np.abs(M - M.T)) < 1e-10
    assert np.linalg.eigvalsh(M).max() < 0


def test_class_hessian_matches_fd(genus2):
    x = AngleSystem(genus2, np.full(18, np.pi / 18))
    M = class_hessian(x)
    Mfd = class_hessian_fd(x, step=1e-6)
    assert np.max(np.abs(M - Mfd)) / np.max(np.abs(M)) < 1e-4


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_class_hessian_matches_dense_oracle(subdivisions):
    from diskflow.angles import conformal_class_of, find_negative_delaunay
    from diskflow.complexes import genus2_octagon, subdivide

    T = genus2_octagon()
    for _ in range(subdivisions):
        T = subdivide(T).complex
    deg = np.array([len(c) for c in T.corners_of_vertex])
    corner = 2 * np.pi / deg[T.vertex_of_corner]
    y = find_negative_delaunay(conformal_class_of(partials_from_angles(T, corner.reshape(-1, 3))))
    M = class_hessian(y)
    assert T.face_count == 6 * 4**subdivisions
    assert isinstance(M, np.ndarray)
    ref = class_hessian_dense(y)
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
    # an edge borders two faces: itself and at most four other edges
    assert np.count_nonzero(M, axis=1).max() <= 5
    # the dense Hessian is the sparse one, which stores at most five entries
    # per column (hence per row: it is symmetric) and equals the oracle
    H = class_hessian_sparse(y)
    assert H.format == "csc" and np.array_equal(H.toarray(), M)
    assert np.array_equal(M, ref) and np.array_equal(M, M.T)
    assert np.diff(H.indptr).max() <= 5


def test_face_hessian_negative_definite_on_acute():
    rng = np.random.default_rng(7)
    trips = random_hyperbolic_triples(rng, 10, lo=0.3, hi=1.0)
    for trip in trips:
        evs = np.linalg.eigvalsh(face_hessian(np.asarray(trip)))
        assert evs.max() < 0
    # a stack of faces gives each face's own block
    stacked = face_hessian(np.array(trips))
    assert np.array_equal(stacked, np.stack([face_hessian(t) for t in trips]))


def test_objective_domain_error(genus2):
    flat = partials_from_angles(
        genus2, np.tile(np.array([np.pi / 3, np.pi / 3, np.pi / 3]), (6, 1))
    )
    with pytest.raises(NotInDomain):
        objective_H(flat)


def test_one_domain_check_names_the_first_bad_face(genus2):
    # every face-wise function rejects through the same check; its errors
    # are the domain errors the ascent halves on
    assert issubclass(DegenerateAngle, NotInDomain) and issubclass(NotHyperbolic, NotInDomain)
    assert issubclass(NotInDomain, OutOfDomain)
    A = np.full((6, 3), 0.3)
    A[2] = [1.5, 1.5, 1.5]
    x = partials_from_angles(genus2, A)
    for f in (objective_H, class_grad, flag_edge_lengths, class_hessian_sparse):
        with pytest.raises(NotHyperbolic, match=r"^face 2: angles \[1.5"):
            f(x)
    A[4] = [0.5, 0.0, 0.5]  # a bad angle is named before an earlier bad sum
    with pytest.raises(DegenerateAngle, match="^face 4: angle 1 = "):
        objective_H(partials_from_angles(genus2, A))
    with pytest.raises(DegenerateAngle, match="^face 0: angle 2 = "):
        prism_volume_path(0.3, 0.3, 0.3, via=(0.5, 0.5, np.pi))


def test_prism_volume_is_one_face_of_the_objective(genus2):
    # one closed form: the objective is the sum of the faces' prism volumes, bit for bit
    x = partials_from_angles(genus2, np.array([[0.3, 0.4, 0.5], [0.2, 0.7, 1.1]] * 3))
    assert objective_H(x) == sum(prism_volume(*np.sum(p) - p) for p in x.psi.reshape(-1, 3))
