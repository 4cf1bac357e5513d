import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskflow.angles import (
    CHECK_TOL,
    MARGIN_FLOOR,
    AngleSystem,
    ConformalClassSpec,
    all_corner_angles,
    conformal_class_of,
    edge_psi,
    find_negative_delaunay,
    is_delaunay,
    partials_from_angles,
)
from diskflow.complexes import (
    build_complex,
    csaszar_torus,
    genus2_octagon,
    octagon_cone,
    pillow,
    subdivide,
    tetrahedron,
    two_triangle_torus,
)
from diskflow.errors import ComplexMismatch, Infeasible, TooLarge

from helpers import (
    octahedron,
    perturbed_canonical_spec,
    random_angle_system,
    random_class_spec,
    random_complex,
)
from oracles import (
    CLASS_TOL,
    angle_system_violations,
    class_basis,
    corner_angles,
    curvature_violations,
    delaunay_violations,
    face_curvature,
    face_curvatures,
    informal_intersection_angle,
    is_angle_system,
    is_negatively_curved,
    is_teleportable_bruteforce,
    margin_lp_simplex,
    same_class,
    vertex_angle_sums,
)


def test_corner_angles_worked_example():
    T = pillow_free()
    x = AngleSystem(T, np.array([np.pi / 8, np.pi / 24, 5 * np.pi / 24] * 2))
    A, B, C = corner_angles(x, 0)
    assert np.isclose(A, np.pi / 4) and np.isclose(B, np.pi / 3)
    assert np.isclose(C, np.pi / 6)


def pillow_free():
    # any 2-face complex works for per-face angle algebra
    from diskflow.complexes import pillow

    return pillow()


def test_equal_partials_give_equal_angles():
    T = pillow_free()
    x = AngleSystem(T, np.full(6, np.pi / 8))
    assert np.allclose(corner_angles(x, 0), np.pi / 4)


def test_corner_sum_identity():
    rng = np.random.default_rng(0)
    T = pillow_free()
    for _ in range(20):
        psi = rng.uniform(0.05, 0.4, size=6)
        x = AngleSystem(T, psi)
        for t in range(2):
            total = sum(corner_angles(x, t))
            assert np.isclose(total, 2 * x.face_partials(t).sum(), atol=1e-14)


def test_partials_from_angles_worked_example():
    T = pillow_free()
    angles = np.array([[np.pi / 4, np.pi / 3, np.pi / 6]] * 2)
    x = partials_from_angles(T, angles)
    assert np.allclose(x.face_partials(0), [np.pi / 8, np.pi / 24, 5 * np.pi / 24])


def test_degenerate_partial_is_zero():
    T = pillow_free()
    angles = np.array([[0.9, 0.5, 0.4]] * 2)  # A = B + C
    x = partials_from_angles(T, angles)
    assert abs(x.face_partials(0)[0]) < 1e-15


@given(
    st.tuples(
        st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0)
    ).filter(lambda a: max(a) < 0.98 * np.pi)
)
def test_roundtrip_property(triple):
    T = pillow_free()
    angles = np.array([triple, triple])
    x = partials_from_angles(T, angles)
    back = np.array([corner_angles(x, t) for t in range(2)])
    assert np.max(np.abs(back - angles)) < 1e-12


def test_intersection_angle_values():
    T = pillow_free()
    x = AngleSystem(T, np.full(6, np.pi / 8))
    assert np.isclose(informal_intersection_angle(x, 0), np.pi / 4)
    psi = np.zeros(6)
    a, b = T.edges[0]
    psi[a], psi[b] = 0.3, 0.9
    x2 = AngleSystem(T, psi)
    assert np.isclose(informal_intersection_angle(x2, 0), 1.2)


def test_total_psi_identity():
    rng = np.random.default_rng(1)
    T = random_complex(rng, 6)
    x = AngleSystem(T, rng.uniform(0.01, 0.3, size=18))
    lhs = edge_psi(x).sum()
    rhs = 0.5 * sum(sum(corner_angles(x, t)) for t in range(6))
    assert np.isclose(lhs, rhs, atol=1e-12)


def test_is_angle_system_tetrahedron():
    T = tetrahedron()
    x = AngleSystem(T, np.full(12, np.pi / 3))  # corner angles 2 pi / 3, degree 3
    assert is_angle_system(x).ok
    bumped = x.psi.copy()
    bumped[0] += 0.1
    rep = is_angle_system(AngleSystem(T, bumped))
    assert not rep.ok
    assert len(rep.vertex_violations) == 2  # the two endpoints of that side's edge


def test_violations_match_the_per_element_reference():
    rng = np.random.default_rng(12)
    T = random_complex(rng, 8)
    # partials spread past both ends of (0, pi), so every kind of violation occurs
    x = AngleSystem(T, rng.uniform(-0.6, 2.0, size=3 * T.face_count))
    for tol in (CHECK_TOL, 0.2):
        rep = is_angle_system(x, tol)
        assert rep.corner_violations and rep.vertex_violations
        assert (rep.corner_violations, rep.vertex_violations) == angle_system_violations(x, tol)
    assert is_delaunay(x).violations == delaunay_violations(x, CHECK_TOL)
    assert is_delaunay(conformal_class_of(x)).violations == is_delaunay(x).violations
    assert is_delaunay(x).violations
    bad = is_negatively_curved(x).violations
    assert bad == curvature_violations(x, CHECK_TOL)
    assert 0 < len(bad) < T.face_count


def test_uniform_small_partials_fail_vertex_sums():
    T = tetrahedron()
    rep = is_angle_system(AngleSystem(T, np.full(12, np.pi / 8)))
    assert not rep.ok  # vertex sums 3 pi / 4 * ... below 2 pi


def test_curvature_values(symmetric_g2_system):
    T = pillow_free()
    x = partials_from_angles(T, np.array([[np.pi / 4] * 3] * 2))
    assert np.isclose(face_curvature(x, 0), -np.pi / 4)
    y = partials_from_angles(T, np.array([[0.9 * np.pi, 0.06 * np.pi, 0.05 * np.pi]] * 2))
    assert np.isclose(face_curvature(y, 0), 0.01 * np.pi)
    assert not is_negatively_curved(y).ok
    assert is_negatively_curved(symmetric_g2_system).ok


def test_total_curvature_identity():
    rng = np.random.default_rng(2)
    for F in (4, 6, 8):
        T = random_complex(rng, F)
        x = random_angle_system(T, rng)
        total = (np.pi - (face_curvatures(x) + np.pi)).sum()
        assert np.isclose(total, -2 * np.pi * T.chi, atol=1e-9)


def test_non_finite_data_names_the_flag_or_edge():
    rng = np.random.default_rng(4)
    T = random_complex(rng, 6)
    x = random_angle_system(T, rng)
    psi = x.psi.copy()
    psi[4] = np.nan
    with pytest.raises(ValueError, match="flag 4 is not finite"):
        AngleSystem(T, psi)
    pe = edge_psi(x)
    pe[2] = -np.inf
    with pytest.raises(ValueError, match="edge 2 is not finite"):
        ConformalClassSpec(T, pe)


def test_conformal_class_and_basis():
    rng = np.random.default_rng(3)
    T = random_complex(rng, 6)
    x = random_angle_system(T, rng)
    B = class_basis(T)
    assert B.shape == (T.edge_count, 3 * T.face_count)
    assert np.all(np.abs(B).sum(axis=1) == 2)
    # moving along any class direction changes no edge value and no vertex sum
    for e in range(T.edge_count):
        y = AngleSystem(T, x.psi + 0.01 * B[e])
        assert same_class(x, y)
        assert np.max(np.abs(vertex_angle_sums(y) - vertex_angle_sums(x))) < 1e-12
    # the complex's signed incidence is the transposed basis, entry for entry,
    # with multi-edges (pillow, torus) and same-face gluings (the folded pair)
    folded = build_complex(2, [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))])
    for S in (pillow(), two_triangle_torus(), genus2_octagon(), folded, T):
        assert np.array_equal(S.signed_incidence.toarray(), class_basis(S).T)
    z = rng.normal(size=T.edge_count)
    y = AngleSystem(T, x.psi + T.signed_incidence @ z)
    assert np.max(np.abs(edge_psi(y) - edge_psi(x))) < 1e-12
    assert np.max(np.abs(vertex_angle_sums(y) - vertex_angle_sums(x))) < 1e-12
    # bumping a single partial leaves the class
    bumped = x.psi.copy()
    bumped[0] += 0.01
    assert not same_class(x, AngleSystem(T, bumped))


def test_uniform_partial_class_values(symmetric_g2_system):
    spec = conformal_class_of(symmetric_g2_system)
    assert np.allclose(spec.psi_edge, 2 * np.pi / 18)


def test_same_class_requires_same_complex():
    rng = np.random.default_rng(4)
    T1 = random_complex(rng, 4)
    T2 = random_complex(rng, 6)
    with pytest.raises(ComplexMismatch):
        same_class(
            AngleSystem(T1, np.zeros(12)), AngleSystem(T2, np.zeros(18))
        )


# -- teleportability ---------------------------------------------------------------


def test_bruteforce_all_right_angles_fails():
    T = octahedron()
    spec = ConformalClassSpec(T, np.full(T.edge_count, np.pi / 2))
    rep = is_teleportable_bruteforce(spec)
    assert not rep.ok
    assert rep.violating_set is not None


def test_bruteforce_quarter_angles_pass():
    T = octahedron()
    spec = ConformalClassSpec(T, np.full(T.edge_count, np.pi / 4))
    assert is_teleportable_bruteforce(spec).ok


def test_bruteforce_size_cap():
    rng = np.random.default_rng(5)
    T = random_complex(rng, 8)
    x = random_angle_system(T, rng)
    with pytest.raises(TooLarge):
        is_teleportable_bruteforce(x, max_faces=6)


def test_lp_feasible_from_witness():
    rng = np.random.default_rng(6)
    T = genus2_octagon()
    x = AngleSystem(T, np.full(18, np.pi / 18))
    spec = conformal_class_of(x)
    y = find_negative_delaunay(spec)
    assert is_delaunay(y).ok
    assert is_negatively_curved(y).ok
    assert np.max(np.abs(edge_psi(y) - spec.psi_edge)) < 1e-9


def test_lp_right_angles_infeasible():
    T = octahedron()
    spec = ConformalClassSpec(T, np.full(T.edge_count, np.pi / 2))
    with pytest.raises(Infeasible) as exc:
        find_negative_delaunay(spec)
    assert exc.value.margin is not None and exc.value.margin <= 0


def test_lp_matches_bruteforce_on_random_specs():
    # a minimal subset slack (or LP margin) within rounding of zero is an
    # exact tie - e.g. the full face set on a chi = 0 complex - where the
    # strict inequality has no numerical verdict; everywhere else the two
    # routes must agree
    rng = np.random.default_rng(7)
    compared = 0
    feasible_seen = infeasible_seen = 0
    while compared < 25:
        T = random_complex(rng, int(rng.choice([4, 6, 8])))
        try:
            spec = random_class_spec(T, rng)
        except RuntimeError:
            continue
        rep = is_teleportable_bruteforce(spec)
        try:
            y = find_negative_delaunay(spec)
            lp_margin = 1.0
            assert is_delaunay(y).ok and is_negatively_curved(y).ok
        except Infeasible as exc:
            lp_margin = exc.margin if exc.margin is not None else -1.0
        if abs(rep.min_slack) < 1e-9 or abs(lp_margin) < 1e-9:
            continue
        assert (lp_margin > 0) == rep.ok
        compared += 1
        feasible_seen += int(rep.ok)
        infeasible_seen += int(not rep.ok)
    assert feasible_seen > 0 and infeasible_seen > 0


def _lp_margin(spec) -> tuple[bool, float]:
    """(feasible, margin) of the interior-point LP: the margin of the point it
    returns, or the certificate margin it raises with."""
    try:
        y = find_negative_delaunay(spec)
    except Infeasible as exc:
        return False, exc.margin
    A = all_corner_angles(y)
    return True, float(min(A.min(), (np.pi - A.sum(axis=1)).min()))


def _margin_oracle_specs() -> list[ConformalClassSpec]:
    """Three perturbed F=96 genus-2 classes, the all-right-angle octahedron
    and random classes on small random complexes: 40 in all, some infeasible."""
    rng = np.random.default_rng(12)
    T96 = subdivide(subdivide(genus2_octagon()).complex).complex
    specs = [perturbed_canonical_spec(T96, rng) for _ in range(3)]
    specs.append(ConformalClassSpec(octahedron(), np.full(12, np.pi / 2)))
    while len(specs) < 40:
        T = random_complex(rng, int(rng.choice([4, 6, 8])))
        try:
            specs.append(random_class_spec(T, rng))
        except RuntimeError:
            continue
    return specs


def test_interior_point_margin_matches_the_simplex_oracle():
    verdicts = []
    for spec in _margin_oracle_specs():
        ref = margin_lp_simplex(spec)
        feasible, margin = _lp_margin(spec)
        assert abs(margin - ref) <= 1e-9
        assert feasible == (ref >= MARGIN_FLOOR)
        verdicts.append(feasible)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_interior_point_start_lies_in_its_class(noise, monkeypatch):
    # without crossover the solution holds only to the solver's primal
    # tolerance; a solution moved by ``noise`` (well inside that tolerance)
    # must still give a member of the class, whose upper flags are computed
    # from its lower ones
    import scipy.optimize

    linprog, rng = scipy.optimize.linprog, np.random.default_rng(5)

    def off_the_rows(*args, **kwargs):
        res = linprog(*args, **kwargs)
        if res.x is not None:
            res.x[:-1] += rng.uniform(-noise, noise, size=res.x.size - 1)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", off_the_rows)
    members = 0
    for spec in _margin_oracle_specs():
        try:
            y = find_negative_delaunay(spec)
        except Infeasible:
            continue
        assert np.max(np.abs(edge_psi(y) - spec.psi_edge)) <= CLASS_TOL
        members += 1
    assert members > 0


def test_margin_lp_raises_no_warning():
    T96 = subdivide(subdivide(genus2_octagon()).complex).complex
    spec = perturbed_canonical_spec(T96, np.random.default_rng(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = find_negative_delaunay(spec)
    assert is_negatively_curved(y).ok and is_delaunay(y).ok


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_margin_lp_runs_over_lower_flags_without_equality_rows(noise, monkeypatch):
    # a member is its lower-flag partials, so the LP has one column per edge
    # and one for the margin, no equality rows, and its point lies in the
    # class to rounding wherever the solver's edge values land
    import scipy.optimize

    linprog, rng, calls = scipy.optimize.linprog, np.random.default_rng(5), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        res = linprog(*args, **kwargs)
        if res.x is not None:
            res.x[:-1] += rng.uniform(-noise, noise, size=res.x.size - 1)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    members = 0
    for spec in _margin_oracle_specs():
        before = len(calls)
        try:
            y = find_negative_delaunay(spec)
        except Infeasible:
            y = None
        ((args, kwargs),) = calls[before:]
        assert len(args) == 1 and "A_eq" not in kwargs and "b_eq" not in kwargs
        assert kwargs["A_ub"].shape[1] == spec.complex.edge_count + 1
        if y is not None:
            assert np.max(np.abs(edge_psi(y) - spec.psi_edge)) <= 1e-15
            members += 1
    assert members > 0


@pytest.mark.parametrize(
    "make",
    [tetrahedron, pillow, two_triangle_torus, csaszar_torus, genus2_octagon,
     octagon_cone, octahedron],
)
def test_vertex_angle_sums_match_the_add_at_scatter_bit_for_bit(make):
    T = make()
    x = AngleSystem(T, np.random.default_rng(5).uniform(0.1, 1.0, 3 * T.face_count))
    want = np.zeros(T.vertex_count)
    np.add.at(want, T.vertex_of_corner, all_corner_angles(x).reshape(-1))
    assert vertex_angle_sums(x).tobytes() == want.tobytes()
