import inspect

import numpy as np
import pytest

import diskflow.uniformize as un
from diskflow.angles import (
    CHECK_TOL,
    AngleSystem,
    ConformalClassSpec,
    conformal_class_of,
    edge_psi,
    find_negative_delaunay,
    is_delaunay,
    partials_from_angles,
)
from diskflow.complexes import build_complex, genus2_octagon, subdivide
from diskflow.errors import Infeasible, LengthMismatch, NoConvergence
from diskflow.uniformize import (
    HyperbolicStructure,
    assemble_structure,
    pattern_report,
    uniformize,
)

import oracles
from helpers import (
    criterion5_classes,
    lognormal_class_spec,
    near_boundary_class,
    octahedron,
    one_vertex_off_spec,
    perturbed_canonical_spec,
)
from oracles import (
    circle_pattern_jacobian_fd,
    circle_pattern_residual,
    class_ascent,
    class_basis,
    class_hessian_dense,
    dual_member_lu_each_step,
    edge_lengths,
    is_negatively_curved,
)

DEFAULTS = inspect.signature(uniformize).parameters
TOL, MAX_ITER = DEFAULTS["tol"].default, DEFAULTS["max_iter"].default


def test_symmetric_start_is_fixed_point(genus2, symmetric_g2_system):
    spec = conformal_class_of(symmetric_g2_system)
    y, st, trace = class_ascent(spec, symmetric_g2_system)
    assert len(trace) <= 2
    assert np.max(np.abs(y.psi - symmetric_g2_system.psi)) < 1e-12
    assert np.ptp(st.edge_lengths) < 1e-12


def test_uniformize_symmetric_class_from_lp_start(genus2, symmetric_g2_system):
    # the LP start differs from the symmetric point, but the maximizer is the
    # symmetric structure: all edge lengths must come out equal
    spec = conformal_class_of(symmetric_g2_system)
    y, st, trace = class_ascent(spec, find_negative_delaunay(spec))
    assert np.ptp(st.edge_lengths) < 1e-9
    assert np.max(np.abs(edge_psi(y) - spec.psi_edge)) < 1e-12


def test_uniformize_genus2_24(canonical24_spec):
    y, st, trace = uniformize(canonical24_spec)
    assert len(trace) <= MAX_ITER
    assert trace[-1].grad_inf < TOL
    assert trace[-1].residual < 1e-8
    assert abs(st.total_area - 4 * np.pi) < 1e-9
    # objective is nondecreasing along the accepted iterates
    hs = [r.objective for r in trace]
    assert all(hs[i + 1] >= hs[i] - 1e-13 for i in range(len(hs) - 1))
    # iterates never left the class
    assert np.max(np.abs(edge_psi(y) - canonical24_spec.psi_edge)) < 1e-12


def test_two_starts_agree(canonical24_spec):
    y1, _, _ = uniformize(canonical24_spec)
    rng = np.random.default_rng(1)
    T = canonical24_spec.complex
    B = class_basis(T)
    y0 = find_negative_delaunay(canonical24_spec)
    pert = AngleSystem(T, y0.psi + B.T @ (0.01 * rng.standard_normal(T.edge_count)))
    assert is_delaunay(pert).ok and is_negatively_curved(pert).ok
    y2, _, _ = class_ascent(canonical24_spec, pert)
    assert np.max(np.abs(y1.psi - y2.psi)) < 1e-8


def test_uniformize_infeasible_class():
    T = octahedron()
    spec = ConformalClassSpec(T, np.full(T.edge_count, np.pi / 2))
    with pytest.raises(Infeasible):
        uniformize(spec)


def test_uniformize_refuses_the_empty_complex():
    # its hyperbolic area -2 pi chi is 0; the seed of the dual would divide by F = 0
    spec = ConformalClassSpec(build_complex(0, []), [])
    for solve in (find_negative_delaunay, uniformize):
        with pytest.raises(Infeasible, match="the empty complex has area 0") as info:
            solve(spec)
        assert info.value.margin is None


def _refused_at_both_entries(spec, match):
    """``find_negative_delaunay`` and ``uniformize`` both raise ``Infeasible``
    with margin None."""
    for solve in (find_negative_delaunay, uniformize):
        with pytest.raises(Infeasible, match=match) as info:
            solve(spec)
        assert info.value.margin is None


def test_uniformize_refuses_a_class_with_no_delaunay_member():
    # every vertex sum is 2 pi, but 7 of the 144 psi_e are <= 0; the ascent
    # used to "converge" to a structure whose intersection angles exceed pi
    T = subdivide(subdivide(genus2_octagon()).complex).complex
    spec = lognormal_class_spec(T, 0)
    e = int(np.flatnonzero(spec.psi_edge <= 0)[0])
    assert np.count_nonzero(spec.psi_edge <= 0) == 7
    _refused_at_both_entries(spec, f"edge {e} has psi_e {spec.psi_edge[e]}, not inside")


def test_uniformize_refuses_a_class_with_a_vertex_sum_off_2pi(canonical24_spec):
    # the ascent used to "converge" to a surface with a cone point there
    spec = one_vertex_off_spec(canonical24_spec, 0.05)
    v = canonical24_spec.complex.vertex_of_corner[0]
    _refused_at_both_entries(spec, f"vertex {v} has psi_e sum {2 * np.pi + 0.1:.6f}")


def test_assemble_structure_symmetric(genus2, symmetric_g2_system):
    st = assemble_structure(symmetric_g2_system)
    # every face equilateral with angles pi/9
    a = edge_lengths(np.pi / 9, np.pi / 9, np.pi / 9)[0]
    assert np.allclose(st.edge_lengths, a)
    # circumradius from the right-triangle relation on the half side
    R = np.arctanh(np.tanh(a / 2) / np.cos(np.pi / 18))
    assert np.allclose(st.circumradii, R)
    assert np.allclose(st.intersection_angles, np.pi - 2 * np.pi / 18)


def test_assemble_structure_equilateral_quarter_angles():
    # worked numbers for a single equilateral face shape: angles pi/4,
    # partials pi/8, side arccosh(1 + sqrt 2)
    a = edge_lengths(np.pi / 4, np.pi / 4, np.pi / 4)[0]
    R = np.arctanh(np.tanh(a / 2) / np.cos(np.pi / 8))
    assert np.isclose(a, 1.528571, atol=1e-6)
    assert np.isclose(R, np.arctanh(0.6436 / 0.92388), atol=1e-3)


def test_assemble_rejects_mismatched_lengths(genus2, symmetric_g2_system):
    psi = symmetric_g2_system.psi.copy()
    psi[0] += 0.05
    psi[1] -= 0.05  # keep a valid face but break edge agreement
    bad = AngleSystem(genus2, psi)
    with pytest.raises(LengthMismatch):
        assemble_structure(bad, tol=1e-9)


def _one_heavy_edge_spec(T):
    # one edge gets 2 pi / 3, the rest split the remaining vertex-sum budget
    pe = np.full(T.edge_count, (np.pi - 2 * np.pi / 3) / (T.edge_count - 1))
    pe[0] = 2 * np.pi / 3
    return ConformalClassSpec(T, pe)


def test_negative_partial_circumcenter_beyond_edge(genus2):
    # this maximizer has obtuse corners, hence negative partials; assembly
    # must stay finite with positive circumradii (center beyond the edge)
    y, st, _ = uniformize(_one_heavy_edge_spec(genus2))
    assert (y.psi < 0).any()
    assert np.all(np.isfinite(st.circumradii)) and np.all(st.circumradii > 0)


def test_roundtrip_class_from_structure(canonical24_spec):
    y, st, _ = uniformize(canonical24_spec)
    assert np.max(np.abs(st.psi_edge - canonical24_spec.psi_edge)) < 1e-8
    assert np.max(np.abs((np.pi - st.intersection_angles) - st.psi_edge)) < 1e-12


def test_pattern_encodes_partials(canonical24_spec):
    # the partial angle is the base angle seen from the circumcenter, so the
    # assembled pattern determines cos(psi) per flag through tanh(l/2)/tanh(R)
    y, st, _ = uniformize(canonical24_spec)
    T = st.complex
    for flag in range(3 * T.face_count):
        t = flag // 3
        e = T.edge_of_flag[flag]
        lhs = np.cos(y.psi[flag])
        rhs = np.tanh(st.edge_lengths[e] / 2) / np.tanh(st.circumradii[t])
        assert abs(lhs - rhs) < 1e-9


def test_uniformize_random_feasible_classes():
    # robustness across complexes and classes: every feasible class on a
    # negative-chi complex uniformizes with the area forced by chi
    from diskflow.errors import Infeasible
    from helpers import random_class_spec, random_complex

    rng = np.random.default_rng(20)
    done = 0
    while done < 6:
        T = random_complex(rng, int(rng.choice([6, 8])))
        if T.chi >= 0:
            continue
        try:
            spec = random_class_spec(T, rng)
            y, st, trace = uniformize(spec)
        except (RuntimeError, Infeasible):
            continue
        assert trace[-1].grad_inf < 1e-10
        assert abs(st.total_area + 2 * np.pi * T.chi) < 1e-9
        assert np.max(np.abs(edge_psi(y) - spec.psi_edge)) < 1e-12
        rep = pattern_report(st)
        assert rep.ok
        done += 1


def test_pattern_report(genus2, symmetric_g2_system):
    st = assemble_structure(symmetric_g2_system)
    rep = pattern_report(st)
    assert rep.ok
    assert abs(rep.total_area - 4 * np.pi) < 1e-9
    assert rep.angle_range[0] > 0 and rep.angle_range[1] < np.pi


def test_pattern_report_relabeling(genus2, symmetric_g2_system):
    from diskflow.complexes import build_complex

    st = assemble_structure(symmetric_g2_system)
    rep = pattern_report(st)
    # relabel the faces of the complex and rebuild the same symmetric system
    perm = [3, 1, 5, 0, 4, 2]
    pairs = []
    for a, b in genus2.edges:
        fa, sa = divmod(a, 3)
        fb, sb = divmod(b, 3)
        pairs.append(((perm[fa], sa), (perm[fb], sb)))
    T2 = build_complex(6, pairs)
    st2 = assemble_structure(AngleSystem(T2, np.full(18, np.pi / 18)))
    rep2 = pattern_report(st2)
    assert np.isclose(rep.total_area, rep2.total_area)
    assert np.allclose(sorted(rep.circumradii), sorted(rep2.circumradii))


def test_heavy_edge_intersection_angle(genus2):
    # an edge whose class value is 2 pi / 3 gets intersection angle pi / 3
    _, st, _ = uniformize(_one_heavy_edge_spec(genus2))
    assert np.isclose(st.intersection_angles[0], np.pi / 3, atol=1e-12)


def test_no_convergence_reports_best(canonical24_spec):
    start = find_negative_delaunay(canonical24_spec)  # the primal Newton, which takes steps
    with pytest.raises(NoConvergence) as exc:
        class_ascent(canonical24_spec, start, tol=1e-10, max_iter=2)
    assert exc.value.best is not None
    assert exc.value.trace is not None and len(exc.value.trace) == 2


def test_line_search_stall_reports_best(canonical24_spec, monkeypatch):
    # every candidate of the second iteration is refused, so its line search stalls
    from diskflow.ascent import TraceRecord

    grad, objective = oracles.class_grad, oracles.objective_H
    iterations = []

    def counting_grad(x):
        iterations.append(x)
        return grad(x)

    def refusing_objective(x):
        return objective(x) if len(iterations) < 2 else -np.inf

    start = find_negative_delaunay(canonical24_spec)
    monkeypatch.setattr(oracles, "class_grad", counting_grad)
    monkeypatch.setattr(oracles, "objective_H", refusing_objective)
    with pytest.raises(NoConvergence, match="line search stalled at iteration 1") as exc:
        class_ascent(canonical24_spec, start)
    assert isinstance(exc.value.best, AngleSystem)
    trace = exc.value.trace
    assert isinstance(trace, list) and all(isinstance(r, TraceRecord) for r in trace)
    assert [r.iteration for r in trace] == [0] and trace[0].step > 0


def test_a_member_below_the_margin_floor_is_declined_at_once():
    # a feasible class 1e-2 of the way from the LP's feasibility boundary:
    # the dual finds its root, whose interior margin (8.0e-7) is below the
    # margin floor, and declines with no class ascent after it, so the trace
    # is empty; a class ascent from the LP's member ran its 200 steps there
    spec = near_boundary_class(1e-2)
    with pytest.raises(NoConvergence, match="member below the margin floor") as exc:
        uniformize(spec)
    assert exc.value.trace == []


def test_tol_bounds_the_two_sided_length_mismatch(canonical24_spec):
    # no member's two lengths of an edge agree within 1e-30: the one-row
    # trace comes with the member, and its residual is that member's
    # mismatch; the class gradient is reported, not tested
    with pytest.raises(NoConvergence, match="two-sided length mismatch") as exc:
        uniformize(canonical24_spec, tol=1e-30)
    (row,) = exc.value.trace
    mismatch = float(np.max(un._two_sided_lengths(exc.value.best)[1]))
    assert row.residual == mismatch and 1e-30 <= mismatch < 1e-12
    assert row.grad_inf < TOL


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_sparse_newton_matches_the_dense_oracle(subdivisions, monkeypatch):
    # the same class and LP start, ascended with the sparse LU and with a
    # dense solve of the dense-oracle Hessian: the maximizers agree
    T = genus2_octagon()
    for _ in range(subdivisions):
        T = subdivide(T).complex
    spec = perturbed_canonical_spec(T, np.random.default_rng(subdivisions))
    start = find_negative_delaunay(spec)
    _, st, trace = class_ascent(spec, start)
    monkeypatch.setattr(oracles, "class_hessian_sparse", class_hessian_dense)
    monkeypatch.setattr(oracles, "sparse_solve", np.linalg.solve)
    _, ref, ref_trace = class_ascent(spec, start)
    assert T.face_count == 6 * 4**subdivisions
    assert all(r.newton for r in trace[:-1]) and all(r.newton for r in ref_trace[:-1])
    assert np.max(np.abs(st.edge_lengths - ref.edge_lengths)) <= 1e-12


def test_uniformize_falls_back_cleanly_on_a_singular_hessian(canonical24_spec, monkeypatch):
    # an exactly singular class Hessian declines the Newton step with
    # LinAlgError: the step is a gradient step and no warning is raised
    import warnings

    from scipy import sparse

    hessian, calls = oracles.class_hessian_sparse, []

    def singular_once(y):
        calls.append(y)
        if len(calls) == 1:
            E = y.complex.edge_count
            return sparse.csc_array((E, E))
        return hessian(y)

    start = find_negative_delaunay(canonical24_spec)
    monkeypatch.setattr(oracles, "class_hessian_sparse", singular_once)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, st, trace = class_ascent(canonical24_spec, start)
    *accepted, last = trace
    assert [r.newton for r in accepted] == [False] + [True] * (len(accepted) - 1)
    assert last.grad_inf < TOL
    assert abs(st.total_area - 4 * np.pi) < 1e-9


def _takes_full_newton_steps(subdivisions):
    T = genus2_octagon()
    for _ in range(subdivisions):
        T = subdivide(T).complex
    for seed in range(5):
        spec = perturbed_canonical_spec(T, np.random.default_rng(seed))
        _, _, trace = class_ascent(spec, find_negative_delaunay(spec))
        *accepted, last = trace
        assert all(r.newton and r.step == 1.0 for r in accepted)
        assert sum(r.backtracks for r in trace) == 0
        assert len(accepted) <= 5 and last.grad_inf < TOL


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_centred_lp_start_takes_full_newton_steps(subdivisions):
    # the interior point of the margin LP is centred in its optimal face, so
    # Newton converges from it without a single halving; a vertex of that
    # face, ε from many constraints at once, needs damped steps at F=384
    _takes_full_newton_steps(subdivisions)


def test_dual_and_lp_starts_reach_the_same_structure():
    # the three perturbed F=96 classes of the margin oracle: the dual's
    # member and the class ascent from the margin LP's member reach the
    # same lengths
    rng = np.random.default_rng(12)
    T96 = subdivide(subdivide(genus2_octagon()).complex).complex
    for spec in [perturbed_canonical_spec(T96, rng) for _ in range(3)]:
        _, st, trace = uniformize(spec)
        _, st_lp, trace_lp = class_ascent(spec, find_negative_delaunay(spec))
        assert len(trace) == 1 and len(trace_lp) > 1
        assert np.max(np.abs(st.edge_lengths - st_lp.edge_lengths)) <= 1e-10


# -- the circle-pattern dual ------------------------------------------------------


def _first_feasible_criterion5_classes(count):
    specs = []
    for spec in criterion5_classes(2 * count):
        try:
            find_negative_delaunay(spec)
        except Infeasible:
            continue
        specs.append(spec)
        if len(specs) == count:
            return specs
    raise AssertionError(f"fewer than {count} feasible classes")


def _root_radii(spec) -> np.ndarray:
    """rho = log tanh(R / 2) of the circumradii R of the dual's member."""
    return np.log(np.tanh(assemble_structure(un._dual_member(spec, MAX_ITER)).circumradii / 2))


def _dual_or_none(spec):
    """The dual's member, or None where it declines."""
    try:
        return un._dual_member(spec, MAX_ITER)
    except NoConvergence:
        return None


@pytest.mark.parametrize("which", ["F=24", "criterion 5"])
def test_dual_jacobian_matches_central_differences(canonical24_spec, which):
    # at the seed moved by up to half of itself on every face, as the seed
    # gives all faces one radius, which would hide a swap of a side's two faces
    spec = canonical24_spec if which == "F=24" else _first_feasible_criterion5_classes(1)[0]
    rho = un._seed_radii(spec)
    rho = rho * np.random.default_rng(6).uniform(0.5, 1.5, rho.size)
    p = un._Pattern(un._kite(spec), rho)
    assert np.ptp(p.rho) > 0.1 * np.abs(p.rho).max()
    assert np.max(np.abs(p.G - circle_pattern_residual(spec, p.rho))) <= 1e-12
    J = p.J.toarray()
    assert np.max(np.abs(J - circle_pattern_jacobian_fd(spec, p.rho))) <= 1e-7 * np.abs(J).max()


def test_dual_jacobian_is_symmetric_negative_definite(canonical24_spec):
    kite = un._kite(canonical24_spec)
    seed, root = un._seed_radii(canonical24_spec), _root_radii(canonical24_spec)
    assert np.ptp(root) > 0.0
    for rho in (seed, root):
        J = un._Pattern(kite, rho).J.toarray()
        assert np.max(np.abs(J - J.T)) <= 1e-12 * np.abs(J).max()
        assert np.linalg.eigvalsh(0.5 * (J + J.T)).max() < 0.0


def test_every_dual_iterate_is_a_member_of_the_class(canonical24_spec, monkeypatch):
    ascend, iterates = un.ascend, []

    def recording_ascend(x, *, residual, **kwargs):
        def recorded(p):
            iterates.append(p)
            return residual(p)

        return ascend(x, residual=recorded, **kwargs)

    monkeypatch.setattr(un, "ascend", recording_ascend)
    T96 = subdivide(subdivide(genus2_octagon()).complex).complex
    for spec in (canonical24_spec, perturbed_canonical_spec(T96, np.random.default_rng(4))):
        iterates.clear()
        assert un._dual_member(spec, MAX_ITER) is not None
        assert len(iterates) > 3
        for p in iterates:
            assert np.max(np.abs(edge_psi(p.member(spec.complex)) - spec.psi_edge)) <= CHECK_TOL


def test_the_seed_is_the_root_on_the_symmetric_class(symmetric_g2_system, monkeypatch):
    # every corner is pi / 9 and the six faces are congruent equilateral
    # triangles, so the equilateral seed is already the root: the dual tests
    # it and takes no step
    spec = conformal_class_of(symmetric_g2_system)
    rho = un._seed_radii(spec)
    assert un._Pattern(un._kite(spec), rho).G_ulps < un.DUAL_TOL
    ascend, traces = un.ascend, []

    def recording_ascend(x, **kwargs):
        out = ascend(x, **kwargs)
        traces.append(out[1])
        return out

    monkeypatch.setattr(un, "ascend", recording_ascend)
    y = un._dual_member(spec, MAX_ITER)
    assert [len(t) for t in traces] == [1]
    assert np.max(np.abs(y.psi - symmetric_g2_system.psi)) <= 1e-15
    assert np.max(np.abs(_root_radii(spec) - rho)) <= 1e-14


def test_the_dual_converges_exactly_on_the_lp_feasible_classes():
    # criterion 5's stream: the dual, seeded from the class alone, finds a
    # member on every class the margin LP accepts and on no other; the seed
    # itself declines every class whose mean defect U is below the floor
    feasible = converged = no_seed = 0
    for spec in criterion5_classes(300):
        try:
            find_negative_delaunay(spec)
            ok = True
        except Infeasible:
            ok = False
        dual = _dual_or_none(spec) is not None
        assert dual == ok
        feasible += ok
        converged += dual
        no_seed += un._seed_radii(spec) is None
    assert (feasible, converged, no_seed) == (189, 189, 109)


@pytest.mark.parametrize("subdivisions", [2, 3])
def test_the_dual_reaches_the_primal_maximizer(subdivisions):
    # the dual's member is accepted as it is, and the primal Newton from
    # find_negative_delaunay's member, taken below the default tolerance,
    # reaches the same lengths
    T = genus2_octagon()
    for _ in range(subdivisions):
        T = subdivide(T).complex
    for seed in range(3):
        spec = perturbed_canonical_spec(T, np.random.default_rng(seed))
        _, st, trace = uniformize(spec)
        _, ref, _ = class_ascent(spec, find_negative_delaunay(spec), tol=1e-12)
        assert len(trace) == 1 and trace[0].grad_inf < TOL
        assert np.max(np.abs(st.edge_lengths - ref.edge_lengths)) <= 1e-12


def test_the_dual_agrees_with_the_primal_on_random_classes():
    # criterion 5's first 100 feasible classes; the primal stops once its
    # class gradient is below the default tol, at up to 7e-11 on these small
    # classes, which leaves its lengths up to 2.3e-11 from the dual's
    for spec in _first_feasible_criterion5_classes(100):
        _, st, _ = uniformize(spec)
        _, ref, _ = class_ascent(spec, find_negative_delaunay(spec))
        assert np.max(np.abs(st.edge_lengths - ref.edge_lengths)) <= 1e-10


def test_a_declining_dual_keeps_the_lp_verdicts_and_names_its_reason(monkeypatch):
    # every factorization of the dual is singular, so it declines on every
    # class that needs a step: the margin LP still refuses each infeasible
    # class with its margin, and each feasible one ends in NoConvergence
    # that names the singular Jacobian, with an empty trace and no warning
    import warnings

    specs = criterion5_classes(40)
    declined = []

    def singular(A):
        declined.append(A.shape[0])
        raise np.linalg.LinAlgError("singular")

    def outcomes():
        out = []
        for spec in specs:
            try:
                out.append(uniformize(spec)[1])
            except (Infeasible, NoConvergence) as exc:
                out.append(exc)
        return out

    dual = outcomes()
    monkeypatch.setattr(un, "factorized", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singular_dual = outcomes()
    kinds = {type(a) for a in dual}
    assert declined and kinds == {HyperbolicStructure, Infeasible}
    for a, b in zip(dual, singular_dual):
        if isinstance(a, HyperbolicStructure):
            assert isinstance(b, NoConvergence) and b.trace == []
            assert str(b).startswith("circle-pattern Newton declined: singular Jacobian")
        else:
            assert isinstance(b, Infeasible) and (str(a), a.margin) == (str(b), b.margin)


def _counted_dual(spec, monkeypatch):
    """The dual's member, its number of factorizations of J and of Newton steps."""
    factor, ascend, counts = un.factorized, un.ascend, {"lu": 0}

    def counting_factor(A):
        counts["lu"] += 1
        return factor(A)

    def counting_ascend(x, **kwargs):
        out = ascend(x, **kwargs)
        counts["steps"] = len(out[1]) - 1
        return out

    monkeypatch.setattr(un, "factorized", counting_factor)
    monkeypatch.setattr(un, "ascend", counting_ascend)
    return un._dual_member(spec, MAX_ITER), counts["lu"], counts["steps"]


def _canonical_f384_spec():
    T = subdivide(subdivide(subdivide(genus2_octagon()).complex).complex).complex
    deg = np.array([len(c) for c in T.corners_of_vertex])
    corner = 2 * np.pi / deg[T.vertex_of_corner]
    return conformal_class_of(partials_from_angles(T, corner.reshape(-1, 3)))


def test_the_dual_factors_its_jacobian_once(monkeypatch):
    # the first Newton step factors J; every later direction is CG
    # preconditioned by that factor, within its cap
    spec = _canonical_f384_spec()
    y, lu, steps = _counted_dual(spec, monkeypatch)
    assert spec.complex.face_count == 384 and y is not None
    assert lu == 1 and steps >= 2


def test_a_cg_cap_of_zero_refactors_every_step(monkeypatch):
    # CG that may not iterate misses every target, so each step refactors J
    # at its iterate and solves directly: the same steps reach the same member
    spec = _canonical_f384_spec()
    y, _, steps = _counted_dual(spec, monkeypatch)
    monkeypatch.setattr(un, "CG_MAX_ITER", 0)
    y0, lu0, steps0 = _counted_dual(spec, monkeypatch)
    assert lu0 == steps0 == steps
    assert np.max(np.abs(y0.psi - y.psi)) <= 1e-13


def test_the_dual_matches_one_lu_per_step_on_random_classes():
    # criterion 5's stream: the inexact directions and a fresh LU at every
    # step give the same verdicts and the same members
    converged = 0
    for spec in criterion5_classes(300):
        y, ref = _dual_or_none(spec), dual_member_lu_each_step(spec, MAX_ITER)
        assert (y is None) == (ref is None)
        if y is not None:
            converged += 1
            assert np.max(np.abs(y.psi - ref.psi)) <= 1e-12
    assert converged == 189
