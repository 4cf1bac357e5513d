import inspect

import numpy as np
import pytest

from diskflow.angles import (
    AngleSystem,
    ConformalClassSpec,
    conformal_class_of,
    edge_psi,
    find_negative_delaunay,
    is_delaunay,
    is_negatively_curved,
)
from diskflow.complexes import build_complex, genus2_octagon, subdivide
from diskflow.errors import Infeasible, LengthMismatch
from diskflow.hyperbolic import edge_lengths
from diskflow.uniformize import assemble_structure, pattern_report, uniformize

from helpers import octahedron, perturbed_canonical_spec
from oracles import class_basis, class_newton_dense

DEFAULTS = inspect.signature(uniformize).parameters
TOL, MAX_ITER = DEFAULTS["tol"].default, DEFAULTS["max_iter"].default


def test_symmetric_start_is_fixed_point(genus2, symmetric_g2_system):
    spec = conformal_class_of(symmetric_g2_system)
    y, st, trace = uniformize(spec, start=symmetric_g2_system)
    assert len(trace) <= 2
    assert np.max(np.abs(y.psi - symmetric_g2_system.psi)) < 1e-12
    assert np.ptp(st.edge_lengths) < 1e-12


def test_uniformize_symmetric_class_from_lp_start(genus2, symmetric_g2_system):
    # the LP start differs from the symmetric point, but the maximizer is the
    # symmetric structure: all edge lengths must come out equal
    spec = conformal_class_of(symmetric_g2_system)
    y, st, trace = uniformize(spec)
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
    y2, _, _ = uniformize(canonical24_spec, start=pert)
    assert np.max(np.abs(y1.psi - y2.psi)) < 1e-8


def test_uniformize_infeasible_class():
    T = octahedron()
    spec = ConformalClassSpec(T, np.full(T.edge_count, np.pi / 2))
    with pytest.raises(Infeasible):
        uniformize(spec)


def test_uniformize_refuses_the_empty_complex():
    # its hyperbolic area -2 pi chi is 0; the equal-area start would divide by F = 0
    spec = ConformalClassSpec(build_complex(0, []), [])
    for solve in (find_negative_delaunay, uniformize):
        with pytest.raises(Infeasible, match="the empty complex has area 0") as info:
            solve(spec)
        assert info.value.margin is None


def test_uniformize_rejects_start_outside_class(genus2, symmetric_g2_system):
    spec = conformal_class_of(symmetric_g2_system)
    shifted = AngleSystem(genus2, symmetric_g2_system.psi + 0.01)
    with pytest.raises(ValueError):
        uniformize(spec, start=shifted)


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
    from diskflow.errors import NoConvergence

    with pytest.raises(NoConvergence) as exc:
        uniformize(canonical24_spec, tol=1e-10, max_iter=2)
    assert exc.value.best is not None
    assert exc.value.trace is not None and len(exc.value.trace) == 2


def test_line_search_stall_reports_best(canonical24_spec, monkeypatch):
    # every candidate of the second iteration is refused, so its line search stalls
    import importlib

    from diskflow.ascent import TraceRecord
    from diskflow.errors import NoConvergence

    un = importlib.import_module("diskflow.uniformize")  # the package attribute is the function
    grad, objective = un.class_grad, un.objective_H
    iterations = []

    def counting_grad(x):
        iterations.append(x)
        return grad(x)

    def refusing_objective(x):
        return objective(x) if len(iterations) < 2 else -np.inf

    monkeypatch.setattr(un, "class_grad", counting_grad)
    monkeypatch.setattr(un, "objective_H", refusing_objective)
    with pytest.raises(NoConvergence, match="line search stalled at iteration 1") as exc:
        uniformize(canonical24_spec)
    assert isinstance(exc.value.best, AngleSystem)
    trace = exc.value.trace
    assert isinstance(trace, list) and all(isinstance(r, TraceRecord) for r in trace)
    assert [r.iteration for r in trace] == [0] and trace[0].step > 0


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_sparse_newton_matches_the_dense_oracle(subdivisions, monkeypatch):
    # the same class and LP start, ascended with the sparse LU and with a
    # dense solve of the dense-oracle Hessian: the maximizers agree
    import importlib

    from diskflow.complexes import genus2_octagon, subdivide

    T = genus2_octagon()
    for _ in range(subdivisions):
        T = subdivide(T).complex
    spec = perturbed_canonical_spec(T, np.random.default_rng(subdivisions))
    start = find_negative_delaunay(spec)
    _, st, trace = uniformize(spec, start=start)
    un = importlib.import_module("diskflow.uniformize")
    monkeypatch.setattr(un, "_newton", class_newton_dense)
    _, ref, ref_trace = uniformize(spec, start=start)
    assert T.face_count == 6 * 4**subdivisions
    assert all(r.newton for r in trace[:-1]) and all(r.newton for r in ref_trace[:-1])
    assert np.max(np.abs(st.edge_lengths - ref.edge_lengths)) <= 1e-12


def test_uniformize_falls_back_cleanly_on_a_singular_hessian(canonical24_spec, monkeypatch):
    # an exactly singular class Hessian declines the Newton step with
    # LinAlgError: the step is a gradient step and no warning is raised
    import importlib
    import warnings

    from scipy import sparse

    un = importlib.import_module("diskflow.uniformize")
    hessian, calls = un.class_hessian_sparse, []

    def singular_once(y):
        calls.append(y)
        if len(calls) == 1:
            E = y.complex.edge_count
            return sparse.csc_array((E, E))
        return hessian(y)

    monkeypatch.setattr(un, "class_hessian_sparse", singular_once)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, st, trace = uniformize(canonical24_spec)
    *accepted, last = trace
    assert [r.newton for r in accepted] == [False] + [True] * (len(accepted) - 1)
    assert last.grad_inf < TOL
    assert abs(st.total_area - 4 * np.pi) < 1e-9


def _takes_full_newton_steps(subdivisions):
    T = genus2_octagon()
    for _ in range(subdivisions):
        T = subdivide(T).complex
    for seed in range(5):
        _, _, trace = uniformize(perturbed_canonical_spec(T, np.random.default_rng(seed)))
        *accepted, last = trace
        assert all(r.newton and r.step == 1.0 for r in accepted)
        assert sum(r.backtracks for r in trace) == 0
        assert len(accepted) <= 5 and last.grad_inf < TOL


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_centred_lp_start_takes_full_newton_steps(subdivisions, monkeypatch):
    # the interior point of the margin LP is centred in its optimal face, so
    # Newton converges from it without a single halving; a vertex of that
    # face, ε from many constraints at once, needs damped steps at F=384.
    # The equal-area start is declined so that every class reaches the LP.
    import diskflow.angles

    monkeypatch.setattr(diskflow.angles, "equal_area_start", lambda spec: None)
    _takes_full_newton_steps(subdivisions)


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_equal_area_start_takes_full_newton_steps(subdivisions):
    # the default start: the equal-area member where it certifies (F=96 and
    # F=384 here), the LP's interior point otherwise (F=24)
    _takes_full_newton_steps(subdivisions)


def test_equal_area_and_lp_starts_reach_the_same_structure(monkeypatch):
    # the three perturbed F=96 classes of the margin oracle, where the
    # equal-area start is certified; the LP start is forced by declining it
    import diskflow.angles

    rng = np.random.default_rng(12)
    T96 = subdivide(subdivide(genus2_octagon()).complex).complex
    specs = [perturbed_canonical_spec(T96, rng) for _ in range(3)]
    runs = []
    for spec in specs:
        assert diskflow.angles.equal_area_start(spec) is not None
        runs.append(uniformize(spec))
    monkeypatch.setattr(diskflow.angles, "equal_area_start", lambda spec: None)
    for spec, (_, st, trace) in zip(specs, runs):
        _, st_lp, trace_lp = uniformize(spec)
        assert len(trace) == len(trace_lp)
        assert np.max(np.abs(st.edge_lengths - st_lp.edge_lengths)) <= 1e-10
