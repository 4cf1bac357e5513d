import dataclasses
import warnings

import numpy as np
import pytest
from scipy import sparse

from diskflow.ascent import ascend, grounded_solve, sparse_solve
from diskflow.errors import NoConvergence, OutOfDomain
from diskflow.smoothflow import log_ricci_flow
from diskflow.uniformize import uniformize


def _quadratic_ascent(upper=np.inf, rejected=None, max_iter=5):
    # maximize -(x - 1)^2 on x < upper from 0 along a direction four times
    # the Newton step: the unit step lands on 4 and step 1/2 on 2, neither
    # gains (or both leave the domain), so step 1/4 is accepted after two
    # halvings and reaches the maximum
    def objective(x):
        if x[0] >= upper:
            if rejected is not None:
                rejected.append(float(x[0]))
            raise OutOfDomain(f"x = {x[0]} is not below {upper}")
        return -float((x[0] - 1.0) ** 2)

    return ascend(
        np.zeros(1),
        objective=objective,
        gradient=lambda x: -2.0 * (x - 1.0),
        residual=lambda x: abs(float(x[0]) - 1.0),
        converged=lambda grad_inf, r: r < 1e-12,
        newton_dir=lambda x, g: 2.0 * g,
        fallback_dir=lambda x, g: g,
        move=lambda x, step, d: x + step * d,
        max_iter=max_iter,
    )


def test_trace_counts_step_halvings():
    x, trace = _quadratic_ascent()
    assert x[0] == 1.0
    first, last = trace
    assert (first.step, first.backtracks, first.newton) == (0.25, 2, True)
    assert (last.step, last.backtracks) == (0.0, 0)


def test_out_of_domain_candidates_are_halved():
    rejected = []
    x, trace = _quadratic_ascent(upper=1.5, rejected=rejected)
    assert rejected == [4.0, 2.0]  # each raised once, and each was halved
    assert x[0] == 1.0
    assert (trace[0].step, trace[0].backtracks) == (0.25, 2)
    assert trace == _quadratic_ascent()[1]


def test_out_of_domain_start_propagates():
    with pytest.raises(OutOfDomain, match="not below 0.0"):
        _quadratic_ascent(upper=0.0)


def test_trace_records_elapsed_time_outside_equality():
    _, trace = _quadratic_ascent()
    elapsed = [r.elapsed for r in trace]
    assert 0.0 <= elapsed[0] <= elapsed[1]
    assert dataclasses.replace(trace[0], elapsed=elapsed[0] + 1.0) == trace[0]


@pytest.mark.parametrize(
    "A",
    [
        sparse.csc_array((3, 3)),
        sparse.csc_array(np.ones((3, 3))),
        sparse.csr_array(np.diag([1.0, 0.0, 2.0])),
        sparse.csc_array(np.diag([1.0, np.nan, 2.0])),
    ],
)
def test_sparse_solve_declines_singular_systems_without_warning(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            sparse_solve(A, np.ones(3))


def test_sparse_solve_declines_a_non_finite_solution():
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        sparse_solve(sparse.csc_array(np.diag([1.0, 2.0])), np.array([1.0, np.inf]))


def _path_laplacian(n: int) -> sparse.csr_array:
    """Laplacian of the path graph on n vertices: symmetric, kernel the constants."""
    degree = np.r_[1.0, np.full(n - 2, 2.0), 1.0]
    return sparse.diags_array([-np.ones(n - 1), degree, -np.ones(n - 1)], offsets=[-1, 0, 1]).tocsr()


@pytest.mark.parametrize("fmt", ["csr", "csc"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sparse_solve_matches_a_dense_solve_on_definite_systems(sign, fmt):
    A = (sign * (_path_laplacian(50) + sparse.eye_array(50))).asformat(fmt)  # definite, of either sign
    b = np.random.default_rng(8).normal(size=50)
    x = sparse_solve(A, b)
    want = np.linalg.solve(A.toarray(), b)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.abs(want).max()


def test_grounded_solve_pins_vertex_zero_and_solves_a_laplacian():
    L = _path_laplacian(30)
    b = np.random.default_rng(9).normal(size=30)
    b -= b.mean()
    x = grounded_solve(L, b)
    assert x[0] == 0.0
    assert np.max(np.abs(L @ x - b)) < 1e-12


# each solver from a start it does not accept as converged: uniformize's
# circle-pattern dual from its seed, which needs steps on the F=24 class
STEP_CAP_SOLVERS = {
    "ascend": lambda request, max_iter: _quadratic_ascent(max_iter=max_iter),
    "uniformize": lambda request, max_iter: uniformize(
        request.getfixturevalue("canonical24_spec"), max_iter=max_iter
    ),
    "log_ricci_flow": lambda request, max_iter: log_ricci_flow(
        request.getfixturevalue("cone14_unit"), 1e-3 * np.arange(14.0), max_iter=max_iter
    ),
}


@pytest.mark.parametrize("solver", list(STEP_CAP_SOLVERS))
def test_negative_step_cap_is_rejected(solver, request):
    run = STEP_CAP_SOLVERS[solver]
    with pytest.raises(ValueError, match="max_iter must be at least 0, got -1"):
        run(request, -1)
    # a cap of 0 tests the start alone
    with pytest.raises(NoConvergence, match="no convergence in 0 iterations"):
        run(request, 0)
