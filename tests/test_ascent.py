import dataclasses

import numpy as np

from diskflow.ascent import ascend


def _quadratic_ascent():
    # maximize -(x - 1)^2 from 0 along a direction four times the Newton
    # step: the unit step lands on 4 and step 1/2 on 2, neither gains, so
    # step 1/4 is accepted after two halvings and reaches the maximum
    return ascend(
        np.zeros(1),
        objective=lambda x: -float((x[0] - 1.0) ** 2),
        gradient=lambda x: -2.0 * (x - 1.0),
        residual=lambda x: abs(float(x[0]) - 1.0),
        converged=lambda grad_inf, r: r < 1e-12,
        newton_dir=lambda x, g: 2.0 * g,
        fallback_dir=lambda x, g: g,
        in_domain=lambda x: True,
        move=lambda x, step, d: x + step * d,
        max_iter=5,
    )


def test_trace_counts_step_halvings():
    x, trace = _quadratic_ascent()
    assert x[0] == 1.0
    first, last = trace
    assert (first.step, first.backtracks, first.newton) == (0.25, 2, True)
    assert (last.step, last.backtracks) == (0.0, 0)


def test_trace_records_elapsed_time_outside_equality():
    _, trace = _quadratic_ascent()
    elapsed = [r.elapsed for r in trace]
    assert 0.0 <= elapsed[0] <= elapsed[1]
    assert dataclasses.replace(trace[0], elapsed=elapsed[0] + 1.0) == trace[0]
