"""Time-reversal duality: nabla on T is delta on -T.

Reflecting t -> -t turns a problem in the direction u on the grid ts into
the problem in the direction -u on the grid -ts[::-1], with the integrand
L(-t, -y, v) and the boundary values swapped; its trajectory is the
original one reversed. Per step the reflection is exact: the steps are the
same floats, the slopes are exact negations and the V slot is the same
float, so the residual formulas of the two directions must agree bit for
bit, up to the order of the points. The functional sums the same products
in the reverse order, and a solve reverses the tridiagonal systems, so
those agree to rounding.

The V slot of a trajectory's record is also the paper's contingent
epiderivative of the trajectory's piecewise-linear extension, in closed
form, at each base point.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scales
from tsvar import (
    GridFunction,
    Lagrangian,
    Problem,
    TimeScale,
    el_residual,
    epiderivative_closed,
    extend,
    functional_value,
    solve,
)
from tsvar.errors import TsvarError
from tsvar.variational import _Iterate

# smooth everywhere, so every random trajectory can be evaluated
INTEGRANDS = [
    "v^2 + sin(t)*y",
    "v^2/2 + cos(y)/4 + t*y",
    "exp(y/4)*sqrt(1 + v^2)",
    "v^2 + y*log(2 + t^2)",
    "exp(v/2) + exp(-v/2) + y^2/4 - cos(t)*y",
]

directions = st.builds(
    lambda size, sign: sign * size,
    st.floats(min_value=0.3, max_value=2.5).filter(lambda x: x != 1.0),
    st.sampled_from([1.0, -1.0]))


def reflected_text(text: str) -> str:
    """The integrand L(-t, -y, v) of L(t, y, v), as text."""
    return re.sub(r"\b([ty])\b", r"(-\1)", text)


def pair(scale: TimeScale, u: float, text: str, alpha: float, beta: float,
         h: float) -> tuple[Problem, Problem]:
    """A problem and its reflection; the reflected scale is the discrete
    scale of the reflected grid."""
    p = Problem(scale=scale, u=u, L=Lagrangian.from_text(text),
                alpha=alpha, beta=beta, h=h)
    ts = p.discretized().points
    q = Problem(scale=TimeScale.of_points(*(-ts[::-1])), u=-u,
                L=Lagrangian.from_text(reflected_text(text)),
                alpha=beta, beta=alpha, h=h)
    return p, q


def on_grid(problem: Problem, values) -> GridFunction:
    return GridFunction(problem.discretized(), values)


@st.composite
def trajectories(draw):
    """A problem, its reflection, and a trajectory of the problem that
    meets its boundary values."""
    scale = draw(scales())
    h = draw(st.sampled_from([0.2, 0.35, 0.5]))
    u, text = draw(directions), draw(st.sampled_from(INTEGRANDS))
    n = len(scale.discretize(h).points)
    ys = draw(st.lists(st.floats(min_value=-1.5, max_value=1.5),
                       min_size=n, max_size=n))
    p, q = pair(scale, u, text, ys[0], ys[-1], h)
    return p, q, np.array(ys)


def test_reflected_text_replaces_whole_names_only():
    assert reflected_text("sqrt(t*y) + exp(v)") == "sqrt((-t)*(-y)) + exp(v)"


@settings(max_examples=80, deadline=None)
@given(trajectories())
def test_reflected_residual_is_the_reversed_residual(case):
    p, q, ys = case
    if len(ys) < 3:
        return
    res_p = el_residual(p, on_grid(p, ys))
    res_q = el_residual(q, on_grid(q, ys[::-1]))
    assert np.array_equal(res_q.values, res_p.values[::-1])
    assert np.array_equal(res_q.grid.points, -res_p.grid.points[::-1])


@settings(max_examples=80, deadline=None)
@given(trajectories())
def test_reflected_functional_changes_sign(case):
    p, q, ys = case
    at = _Iterate(p.L, p.u, p.discretized().points, ys)
    total = float(np.sum(np.abs(p.u * at.values("L") * at.args[3])))
    value_p = functional_value(p, on_grid(p, ys))
    value_q = functional_value(q, on_grid(q, ys[::-1]))
    assert abs(value_q + value_p) <= 4 * np.finfo(float).eps * total


@settings(max_examples=60, deadline=None)
@given(scales(), st.sampled_from([0.1, 0.2, 0.35]), directions,
       st.sampled_from(INTEGRANDS), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_reflected_solve_is_the_reversed_solve(scale, h, u, text, alpha, beta):
    p, q = pair(scale, u, text, alpha, beta, h)
    try:
        sol_p = solve(p)
    except TsvarError as err:
        with pytest.raises(type(err)):
            solve(q)
        return
    sol_q = solve(q)
    ys = sol_p.y.values
    gap = float(np.max(np.abs(sol_q.y.values[::-1] - ys)))
    assert gap <= 1e-12 * (1.0 + float(np.max(np.abs(ys))))


@settings(max_examples=80, deadline=None)
@given(trajectories())
def test_v_slot_is_the_closed_form_epiderivative(case):
    # in both directions, and on the reflection too
    for problem, ys in (case[0], case[2]), (case[1], case[2][::-1]):
        ts, u = problem.discretized().points, problem.u
        tA, _, V, _ = _Iterate(problem.L, u, ts, ys).args
        fbar = extend(on_grid(problem, ys))
        want = [epiderivative_closed(fbar, t, u) for t in tA.tolist()]
        assert V.tolist() == want
