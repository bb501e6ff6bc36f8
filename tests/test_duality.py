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

Outside the Newton record the same reflection pairs every delta notion
with its nabla mirror: sigma with rho, mu with nu, the two kappa cuts, the
two derivatives, integrals and shifts, the epiderivative in the direction u
with the one in -u, and the isoperimetric solve with its reflection, whose
constraint value changes sign with the functional.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import probe_points, scales
from tsvar import (
    GridFunction,
    IsoProblem,
    Lagrangian,
    PLFunction,
    Problem,
    SampleGrid,
    Segment,
    TimeScale,
    contingent_cone_epi,
    delta_deriv,
    delta_integral,
    el_residual,
    epiderivative_closed,
    epiderivative_liminf,
    extend,
    functional_value,
    liminf_params,
    nabla_deriv,
    nabla_integral,
    shift_rho,
    shift_sigma,
    solve,
    solve_iso,
)
from tsvar.errors import IterationLimitError, TsvarError
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


def same_outcome(call, mirrored_call):
    """Both results, or None when both sides raise the same error class."""
    try:
        got = call()
    except TsvarError as err:
        with pytest.raises(type(err)):
            mirrored_call()
        return None
    return got, mirrored_call()


def assert_reversed(sol_p, sol_q) -> None:
    """The mirrored solve's trajectory is the original one reversed, to
    rounding: a solve reverses its tridiagonal systems."""
    ys = sol_p.y.values
    gap = float(np.max(np.abs(sol_q.y.values[::-1] - ys)))
    assert gap <= 1e-12 * (1.0 + float(np.max(np.abs(ys))))


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
    sols = same_outcome(lambda: solve(p), lambda: solve(q))
    if sols is not None:
        assert_reversed(*sols)


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


# -- the mirror of every delta/nabla pair outside the Newton record ----------------

def mirror_scale(scale: TimeScale) -> TimeScale:
    """-T: each segment reflected, in reverse order."""
    return TimeScale(tuple(Segment(-s.right, -s.left) for s in reversed(scale.segments)))


def mirror_function(f: GridFunction) -> GridFunction:
    """t -> f(-t) on the reflected grid."""
    return GridFunction(SampleGrid(-f.grid.points[::-1], f.grid.dense_flags[::-1]),
                        f.values[::-1])


def mirror_pl(fbar: PLFunction) -> PLFunction:
    return PLFunction(tuple(-x for x in reversed(fbar.breakpoints)), fbar.values[::-1])


@st.composite
def pl_queries(draw):
    """A piecewise-linear function and a query (t, u): t at a breakpoint or
    well inside a piece, u of either sign, tiny, or 0."""
    n = draw(st.integers(min_value=2, max_value=8))
    x = draw(st.floats(min_value=-3.0, max_value=3.0))
    bps = [x]
    for _ in range(n - 1):
        x += draw(st.floats(min_value=0.05, max_value=1.0))
        bps.append(x)
    vals = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    if i < n - 1 and draw(st.booleans()):
        t = bps[i] + draw(st.floats(min_value=0.25, max_value=0.75)) * (bps[i + 1] - bps[i])
    else:
        t = bps[i]
    u = draw(st.one_of(st.just(0.0), directions, st.sampled_from([1e-320, -1e-300]),
                       st.floats(min_value=-50.0, max_value=50.0)))
    return PLFunction(tuple(bps), tuple(vals)), t, u


@settings(max_examples=400, deadline=None)
@given(pl_queries())
def test_mirrored_epiderivative(case):
    fbar, t, u = case
    mirror = mirror_pl(fbar)
    closed = epiderivative_closed(fbar, t, u)
    assert epiderivative_closed(mirror, -t, -u) == closed  # infinities included
    params = same_outcome(lambda: liminf_params(fbar, t, u),
                          lambda: liminf_params(mirror, -t, -u))
    if params is None:
        return
    assert params[1] == params[0]
    estimates = same_outcome(lambda: epiderivative_liminf(fbar, t, u, *params[0]),
                             lambda: epiderivative_liminf(mirror, -t, -u, *params[0]))
    if estimates is None:
        return
    # interpolation rounds from the other end, so the estimates agree with
    # the closed form to rounding only
    for got in estimates:
        if math.isinf(closed):
            assert got == closed
        else:
            assert abs(got - closed) <= 1e-9 * max(1.0, abs(closed))


@settings(max_examples=100, deadline=None)
@given(pl_queries(), st.floats(min_value=-3.0, max_value=3.0))
def test_mirrored_cone_swaps_and_negates_its_slopes(case, v):
    fbar, _, u = case
    for t in fbar.breakpoints:
        cone = contingent_cone_epi(fbar, t, fbar.eval(t))
        mirrored = contingent_cone_epi(mirror_pl(fbar), -t, fbar.eval(t))
        assert not (cone.interior or mirrored.interior)
        flip = [s if math.isinf(s) else -s for s in (cone.slope_right, cone.slope_left)]
        assert [mirrored.slope_left, mirrored.slope_right] == flip
        assert mirrored.contains(-u, v) == cone.contains(u, v)


@settings(max_examples=300, deadline=None)
@given(scales(max_segments=5))
def test_mirrored_time_scale(scale):
    mirror = mirror_scale(scale)
    for t in probe_points(scale, per_segment=7):
        assert scale.sigma(t) == -mirror.rho(-t)
        assert scale.rho(t) == -mirror.sigma(-t)
        assert scale.mu(t) == mirror.nu(-t)
        c, m = scale.classify(t), mirror.classify(-t)
        assert (c.right_scattered, c.left_scattered) == (m.left_scattered, m.right_scattered)
    assert mirror_scale(scale.truncate_kappa()) == mirror.truncate_kappa_sub()
    assert mirror_scale(scale.truncate_kappa_sub()) == mirror.truncate_kappa()
    kk2 = same_outcome(scale.interior_kk2, mirror.interior_kk2)
    if kk2 is not None:
        assert mirror_scale(kk2[0]) == kk2[1]


@st.composite
def sampled(draw):
    """A function sampled on the grid of a random scale; its values may be
    large enough that sums overflow."""
    grid = draw(scales()).discretize(draw(st.sampled_from([0.2, 0.5, 1.0])))
    n = len(grid.points)
    size = draw(st.sampled_from([2.0, 1e308]))
    values = draw(st.lists(st.floats(min_value=-size, max_value=size),
                           min_size=n, max_size=n))
    return GridFunction(grid, values)


@settings(max_examples=300, deadline=None)
@given(sampled())
def test_mirrored_calculus(f):
    mirror = mirror_function(f)
    derivs = same_outcome(lambda: delta_deriv(f), lambda: nabla_deriv(mirror))
    if derivs is not None:
        d, n = derivs
        assert np.array_equal(d.grid.points, -n.grid.points[::-1])
        assert np.array_equal(d.values, -n.values[::-1])
    pts = f.grid.points.tolist()
    for c, d in (pts[0], pts[-1]), (pts[0], pts[len(pts) // 2]):
        assert delta_integral(f, c, d) == nabla_integral(mirror, -d, -c)
    s, r = shift_sigma(f), shift_rho(mirror)
    assert np.array_equal(s.grid.points, -r.grid.points[::-1])
    assert np.array_equal(s.values, r.values[::-1])


# -- the isoperimetric mirror -----------------------------------------------------

CONSTRAINTS = ["y", "y^2/2 + t*y", "v^2/4 + sin(t)*y", "y*exp(y/3)", "cos(y) + y"]


@st.composite
def solvable_scales(draw):
    """Scales whose grid has an interior at the steps drawn below: one
    interval of length at least 1, between random segments."""
    left, right = draw(scales(max_segments=2)), draw(scales(max_segments=2))
    start = left.b + draw(st.floats(min_value=0.25, max_value=1.0))
    core = Segment(start, start + draw(st.floats(min_value=1.0, max_value=2.0)))
    shift = core.right + 0.25 - right.a
    tail = [Segment(s.left + shift, s.right + shift) for s in right.segments]
    return TimeScale((*left.segments, core, *tail))


@settings(max_examples=200, deadline=None)
@given(solvable_scales(), st.sampled_from([0.1, 0.2]), directions, directions,
       st.sampled_from(INTEGRANDS), st.sampled_from(CONSTRAINTS),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0))
def test_reflected_solve_iso_is_the_reversed_solve(scale, h, u, w, text, gtext,
                                                   alpha, beta, k):
    p, q = pair(scale, u, text, alpha, beta, h)
    iso_p = IsoProblem(scale=p.scale, u=u, L=p.L, alpha=alpha, beta=beta, h=h,
                       G=Lagrangian.from_text(gtext), w=w, K=k)
    iso_q = IsoProblem(scale=q.scale, u=-u, L=q.L, alpha=beta, beta=alpha, h=h,
                       G=Lagrangian.from_text(reflected_text(gtext)), w=-w, K=-k)
    outcomes = []
    for iso in iso_p, iso_q:
        try:
            # nearly every drawn problem that converges takes far fewer than
            # 30 steps; the cap keeps the others from dominating the run time
            outcomes.append(solve_iso(iso, max_iter=30))
        except TsvarError as err:
            outcomes.append(err)
    sol_p, sol_q = outcomes
    failed = [isinstance(s, TsvarError) for s in outcomes]
    if all(failed):
        assert type(sol_q) is type(sol_p)
        return
    # A long damped Newton path can drift apart on the two sides: the
    # reversed tridiagonal solves round differently, a line search then
    # accepts other steps, and the sides take different step counts and stop
    # at different points within the tolerance. Such draws are rare and say
    # nothing about the mirror; a path that never mirrors discards them all.
    if any(failed):
        err = sol_p if failed[0] else sol_q
        assume(not isinstance(err, IterationLimitError))
        raise err  # the other side solved
    assume(sol_q.iterations == sol_p.iterations)
    assert_reversed(sol_p, sol_q)
    assert (sol_q.lam0, sol_q.normal_flag) == (sol_p.lam0, sol_p.normal_flag)
    assert abs(sol_q.lam - sol_p.lam) <= 1e-10 * abs(sol_p.lam)
