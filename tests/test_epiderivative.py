import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import discrete_scales, grid_values, random_pl
from tsvar import (
    GridFunction,
    PLFunction,
    TimeScale,
    contingent_cone_epi,
    delta_deriv,
    epiderivative_closed,
    epiderivative_liminf,
    extend,
    liminf_params,
    nabla_deriv,
)
from tsvar.errors import DomainError, ParameterError, PointNotInSetError

VEE = PLFunction((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))  # |t - 1| on [0, 2]
CHORD = PLFunction((0.0, 1.0), (0.0, 2.0))


class TestExtend:
    def test_chord_across_gap(self):
        grid = TimeScale.of_points(0, 1).discretize(1.0)
        fbar = extend(GridFunction(grid, (0.0, 2.0)))
        assert fbar.eval(0.5) == 1.0

    def test_dense_identity(self):
        grid = TimeScale.interval(0, 1).discretize(0.1)
        fbar = extend(GridFunction.sample(grid, lambda t: t))
        for t in grid.points:
            assert fbar.eval(t) == t

    def test_linearity(self):
        rng = random.Random(7)
        grid = TimeScale.of_points(0.0, 0.5, 1.3, 2.0).discretize(1.0)
        f = GridFunction(grid, tuple(rng.uniform(-1, 1) for _ in range(4)))
        g = GridFunction(grid, tuple(rng.uniform(-1, 1) for _ in range(4)))
        a, b = 1.5, -2.25
        combo = GridFunction(grid, tuple(a * x + b * y for x, y in zip(f.values, g.values)))
        fb, gb, cb = extend(f), extend(g), extend(combo)
        for k in range(21):
            t = 2.0 * k / 20
            assert cb.eval(t) == pytest.approx(a * fb.eval(t) + b * gb.eval(t), abs=1e-12)


class TestValidation:
    """PLFunction's checks, in order, with their messages."""

    @pytest.mark.parametrize("breakpoints, values, message", [
        ((0.0,), (1.0,), "a piecewise-linear function needs at least two breakpoints"),
        ((0.0, 1.0), (1.0,), "breakpoints and values must have equal length"),
        ((0.0, 1.0, 1.0), (1.0, 2.0, 3.0), "breakpoints must be strictly increasing"),
        ((0.0, math.nan), (1.0, 2.0), "breakpoints must be strictly increasing"),
        ((0.0, 1.0, 2.0), (1.0, math.inf, math.nan), "values must be finite, got inf"),
        ((0.0, 1.0), (1.0, math.nan), "values must be finite, got nan"),
    ])
    def test_messages(self, breakpoints, values, message):
        with pytest.raises(ParameterError) as err:
            PLFunction(breakpoints, values)
        assert str(err.value) == message

    def test_fields_are_tuples_of_floats(self):
        fbar = PLFunction([0, 1], [2, 3])
        assert fbar.breakpoints == (0.0, 1.0) and fbar.values == (2.0, 3.0)
        assert all(type(x) is float for x in fbar.breakpoints + fbar.values)

    def test_infinite_breakpoints_are_accepted(self):
        fbar = PLFunction((-math.inf, 0.0, math.inf), (1.0, 2.0, 3.0))
        assert fbar.a == -math.inf and fbar.b == math.inf

    @pytest.mark.parametrize("t, u", [(math.inf, 1.0), (-math.inf, -1e-300)])
    def test_infinite_end_that_u_leaves_at_once(self, t, u):
        # the span inf - inf is nan, which once made the default h0 nan
        fbar = PLFunction((-math.inf, 0.0, math.inf), (1.0, 2.0, 3.0))
        assert liminf_params(fbar, t, u) == (1.0, 0)
        assert epiderivative_liminf(fbar, t, u, 1.0, 0) == math.inf

    def test_extend_keeps_tuples(self):
        grid = TimeScale.of_points(0, 1, 3).discretize(1.0)
        fbar = extend(GridFunction(grid, (0.5, 2.0, -1.0)))
        assert fbar == PLFunction((0.0, 1.0, 3.0), (0.5, 2.0, -1.0))
        assert type(fbar.breakpoints) is tuple and type(fbar.values[0]) is float


class TestEval:
    def test_breakpoint_exact(self):
        assert CHORD.eval(0.0) == 0.0
        assert CHORD.eval(1.0) == 2.0

    def test_affine_interpolation(self):
        assert CHORD.eval(0.25) == 0.5

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            CHORD.eval(1.1)
        with pytest.raises(DomainError):
            CHORD.eval(-0.1)


class TestClosedForm:
    def test_kink_both_directions(self):
        # slopes around the kink are -1 and +1
        assert epiderivative_closed(VEE, 1.0, 1.0) == 1.0
        assert epiderivative_closed(VEE, 1.0, -1.0) == 1.0

    def test_affine_piece_is_linear_in_u(self):
        fbar = PLFunction((0.0, 2.0), (0.0, 3.0))  # slope 1.5
        for u in (-2.0, -0.5, 0.5, 2.0):
            assert epiderivative_closed(fbar, 0.7, u) == pytest.approx(1.5 * u, abs=1e-12)

    def test_left_boundary_negative_direction_is_inf(self):
        assert epiderivative_closed(VEE, 0.0, -1.0) == math.inf

    def test_right_boundary_positive_direction_is_inf(self):
        assert epiderivative_closed(VEE, 2.0, 1.0) == math.inf

    def test_zero_direction_is_zero_everywhere(self):
        for t in (0.0, 0.3, 1.0, 2.0):
            assert epiderivative_closed(VEE, t, 0.0) == 0.0

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            epiderivative_closed(VEE, 2.5, 1.0)

    def test_nan_point_is_outside_domain(self):
        with pytest.raises(DomainError):
            epiderivative_closed(VEE, math.nan, 1.0)


class TestLiminf:
    def test_affine_exact_at_every_step(self):
        fbar = PLFunction((0.0, 1.0), (0.5, 1.5))
        assert epiderivative_liminf(fbar, 0.3, 1.0, 0.5, 10) == pytest.approx(1.0, abs=1e-12)

    def test_kink_exact_from_first_step(self):
        assert epiderivative_liminf(VEE, 1.0, 1.0, 0.5, 20) == 1.0

    def test_boundary_leaves_domain(self):
        assert epiderivative_liminf(VEE, 0.0, -1.0, 0.5, 10) == math.inf

    def test_zero_direction(self):
        assert epiderivative_liminf(VEE, 0.5, 0.0, 0.5, 10) == 0.0

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            epiderivative_liminf(VEE, 0.5, 1.0, 0.0, 10)
        with pytest.raises(ParameterError):
            epiderivative_liminf(VEE, 0.5, 1.0, 0.5, -1)

    def test_step_underflow_stops_cleanly(self):
        # the first piece is shorter than any nonzero step times u, so the
        # halving runs until h underflows to 0 and must stop there
        fbar = PLFunction((0.0, 1e-300, 1.0), (0.0, 2e-300, 1.0))
        got = epiderivative_liminf(fbar, 0.0, 1e30, 1.0, 1100)
        assert got > 0 and not math.isnan(got)

    def test_oversized_first_steps_are_skipped(self):
        # h0 overshoots the domain; later halvings land inside
        got = epiderivative_liminf(VEE, 1.5, 1.0, 8.0, 12)
        assert got == pytest.approx(1.0, abs=1e-12)


class TestFiniteStep:
    @pytest.mark.parametrize("h0", [math.inf, math.nan, 0.0, -1.0])
    def test_rejected(self, h0):
        with pytest.raises(ParameterError,
                           match=f"^h0 must be positive and finite, got {h0!r}$"):
            epiderivative_liminf(VEE, 0.5, 1.0, h0, 10)


class TestStepsThatMoveT:
    """A quotient counts only for a step that moves t. On SQUARE, the
    closed form at t = 1, u = 1 is 3."""

    SQUARE = PLFunction((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))

    def test_step_that_does_not_move_t_names_h0(self):
        # 1 + 1e-17 == 1, so the quotient would read 0
        with pytest.raises(ParameterError, match=r"^h0 = 1e-17 gives no step "):
            epiderivative_liminf(self.SQUARE, 1.0, 1.0, 1e-17, 0)

    def test_default_h0_that_does_not_move_t_names_u_and_t(self):
        # the default h0 is the largest float, and 1e10 + 1.8e308 * -1e-320 == 1e10
        fbar = PLFunction((0.0, 1e10), (0.0, 1.0))
        with pytest.raises(ParameterError) as err:
            liminf_params(fbar, 1e10, -1e-320)
        assert str(err.value) == ("direction u = -1e-320 is too small to move "
                                  "t = 10000000000.0 within [0.0, 10000000000.0]")
        h0, k_max = liminf_params(fbar, 1e10, -1e-320, h0=1e300)
        with pytest.raises(ParameterError, match=r"^h0 = 1e\+300 gives no step "):
            epiderivative_liminf(fbar, 1e10, -1e-320, h0, k_max)

    @pytest.mark.parametrize("h0", [1e-320, 1e-17, 0.5])
    def test_direction_that_leaves_at_once_is_inf_for_any_h0(self, h0):
        assert epiderivative_liminf(self.SQUARE, 2.0, 1.0, h0, 3) == math.inf
        assert epiderivative_liminf(self.SQUARE, 0.0, -1.0, h0, 3) == math.inf

    @pytest.mark.parametrize("t, u", [(0.5, 1e-310), (1.0, -1e-320), (1.0, 1e-300)])
    def test_default_h0_stays_finite_for_tiny_directions(self, t, u):
        h0, k_max = liminf_params(self.SQUARE, t, u)
        assert 0 < h0 < math.inf
        closed = epiderivative_closed(self.SQUARE, t, u)
        got = epiderivative_liminf(self.SQUARE, t, u, h0, k_max)
        assert abs(got - closed) <= 1e-6 * max(1.0, abs(closed))


class TestCone:
    def test_interior_point_is_whole_plane(self):
        cone = contingent_cone_epi(VEE, 0.5, 10.0)
        assert cone.interior
        for u, v in ((1.0, -100.0), (-3.0, 0.0), (0.0, -1.0)):
            assert cone.contains(u, v)

    def test_kink_cone_is_absolute_value(self):
        fbar = PLFunction((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))  # |t| on [-1, 1]
        cone = contingent_cone_epi(fbar, 0.0, 0.0)
        assert not cone.interior
        assert cone.contains(1.0, 1.0) and cone.contains(-1.0, 1.0)
        assert cone.contains(2.0, 2.0) and not cone.contains(2.0, 1.9)
        assert not cone.contains(-1.0, 0.5)
        assert cone.contains(0.0, 0.0) and not cone.contains(0.0, -0.1)

    def test_affine_graph_point_is_half_plane(self):
        fbar = PLFunction((0.0, 2.0), (0.0, 1.0))  # slope 0.5
        cone = contingent_cone_epi(fbar, 1.0, 0.5)
        for u in (-2.0, -1.0, 1.0, 2.0):
            assert cone.contains(u, 0.5 * u)
            assert cone.contains(u, 0.5 * u + 0.1)
            assert not cone.contains(u, 0.5 * u - 0.1)

    def test_boundary_directions_removed(self):
        cone = contingent_cone_epi(VEE, 0.0, 1.0)
        assert not cone.interior
        assert math.isinf(cone.slope_left)
        assert not cone.contains(-1.0, 100.0)
        assert cone.contains(1.0, -1.0)  # right slope is -1

    def test_point_below_graph_rejected(self):
        with pytest.raises(PointNotInSetError):
            contingent_cone_epi(VEE, 0.5, 0.0)

    def test_cone_floor_matches_epiderivative(self):
        fbar = PLFunction((0.0, 0.6, 1.4, 2.0), (0.3, -0.2, 0.4, 0.1))
        for t in (0.0, 0.3, 0.6, 1.0, 1.4, 2.0):
            cone = contingent_cone_epi(fbar, t, fbar.eval(t))
            for u in (-1.5, -1.0, 1.0, 1.5):
                d = epiderivative_closed(fbar, t, u)
                if math.isinf(d):
                    assert not cone.contains(u, 1e9)
                else:
                    assert cone.contains(u, d)
                    assert not cone.contains(u, d - 1e-9)


def test_closed_form_matches_liminf_on_random_functions():
    rng = random.Random(20260808)
    checked = 0
    while checked < 150:
        fbar = random_pl(rng)
        u = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        if rng.random() < 0.5:
            # interior breakpoint
            if len(fbar.breakpoints) < 3:
                continue
            t = fbar.breakpoints[rng.randint(1, len(fbar.breakpoints) - 2)]
        else:
            i = rng.randint(0, len(fbar.breakpoints) - 2)
            frac = rng.uniform(0.25, 0.75)
            t = fbar.breakpoints[i] + frac * (fbar.breakpoints[i + 1] - fbar.breakpoints[i])
        h0, k_max = liminf_params(fbar, t, u)
        closed = epiderivative_closed(fbar, t, u)
        estimate = epiderivative_liminf(fbar, t, u, h0, k_max)
        assert abs(closed - estimate) <= 1e-12, (fbar, t, u)
        checked += 1
    assert checked == 150


@settings(max_examples=50)
@given(discrete_scales(), st.data())
def test_scattered_points_match_grid_derivatives_exactly(scale, data):
    grid = scale.discretize(1.0)
    n = len(grid.points)
    f = GridFunction(grid, data.draw(grid_values(n)))
    fbar = extend(f)
    dd = delta_deriv(f)
    for i, t in enumerate(dd.grid.points):
        # bitwise equality: both sides compute the same quotient
        assert epiderivative_closed(fbar, t, 1.0) == dd.values[i]
    nd = nabla_deriv(f)
    for i, t in enumerate(nd.grid.points):
        assert epiderivative_closed(fbar, t, -1.0) == -nd.values[i]


@settings(max_examples=50)
@given(discrete_scales(), st.data())
def test_scattered_quotient_dominance(scale, data):
    # at a scattered point the extension's epiderivative equals the raw
    # grid quotient in the matching direction, never exceeding it
    grid = scale.discretize(1.0)
    n = len(grid.points)
    f = GridFunction(grid, data.draw(grid_values(n)))
    fbar = extend(f)
    pts, vals = grid.points, f.values
    for i in range(n - 1):
        quotient = (vals[i + 1] - vals[i]) / (pts[i + 1] - pts[i])
        got = epiderivative_closed(fbar, pts[i], 1.0)
        assert got <= quotient or got == quotient
        assert got == quotient


def test_positive_homogeneity():
    rng = random.Random(11)
    for _ in range(50):
        fbar = random_pl(rng)
        i = rng.randint(0, len(fbar.breakpoints) - 1)
        t = fbar.breakpoints[i]
        u = rng.uniform(-2.0, 2.0)
        c = rng.uniform(0.1, 5.0)
        lhs = epiderivative_closed(fbar, t, c * u)
        rhs = epiderivative_closed(fbar, t, u)
        if math.isinf(rhs):
            assert math.isinf(lhs) or u == 0
        else:
            assert lhs == pytest.approx(c * rhs, rel=1e-12, abs=1e-12)


def test_epidifferentiability_zero_direction():
    rng = random.Random(12)
    for _ in range(20):
        fbar = random_pl(rng)
        for t in fbar.breakpoints:
            assert epiderivative_closed(fbar, t, 0.0) == 0.0


def test_pl_csv_round_trip():
    import io

    from tsvar import GridFunction, SampleGrid, read_grid_csv, write_grid_csv

    rng = random.Random(88)
    fbar = random_pl(rng)
    flags = (False,) * len(fbar.breakpoints)
    buf = io.StringIO()
    write_grid_csv(GridFunction(SampleGrid(fbar.breakpoints, flags), fbar.values), buf)
    back = extend(read_grid_csv(io.StringIO(buf.getvalue())))
    assert back.breakpoints == fbar.breakpoints
    assert back.values == fbar.values


def test_liminf_params_respects_supplied_step():
    h0, k = liminf_params(VEE, 0.5, 1.0, h0=0.125)
    assert h0 == 0.125
    # 0.125 already clears the kink at t = 1, so no shrinkage is needed
    assert k == 0
    assert epiderivative_liminf(VEE, 0.5, 1.0, h0, k) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_non_finite_direction_rejected(u):
    fbar = PLFunction((0.0, 1.0), (1.0, 2.0))
    for call in (lambda: epiderivative_closed(fbar, 0.0, u),
                 lambda: liminf_params(fbar, 0.0, u),
                 lambda: epiderivative_liminf(fbar, 0.0, u, 0.5, 3)):
        with pytest.raises(ParameterError, match="direction u must be finite"):
            call()
