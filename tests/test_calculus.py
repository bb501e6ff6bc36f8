import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import discrete_scales, grid_values
from tsvar import (
    GridFunction,
    TimeScale,
    delta_deriv,
    delta_integral,
    nabla_deriv,
    nabla_integral,
    read_grid_csv,
    shift_rho,
    shift_sigma,
    write_grid_csv,
)
from tsvar.errors import DomainError, InputFormatError, ParameterError

INTEGERS = TimeScale.of_points(0, 1, 2, 3, 4).discretize(1.0)
FOUR = TimeScale.of_points(0, 1, 2, 3).discretize(1.0)


def sample(grid, fn):
    return GridFunction.sample(grid, fn)


class TestGridFunction:
    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            GridFunction(FOUR, (0.0, 1.0))

    def test_nonfinite_value(self):
        with pytest.raises(ParameterError):
            GridFunction(FOUR, (0.0, 1.0, math.nan, 3.0))


class TestDerivatives:
    def test_delta_of_square_is_odd_numbers(self):
        # ((t+1)^2 - t^2) / 1 = 2t + 1 at t = 0..3
        f = sample(INTEGERS, lambda t: t * t)
        assert delta_deriv(f).values.tolist() == [1.0, 3.0, 5.0, 7.0]
        assert delta_deriv(f).grid.points.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_nabla_of_square(self):
        # backward quotient: 2t - 1 at t = 1..4
        f = sample(INTEGERS, lambda t: t * t)
        assert nabla_deriv(f).values.tolist() == [1.0, 3.0, 5.0, 7.0]
        assert nabla_deriv(f).grid.points.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_constant_derivative_is_zero(self):
        f = sample(INTEGERS, lambda t: 3.25)
        assert delta_deriv(f).values.tolist() == [0.0] * 4
        assert nabla_deriv(f).values.tolist() == [0.0] * 4

    def test_identity_derivative_is_one(self):
        grid = TimeScale.interval(0, 1).discretize(0.17)
        f = sample(grid, lambda t: t)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in delta_deriv(f).values)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in nabla_deriv(f).values)

    def test_single_point_grid_rejected(self):
        single = TimeScale.of_points(1.0).discretize(1.0)
        with pytest.raises(DomainError):
            delta_deriv(GridFunction(single, (2.0,)))
        with pytest.raises(DomainError):
            nabla_deriv(GridFunction(single, (2.0,)))


class TestShifts:
    def test_sigma_shift(self):
        grid = TimeScale.of_points(0, 1, 2).discretize(1.0)
        f = sample(grid, lambda t: t)
        shifted = shift_sigma(f)
        assert shifted.values.tolist() == [1.0, 2.0]
        assert shifted.grid.points.tolist() == [0.0, 1.0]

    def test_rho_shift(self):
        grid = TimeScale.of_points(0, 1, 2).discretize(1.0)
        f = sample(grid, lambda t: t * t)
        shifted = shift_rho(f)
        assert shifted.values.tolist() == [0.0, 1.0]
        assert shifted.grid.points.tolist() == [1.0, 2.0]


class TestIntegrals:
    def test_delta_of_one_is_length(self):
        f = sample(FOUR, lambda t: 1.0)
        assert delta_integral(f, 0.0, 3.0) == 3.0

    def test_delta_left_endpoints(self):
        f = sample(FOUR, lambda t: t)
        assert delta_integral(f, 0.0, 3.0) == 3.0  # 0 + 1 + 2

    def test_nabla_of_one_is_length(self):
        f = sample(FOUR, lambda t: 1.0)
        assert nabla_integral(f, 0.0, 3.0) == 3.0

    def test_nabla_right_endpoints(self):
        f = sample(FOUR, lambda t: t)
        assert nabla_integral(f, 0.0, 3.0) == 6.0  # 1 + 2 + 3

    def test_dense_rectangle_rule(self):
        grid = TimeScale.interval(0, 1).discretize(1e-3)
        f = sample(grid, lambda t: t)
        assert delta_integral(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-3)
        assert nabla_integral(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_non_grid_bound_rejected(self):
        f = sample(FOUR, lambda t: t)
        with pytest.raises(DomainError):
            delta_integral(f, 0.5, 3.0)
        with pytest.raises(DomainError):
            nabla_integral(f, 0.0, 2.5)

    def test_reversed_bounds_rejected(self):
        f = sample(FOUR, lambda t: t)
        with pytest.raises(DomainError):
            delta_integral(f, 3.0, 0.0)

    def test_empty_range_is_zero(self):
        f = sample(FOUR, lambda t: t)
        assert delta_integral(f, 2.0, 2.0) == 0.0
        assert nabla_integral(f, 2.0, 2.0) == 0.0


class TestOverflowingSums:
    """A product, a step or a partial sum that overflows no longer ends the
    sum: it is summed again exactly from the points, and the result is the
    sum rounded once, inf only when the sum itself overflows."""

    @staticmethod
    def exact(vals, points):
        total = sum(Fraction(v) * (Fraction(q) - Fraction(p))
                    for v, p, q in zip(vals, points, points[1:]))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf

    @pytest.mark.parametrize("points, values, delta, nabla", [
        # the products overflow with both signs: fsum once raised ValueError
        ((0, 2, 4), (1e308, -1e308, 0.0), 0.0, -math.inf),
        # every product is finite, a partial sum is not: fsum once raised
        # OverflowError
        ((0, 1, 2, 3), (1e308, 1e308, -1e308, 0.0), 1e308, 0.0),
        ((0, 1, 2, 3), (1e308, 1e308, 1e308, 0.0), math.inf, math.inf),
        ((0, 1, 2, 3), (-1e308, -1e308, -1e308, 0.0), -math.inf, -math.inf),
        ((0, 1, 2, 3, 4), (1e308, 1e308, -1e308, 1.5, -1.7e308), 1e308, -1.7e308),
        # the step itself overflows: 0 * inf is nan, 1e-300 * inf is inf
        ((-1e308, 1e308), (1.0, 1.0), math.inf, math.inf),
        ((-1e308, 1e308), (0.0, 0.0), 0.0, 0.0),
        ((-1e308, 1e308), (-1.0, 2.0), -math.inf, math.inf),
        ((-1e308, 1e308), (1e-300, -1e-300), 2e8, -2e8),
        ((-1e308, 0, 1e308), (1e-300, 0.0, 0.0), 1e8, 0.0),
    ])
    def test_sums(self, points, values, delta, nabla):
        f = GridFunction(TimeScale.of_points(*points).discretize(1.0), values)
        a, b = points[0], points[-1]
        assert delta_integral(f, a, b) == delta == self.exact(values[:-1], points)
        assert nabla_integral(f, a, b) == nabla == self.exact(values[1:], points)

    @given(st.lists(st.floats(-1.7e308, 1.7e308), min_size=2, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_correctly_rounded(self, values):
        # a step of 2 makes every product exact, and any value above 2^1023
        # overflow
        points = [2.0 * k for k in range(len(values))]
        f = GridFunction(TimeScale.of_points(*points).discretize(1.0), values)
        assert delta_integral(f, 0.0, points[-1]) == self.exact(values[:-1], points)
        assert nabla_integral(f, 0.0, points[-1]) == self.exact(values[1:], points)

    @given(st.lists(st.integers(-31, 31), min_size=2, max_size=10, unique=True),
           st.lists(st.tuples(st.integers(-2**20, 2**20), st.integers(-60, 10)),
                    min_size=10, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_overflowing_steps(self, ks, mantissas):
        # steps of k * 2^1019 overflow from k = 32 on; with values of at most
        # 21 bits every product that does not overflow is exact
        points = [k * 2.0**1019 for k in sorted(ks)]
        values = [m * 2.0**e for m, e in mantissas[:len(points)]]
        f = GridFunction(TimeScale.of_points(*points).discretize(1.0), values)
        a, b = points[0], points[-1]
        assert delta_integral(f, a, b) == self.exact(values[:-1], points)
        assert nabla_integral(f, a, b) == self.exact(values[1:], points)


class TestIdentities:
    def test_sigma_shift_identity(self):
        # f composed with the forward jump equals f + mu * delta derivative
        grid = TimeScale.of_points(0.0, 0.3, 1.1, 2.5).discretize(1.0)
        f = sample(grid, lambda t: math.sin(3 * t) + t * t)
        fs = shift_sigma(f)
        fd = delta_deriv(f)
        for i, t in enumerate(fs.grid.points):
            mu = grid.points[i + 1] - grid.points[i]
            assert fs.values[i] == pytest.approx(f.values[i] + mu * fd.values[i], abs=1e-12)

    def test_rho_shift_identity(self):
        # f composed with the backward jump equals f - nu * nabla derivative
        grid = TimeScale.of_points(0.0, 0.3, 1.1, 2.5).discretize(1.0)
        f = sample(grid, lambda t: math.exp(t / 2) - t)
        fr = shift_rho(f)
        fn = nabla_deriv(f)
        for i, t in enumerate(fr.grid.points):
            j = i + 1
            nu = grid.points[j] - grid.points[j - 1]
            assert fr.values[i] == pytest.approx(f.values[j] - nu * fn.values[i], abs=1e-12)


@settings(max_examples=50)
@given(discrete_scales(), st.data())
def test_product_rules(scale, data):
    grid = scale.discretize(1.0)
    n = len(grid.points)
    f = GridFunction(grid, data.draw(grid_values(n)))
    g = GridFunction(grid, data.draw(grid_values(n)))
    fg = GridFunction(grid, tuple(a * b for a, b in zip(f.values, g.values)))

    dfg = delta_deriv(fg).values
    df, dg = delta_deriv(f).values, delta_deriv(g).values
    fs, gs = shift_sigma(f).values, shift_sigma(g).values
    for i in range(n - 1):
        assert dfg[i] == pytest.approx(df[i] * gs[i] + f.values[i] * dg[i], abs=1e-12)
        assert dfg[i] == pytest.approx(df[i] * g.values[i] + fs[i] * dg[i], abs=1e-12)

    nfg = nabla_deriv(fg).values
    nf, ng = nabla_deriv(f).values, nabla_deriv(g).values
    fr = shift_rho(f).values
    for i in range(n - 1):
        j = i + 1
        assert nfg[i] == pytest.approx(
            nf[i] * g.values[j] + fr[i] * ng[i], abs=1e-12)


@settings(max_examples=50)
@given(discrete_scales(), st.data())
def test_linearity(scale, data):
    grid = scale.discretize(1.0)
    n = len(grid.points)
    f = GridFunction(grid, data.draw(grid_values(n)))
    g = GridFunction(grid, data.draw(grid_values(n)))
    a, b = 1.75, -0.5
    combo = GridFunction(grid, tuple(a * x + b * y for x, y in zip(f.values, g.values)))
    dc = delta_deriv(combo).values
    df, dg = delta_deriv(f).values, delta_deriv(g).values
    for i in range(n - 1):
        assert dc[i] == pytest.approx(a * df[i] + b * dg[i], abs=1e-11)
    nc = nabla_deriv(combo).values
    nf, ng = nabla_deriv(f).values, nabla_deriv(g).values
    for i in range(n - 1):
        assert nc[i] == pytest.approx(a * nf[i] + b * ng[i], abs=1e-11)


@settings(max_examples=50)
@given(discrete_scales(), st.data())
def test_fundamental_theorem(scale, data):
    grid = scale.discretize(1.0)
    n = len(grid.points)
    f = GridFunction(grid, data.draw(grid_values(n)))
    a, b = grid.points[0], grid.points[-1]

    # telescoping through the API: the derivative grid loses the top point,
    # so the integral reaches the second-to-last point of the original grid
    df = delta_deriv(f)
    assert delta_integral(df, a, grid.points[-2]) == pytest.approx(
        f.values[-2] - f.values[0], abs=1e-12)
    nf = nabla_deriv(f)
    assert nabla_integral(nf, grid.points[1], b) == pytest.approx(
        f.values[-1] - f.values[1], abs=1e-12)

    # definitional full-range form: quotient times step telescopes to f(b) - f(a)
    full_delta = math.fsum(
        df.values[i] * (grid.points[i + 1] - grid.points[i]) for i in range(n - 1))
    assert full_delta == pytest.approx(f.values[-1] - f.values[0], abs=1e-12)
    full_nabla = math.fsum(
        nf.values[i] * (grid.points[i + 1] - grid.points[i]) for i in range(n - 1))
    assert full_nabla == pytest.approx(f.values[-1] - f.values[0], abs=1e-12)


@settings(max_examples=50)
@given(discrete_scales(min_points=4), st.data())
def test_integral_additivity(scale, data):
    grid = scale.discretize(1.0)
    n = len(grid.points)
    f = GridFunction(grid, data.draw(grid_values(n)))
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3)))
    c, d, e = (grid.points[i] for i in idx)
    assert (delta_integral(f, c, d) + delta_integral(f, d, e)
            == pytest.approx(delta_integral(f, c, e), abs=1e-12))
    assert (nabla_integral(f, c, d) + nabla_integral(f, d, e)
            == pytest.approx(nabla_integral(f, c, e), abs=1e-12))


def test_rectangle_rule_is_first_order():
    # halving h must cut the quadrature error by a factor close to 2
    exact = math.e - 1.0
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        grid = TimeScale.interval(0, 1).discretize(h)
        f = GridFunction.sample(grid, math.exp)
        errors.append(abs(delta_integral(f, 0.0, 1.0) - exact))
    assert errors[0] / errors[1] >= 1.8
    assert errors[1] / errors[2] >= 1.8


def test_fundamental_theorem_delta_exactness_on_fine_fts():
    # the delta sum telescopes the difference quotients exactly
    grid = TimeScale.of_points(*[0.1 * k ** 1.3 for k in range(1, 40)]).discretize(1.0)
    f = GridFunction.sample(grid, lambda t: math.cos(t) * t)
    total = delta_integral(delta_deriv(f), grid.points[0], grid.points[-2])
    assert total == pytest.approx(f.values[-2] - f.values[0], abs=1e-12)


class TestCsv:
    def test_round_trip_is_lossless(self):
        grid = TimeScale.interval(0, 1).discretize(0.173)
        f = GridFunction.sample(grid, lambda t: math.sin(t) / 3)
        buf = io.StringIO()
        write_grid_csv(f, buf)
        back = read_grid_csv(io.StringIO(buf.getvalue()))
        assert back.grid.points.tolist() == f.grid.points.tolist()
        assert back.values.tolist() == f.values.tolist()

    def test_header_required(self):
        with pytest.raises(InputFormatError):
            read_grid_csv(io.StringIO("time,val\n0,1\n"))

    def test_bad_row_reports_line(self):
        with pytest.raises(InputFormatError) as err:
            read_grid_csv(io.StringIO("t,value\n0,1\nx,2\n"))
        assert err.value.line == 3

    def test_scale_validation(self):
        scale = TimeScale.of_points(0, 1)
        with pytest.raises(DomainError):
            read_grid_csv(io.StringIO("t,value\n0,1\n0.5,2\n1,3\n"), scale=scale)
