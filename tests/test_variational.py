import random
import subprocess
import sys

import numpy as np
import pytest

from helpers import child_env, dense_tridiagonal, random_increasing
from tsvar import (
    GridFunction,
    IsoProblem,
    Lagrangian,
    Problem,
    Segment,
    TimeScale,
    delta_deriv,
    el_residual,
    functional_value,
    nabla_deriv,
    residual_column,
    shift_rho,
    shift_sigma,
    solve,
    solve_iso,
    verify,
)
from tsvar.errors import (
    BoundaryMismatchError,
    DegenerateScaleError,
    GridMismatchError,
    InfeasibleConstraintError,
    IterationLimitError,
    ParameterError,
    SingularSystemError,
)
from tsvar.lagrangian import evaluate

V2 = Lagrangian.from_text("v^2")
UNIT = TimeScale.interval(0.0, 1.0)
FIVE = TimeScale.of_points(0, 1, 2, 3, 4)


def classical(u=1.0, L=V2, alpha=0.0, beta=1.0, h=1e-3, scale=UNIT):
    return Problem(scale=scale, u=u, L=L, alpha=alpha, beta=beta, h=h)


def trajectory(problem, fn):
    return GridFunction.sample(problem.discretized(), fn)


def fd_functional_gradient(problem, y, step=1e-5):
    """Central finite differences of the discretized functional in the
    interior values; the independent stationarity oracle."""
    base = list(y.values)
    out = []
    for j in range(1, len(base) - 1):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        fhi = functional_value(problem, GridFunction(y.grid, tuple(hi)))
        flo = functional_value(problem, GridFunction(y.grid, tuple(lo)))
        out.append((fhi - flo) / (2 * step))
    return out


class TestProblemConstruction:
    def test_zero_direction_rejected(self):
        with pytest.raises(ParameterError):
            Problem(scale=UNIT, u=0.0, L=V2, alpha=0.0, beta=1.0)

    def test_zero_constraint_direction_rejected(self):
        with pytest.raises(ParameterError):
            IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0,
                       G=V2, w=0.0, K=1.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ParameterError):
            Problem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=0.0)

    def test_single_point_scale_rejected(self):
        with pytest.raises(ParameterError):
            Problem(scale=TimeScale.of_points(1.0), u=1.0, L=V2,
                    alpha=0.0, beta=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["u", "alpha", "beta", "w", "K"])
    def test_non_finite_data_rejected(self, field, bad):
        data = dict(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0)
        iso = dict(data, G=V2, w=1.0, K=1.0)
        for cls, kwargs in ((Problem, data), (IsoProblem, iso)):
            if field in kwargs:
                with pytest.raises(ParameterError, match=f" {field} must be finite, got"):
                    cls(**dict(kwargs, **{field: bad}))

    def test_infinite_step_keeps_the_endpoints(self):
        p = Problem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=np.inf)
        assert p.discretized().points.tolist() == [0.0, 1.0]


class TestFunctionalValue:
    def test_delta_direction_classical(self):
        p = classical(u=1.0)
        assert functional_value(p, trajectory(p, lambda t: t)) == pytest.approx(
            1.0, abs=2e-3)

    def test_nabla_direction_classical(self):
        p = classical(u=-1.0)
        assert functional_value(p, trajectory(p, lambda t: t)) == pytest.approx(
            -1.0, abs=2e-3)

    def test_scaled_single_gap(self):
        # single term: u * L(0, u*y(1), u*(y(1)-y(0))/1) * 1 = 2 * (2*1)^2 = 8
        p = Problem(scale=TimeScale.of_points(0, 1), u=2.0, L=V2,
                    alpha=0.0, beta=1.0, h=1.0)
        y = GridFunction(p.discretized(), (0.0, 1.0))
        assert functional_value(p, y) == 8.0

    def test_boundary_mismatch_rejected(self):
        p = classical()
        y = trajectory(p, lambda t: t + 1.0)
        with pytest.raises(BoundaryMismatchError):
            functional_value(p, y)

    def test_wrong_grid_rejected(self):
        p = classical(h=1e-2)
        other = classical(h=2e-2)
        y = trajectory(other, lambda t: t)
        with pytest.raises(GridMismatchError):
            functional_value(p, y)

    def test_overflowing_sum_is_inf(self):
        # each term is finite; their sum is not, and no warning is written
        p = classical(L=Lagrangian.from_text("1e308 + v^2"), h=0.5,
                      scale=TimeScale.interval(0.0, 4.0))
        y = trajectory(p, lambda t: t / 4.0)
        assert functional_value(p, y) == np.inf
        assert verify(p, y, 1e-8).functional_value == np.inf


class TestResidual:
    def test_extremal_has_zero_residual(self):
        p = classical(h=0.02)
        res = el_residual(p, trajectory(p, lambda t: t))
        assert max(abs(v) for v in res.values) <= 1e-10

    def test_constant_trajectory_zero_residual(self):
        p = classical(alpha=0.5, beta=0.5, h=0.1, u=2.0)
        res = el_residual(p, trajectory(p, lambda t: 0.5))
        assert max(abs(v) for v in res.values) <= 1e-12

    def test_square_trajectory_constant_residual(self):
        # oracle first: central differences of the discretized functional,
        # divided by -mu, reproduce the residual; the constant comes out as 4
        p = classical(h=0.02)
        y = trajectory(p, lambda t: t * t)
        res = el_residual(p, y)
        fd = fd_functional_gradient(p, y)
        pts = y.grid.points
        for j in range(1, len(pts) - 1):
            mu = pts[j] - pts[j - 1]
            assert fd[j - 1] == pytest.approx(-mu * res.values[j - 1], abs=1e-7)
        assert all(v == pytest.approx(4.0, abs=1e-9) for v in res.values)

    def test_residual_subgrid_alignment(self):
        p = classical(h=0.25)
        y = trajectory(p, lambda t: t)
        res = el_residual(p, y)
        assert res.grid.points.tolist() == y.grid.points[:-2].tolist()
        pn = classical(u=-1.0, h=0.25)
        resn = el_residual(pn, trajectory(pn, lambda t: t))
        assert resn.grid.points.tolist() == y.grid.points[2:].tolist()

    def test_residual_column_interior_only(self):
        p = Problem(scale=FIVE, u=1.0, L=V2, alpha=0.0, beta=1.0, h=1.0)
        y = trajectory(p, lambda t: t / 4)
        col = residual_column(p, y)
        assert len(col) == 5
        assert col[0] is None and col[1] is None
        assert col[2] is not None
        assert col[3] is None and col[4] is None


class TestGradientResidualProportionality:
    def make_problem(self, rng):
        pts = random_increasing(rng, 6)
        coeffs = [rng.uniform(-0.5, 0.5) for _ in range(6)]
        cubic = rng.uniform(-0.1, 0.1)
        text = (f"{coeffs[0]:.17g}*v^2 + {coeffs[1]:.17g}*y^2 + "
                f"{coeffs[2]:.17g}*y*v + {coeffs[3]:.17g}*t*y + "
                f"{coeffs[4]:.17g}*v + {coeffs[5]:.17g}*y + "
                f"{cubic:.17g}*y^3")
        lag = Lagrangian.from_text(text)
        alpha, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)
        return Problem(scale=TimeScale.of_points(*pts), u=1.0, L=lag,
                       alpha=alpha, beta=beta, h=1.0)

    def test_gradient_equals_scaled_residual(self):
        rng = random.Random(81)
        for _ in range(5):
            p = self.make_problem(rng)
            grid = p.discretized()
            vals = [p.alpha] + [rng.uniform(-1, 1) for _ in range(4)] + [p.beta]
            y = GridFunction(grid, tuple(vals))
            res = el_residual(p, y)
            fd = fd_functional_gradient(p, y)
            for j in range(1, 5):
                mu = grid.points[j] - grid.points[j - 1]
                assert fd[j - 1] == pytest.approx(
                    -mu * res.values[j - 1], abs=1e-9)


class TestReductionToOneDirection:
    def sample_problem(self, u, rng):
        pts = random_increasing(rng, 7)
        lag = Lagrangian.from_text("v^2 + 0.3*y*v + sin(y) + 0.2*t*y")
        return Problem(scale=TimeScale.of_points(*pts), u=u, L=lag,
                       alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1), h=1.0)

    def test_delta_reduction(self):
        # R/u must match the delta composition built from calculus primitives
        rng = random.Random(5)
        for _ in range(5):
            u = rng.uniform(0.3, 2.5)
            p = self.sample_problem(u, rng)
            grid = p.discretized()
            vals = [p.alpha] + [rng.uniform(-1, 1) for _ in range(5)] + [p.beta]
            y = GridFunction(grid, tuple(vals))
            ysig = shift_sigma(y)
            yd = delta_deriv(y)
            head = ysig.grid
            pvals = tuple(
                evaluate(p.L.dL_dv, t, u * ys, u * yv)
                for t, ys, yv in zip(head.points, ysig.values, yd.values))
            dp = delta_deriv(GridFunction(head, pvals))
            res = el_residual(p, y)
            for i, t in enumerate(dp.grid.points):
                oracle = dp.values[i] - evaluate(
                    p.L.dL_dy, t, u * ysig.values[i], u * yd.values[i])
                assert res.values[i] / u == pytest.approx(oracle, abs=1e-10)

    def test_nabla_reduction(self):
        rng = random.Random(6)
        for _ in range(5):
            u = -rng.uniform(0.3, 2.5)
            p = self.sample_problem(u, rng)
            grid = p.discretized()
            vals = [p.alpha] + [rng.uniform(-1, 1) for _ in range(5)] + [p.beta]
            y = GridFunction(grid, tuple(vals))
            yrho = shift_rho(y)
            yn = nabla_deriv(y)
            tail = yrho.grid
            qvals = tuple(
                evaluate(p.L.dL_dv, t, u * yr, u * yv)
                for t, yr, yv in zip(tail.points, yrho.values, yn.values))
            dq = nabla_deriv(GridFunction(tail, qvals))
            res = el_residual(p, y)
            for i, t in enumerate(dq.grid.points):
                oracle = dq.values[i] - evaluate(
                    p.L.dL_dy, t, u * yrho.values[i + 1], u * yn.values[i + 1])
                assert res.values[i] / u == pytest.approx(oracle, abs=1e-10)


class TestHessian:
    def test_matches_finite_difference_jacobian(self):
        from tsvar.variational import _Iterate

        lag = Lagrangian.from_text("v^2 + sin(y)*v + exp(y/2) + 0.1*t*y^2")
        rng = random.Random(17)
        pts = random_increasing(rng, 6)
        ts = np.asarray(pts)
        for u in (1.3, -0.7):
            ys = np.asarray([rng.uniform(-1, 1) for _ in range(6)])
            H = dense_tridiagonal(*_Iterate(lag, u, ts, ys).hess())
            m = len(pts) - 2
            step = 1e-6
            for j in range(m):
                hi, lo = ys.copy(), ys.copy()
                hi[j + 1] += step
                lo[j + 1] -= step
                col = (_Iterate(lag, u, ts, hi).grad()
                       - _Iterate(lag, u, ts, lo).grad()) / (2 * step)
                assert np.allclose(H[:, j], col, atol=1e-5), (u, j)


class TestBandedNewtonStep:
    """The banded Newton step against np.linalg.solve on the assembled
    dense matrix, which is kept only as a test oracle."""

    SMOOTH = Lagrangian.from_text("v^2 + sin(y)*v + exp(y/2) + 0.1*t*y^2")
    INDEFINITE = Lagrangian.from_text("y^2 - v^2")

    @staticmethod
    def close(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        return float(np.max(np.abs(np.asarray(got) - want))) <= 1e-12 * scale

    def random_case(self, rng, lag, u):
        from tsvar.variational import _Iterate

        n = rng.randint(5, 12)
        ts = np.asarray(random_increasing(rng, n, gap_lo=0.2, gap_hi=2.0))
        ys = np.asarray([rng.uniform(-1, 1) for _ in range(n)])
        at = _Iterate(lag, u, ts, ys)
        return ts, ys, *at.hess(), at.grad()

    def test_solve_step_matches_dense(self):
        from tsvar.variational import _solve_tridiagonal

        rng = random.Random(29)
        first_row_swaps = 0
        for lag in (self.SMOOTH, self.INDEFINITE):
            for sign in (1.0, -1.0):
                for _ in range(20):
                    u = sign * rng.uniform(0.3, 2.0)
                    _, _, diag, off, g = self.random_case(rng, lag, u)
                    [got] = _solve_tridiagonal(diag, off, -g)
                    want = np.linalg.solve(dense_tridiagonal(diag, off), -g)
                    assert self.close(got, want), (lag, u)
                    first_row_swaps += abs(diag[0]) < abs(off[0])
        # the indefinite integrand makes the elimination interchange rows
        assert first_row_swaps > 0

    def test_forced_row_interchange(self):
        from tsvar.variational import _solve_tridiagonal

        diag = np.array([0.0, 1.0, -2.0, 0.5, 3.0])
        off = np.array([1.0, 4.0, 1e-3, -2.0])
        rhs = np.array([1.0, -1.0, 2.0, 0.0, 5.0])
        [got] = _solve_tridiagonal(diag, off, rhs)
        want = np.linalg.solve(dense_tridiagonal(diag, off), rhs)
        assert self.close(got, want)

    @staticmethod
    def bordered_dense(diag, off, gg):
        m = diag.size
        J = np.zeros((m + 1, m + 1))
        J[:m, :m] = dense_tridiagonal(diag, off)
        J[:m, m] = -gg
        J[m, :m] = gg
        return J

    def test_bordered_step_matches_dense(self):
        from tsvar.variational import _bordered_step, _Iterate

        rng = random.Random(31)
        G = Lagrangian.from_text("y + 0.2*y^2 + exp(y/3)*v")
        for lag in (self.SMOOTH, self.INDEFINITE):
            for u_sign, w_sign in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                for _ in range(10):
                    u = u_sign * rng.uniform(0.3, 2.0)
                    w = w_sign * rng.uniform(0.3, 2.0)
                    lam = rng.uniform(-2, 2)
                    ts, ys, diag_l, off_l, gl = self.random_case(rng, lag, u)
                    at_g = _Iterate(G, w, ts, ys)
                    diag_g, off_g = at_g.hess()
                    gg = at_g.grad()
                    cons = at_g.functional() - rng.uniform(-1, 1)
                    phi = np.concatenate([gl - lam * gg, [cons]])
                    diag, off = diag_l - lam * diag_g, off_l - lam * off_g
                    step, dlam = _bordered_step(diag, off, gg, phi)
                    want = np.linalg.solve(self.bordered_dense(diag, off, gg), -phi)
                    assert self.close(np.append(step, dlam), want), (lag, u, w)

    def test_singular_hessian_regular_bordered_matches_dense(self):
        # H singular, [[H, -g], [g^T, 0]] not: with row and column k of H
        # zero, only the border row can take the pivot of column k
        from tsvar.variational import _bordered_step

        rng = np.random.default_rng(41)
        for m in range(2, 9):
            for k in range(m):
                diag, off = rng.normal(size=m), rng.normal(size=m - 1)
                diag[k] = 0.0  # row and column k of H vanish
                off[max(k - 1, 0):k + 1] = 0.0
                gg, phi = rng.normal(size=m), rng.normal(size=m + 1)
                assert np.linalg.matrix_rank(dense_tridiagonal(diag, off)) == m - 1
                step, dlam = _bordered_step(diag, off, gg, phi)
                want = np.linalg.solve(self.bordered_dense(diag, off, gg), -phi)
                assert self.close(np.append(step, dlam), want), (m, k)
        # two equal rows: H = [[a, a], [a, a]] inside a larger block
        diag = np.array([2.0, 3.0, 3.0, -1.0])
        off = np.array([0.0, 3.0, 0.0])
        gg, phi = np.array([0.5, -1.0, 2.0, 0.25]), np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        step, dlam = _bordered_step(diag, off, gg, phi)
        want = np.linalg.solve(self.bordered_dense(diag, off, gg), -phi)
        assert self.close(np.append(step, dlam), want)

    def test_vanishing_constraint_gradient_is_least_squares_step(self):
        from tsvar.variational import _bordered_step

        rng = random.Random(37)
        _, _, diag, off, g = self.random_case(rng, self.SMOOTH, 1.1)
        m = diag.size
        phi = np.append(g, 0.25)
        step, dlam = _bordered_step(diag, off, np.zeros(m), phi)
        J = self.bordered_dense(diag, off, np.zeros(m))
        want, *_ = np.linalg.lstsq(J, -phi, rcond=None)
        assert dlam == 0.0
        assert self.close(np.append(step, dlam), want)

    def test_zero_hessian_is_least_squares_step(self):
        # H = 0 leaves the bordered matrix with rank 2
        from tsvar.variational import _bordered_step

        gg = np.array([1.0, -2.0, 0.5, 3.0])
        phi = np.array([0.5, 1.0, -1.0, 2.0, 0.75])
        step, dlam = _bordered_step(np.zeros(4), np.zeros(3), gg, phi)
        J = self.bordered_dense(np.zeros(4), np.zeros(3), gg)
        want, *_ = np.linalg.lstsq(J, -phi, rcond=None)
        assert self.close(np.append(step, dlam), want)

    def test_zero_hessian_and_gradient_is_singular(self):
        from tsvar.variational import _bordered_step, _solve_tridiagonal

        with pytest.raises(SingularSystemError):
            _solve_tridiagonal(np.zeros(4), np.zeros(3), np.ones(4))
        with pytest.raises(SingularSystemError):
            _bordered_step(np.zeros(4), np.zeros(3), np.zeros(4), np.ones(5))

    def test_linear_integrand_quadratic_constraint(self):
        # L = y has a zero Hessian at lam = 0; the least-squares first step
        # moves lam to the stationarity value 1 = 2 * lam * y with y = 1
        for u, lam in ((1.0, 0.5), (-1.0, -0.5)):
            iso = IsoProblem(scale=UNIT, u=u, L=Lagrangian.from_text("y"),
                             alpha=1.0, beta=1.0, h=0.1,
                             G=Lagrangian.from_text("y^2"), w=1.0, K=1.0)
            sol = solve_iso(iso)
            assert sol.lam == pytest.approx(lam, abs=1e-12)
            assert sol.normal_flag is True
            assert max(abs(v - 1.0) for v in sol.y.values) <= 1e-12

    def test_linear_integrand_linear_constraint_reported(self):
        # H = 0 at every iterate and the least-squares step cannot reach
        # stationarity: the line search stalls
        iso = IsoProblem(scale=UNIT, u=1.0, L=Lagrangian.from_text("y"),
                         alpha=0.0, beta=1.0, h=0.1,
                         G=Lagrangian.from_text("t*y"), w=-1.0, K=0.5)
        with pytest.raises(IterationLimitError):
            solve_iso(iso)


class TestCyclicReduction:
    """Cyclic reduction against the pivoting loop and np.linalg.solve on the
    dense matrix, at and around the size where it takes over and around the
    powers of two its padding rounds up to."""

    CONVEX = Lagrangian.from_text("v^2 + (1 + t^2)*y^2 + exp(y/3)")

    @staticmethod
    def close(got, want, m):
        # these Hessians have condition numbers of about 0.36 m^2, so eps * m^2
        # bounds the forward error of any backward stable solve
        scale = max(1.0, float(np.max(np.abs(want))))
        tol = np.finfo(float).eps * m * m * scale
        return float(np.max(np.abs(np.asarray(got) - want))) <= tol

    @staticmethod
    def case(lag, u, m, rng, scale=UNIT):
        from tsvar.variational import _Iterate

        ts = np.asarray(scale.discretize((scale.b - scale.a) / (m + 1)).points)
        assert ts.size == m + 2
        ys = rng.uniform(-1.0, 1.0, ts.size)
        at = _Iterate(lag, u, ts, ys)
        return *at.hess(), -at.grad(), rng.normal(size=m)

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_threshold(self, offset, u):
        from tsvar.variational import _CR_MIN_UNKNOWNS

        self.check_definite(_CR_MIN_UNKNOWNS + offset, u)

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("m", [1023, 1024, 1025, 3001])
    def test_around_powers_of_two(self, m, u):
        self.check_definite(m, u)

    def check_definite(self, m, u):
        from tsvar.variational import (
            _CR_MIN_UNKNOWNS,
            _cyclic_reduction,
            _solve_pivoting,
            _solve_tridiagonal,
        )

        diag, off, r1, r2 = self.case(self.CONVEX, u, m, np.random.default_rng(m))
        # u^3 makes the Hessian of a convex integrand negative definite for u < 0
        assert np.all(np.sign(diag) == np.sign(u))
        got = _solve_tridiagonal(diag, off, r1, r2)
        loop = _solve_pivoting(diag, off, r1, r2)
        reduced = _cyclic_reduction(diag, off, (r1, r2))
        if m < _CR_MIN_UNKNOWNS:
            assert reduced is None
            assert all(np.array_equal(x, y) for x, y in zip(got, loop))
            return
        assert reduced is not None and reduced.shape == (2, m)
        assert all(np.array_equal(x, y) for x, y in zip(got, reduced))
        dense = dense_tridiagonal(diag, off)
        for x, want_loop, r in zip(got, loop, (r1, r2)):
            assert self.close(x, want_loop, m)
            assert self.close(x, np.linalg.solve(dense, r), m)

    def test_indefinite_falls_back_to_loop(self):
        # y^2 - v^2 on [0, 10] is past its first conjugate point (at pi), so
        # the Hessian has eigenvalues of both signs
        from tsvar.variational import (
            _CR_MIN_UNKNOWNS,
            _cyclic_reduction,
            _solve_pivoting,
            _solve_tridiagonal,
        )

        m = _CR_MIN_UNKNOWNS + 87
        diag, off, r1, _ = self.case(TestBandedNewtonStep.INDEFINITE, 1.0, m,
                                     np.random.default_rng(3),
                                     scale=TimeScale.interval(0.0, 10.0))
        dense = dense_tridiagonal(diag, off)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() < 0.0 < eig.max()
        assert _cyclic_reduction(diag, off, (r1,)) is None
        [got] = _solve_tridiagonal(diag, off, r1)
        [loop] = _solve_pivoting(diag, off, r1)
        assert np.array_equal(got, loop)
        assert self.close(got, np.linalg.solve(dense, r1), m)

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, 64])
    @pytest.mark.parametrize("k", [1, 2])
    def test_tail_sweep_matches_dense(self, monkeypatch, offset, u, k):
        # with the threshold lowered, _CR_TAIL + offset unknowns go straight
        # to the sweep (offset <= 0) or through one or two levels first
        from tsvar import variational
        from tsvar.variational import _CR_TAIL, _cyclic_reduction

        monkeypatch.setattr(variational, "_CR_MIN_UNKNOWNS", 1)
        m = _CR_TAIL + offset
        diag, off, r1, r2 = self.case(self.CONVEX, u, m, np.random.default_rng(m))
        rhs = (r1, r2)[:k]
        got = _cyclic_reduction(diag, off, rhs)
        assert got is not None and got.shape == (k, m)
        dense = dense_tridiagonal(diag, off)
        for x, r in zip(got, rhs):
            assert self.close(x, np.linalg.solve(dense, r), m)

    @staticmethod
    def tail_row(n):
        """A row of an n-row padded system that cyclic reduction keeps for
        the sweep: its index is 2^levels * j - 1."""
        from tsvar.variational import _CR_TAIL

        return (n + 1) // (_CR_TAIL + 1) * 40 - 1

    @pytest.mark.parametrize("u", [1.3, -0.7])
    def test_bad_pivot_only_in_tail_falls_back(self, u):
        # a row that survives every level keeps its own diagonal through the
        # reduction, so lowering that one entry leaves every level's pivots
        # as they were and turns only a pivot of the sweep
        from tsvar.variational import _cyclic_reduction, _solve_tridiagonal

        m = 1023
        diag, off, r1, r2 = self.case(self.CONVEX, u, m, np.random.default_rng(5))
        assert _cyclic_reduction(diag, off, (r1,)) is not None
        diag = diag.copy()
        diag[self.tail_row(m)] -= 10.0 * diag[self.tail_row(m)]
        dense = dense_tridiagonal(diag, off)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() < 0.0 < eig.max()
        assert _cyclic_reduction(diag, off, (r1, r2)) is None
        for x, r in zip(_solve_tridiagonal(diag, off, r1, r2), (r1, r2)):
            assert self.close(x, np.linalg.solve(dense, r), m)

    def test_bad_first_level_pivot_falls_back(self):
        from tsvar.variational import _cyclic_reduction, _solve_tridiagonal

        m = 1023
        diag, off, r1, _ = self.case(self.CONVEX, 1.0, m, np.random.default_rng(6))
        diag = diag.copy()
        diag[2] = -diag[2]  # an even row: a pivot of the first level
        assert _cyclic_reduction(diag, off, (r1,)) is None
        [x] = _solve_tridiagonal(diag, off, r1)
        assert self.close(x, np.linalg.solve(dense_tridiagonal(diag, off), r1), m)

    def test_zero_matrix_above_threshold_is_singular(self):
        from tsvar.variational import _CR_MIN_UNKNOWNS, _solve_tridiagonal

        m = _CR_MIN_UNKNOWNS + 1
        with pytest.raises(SingularSystemError):
            _solve_tridiagonal(np.zeros(m), np.zeros(m - 1), np.ones(m))

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("zero_gradient", [False, True])
    def test_schur_step_matches_elimination(self, monkeypatch, u, zero_gradient):
        from tsvar import variational
        from tsvar.variational import _CR_MIN_UNKNOWNS, _bordered_elimination

        m = _CR_MIN_UNKNOWNS + 489
        rng = np.random.default_rng(17)
        diag, off, r1, r2 = self.case(self.CONVEX, u, m, rng)
        gg = np.zeros(m) if zero_gradient else r2
        phi = np.append(-r1, rng.uniform(-1.0, 1.0))

        def not_called(*args):
            raise AssertionError("a definite Hessian took the elimination")

        monkeypatch.setattr(variational, "_bordered_elimination", not_called)
        step, dlam = variational._bordered_step(diag, off, gg, phi)
        want_step, want_dlam = _bordered_elimination(diag, off, gg, phi)
        if zero_gradient:
            assert dlam == want_dlam == 0.0
        assert self.close(np.append(step, dlam), np.append(want_step, want_dlam), m)
        dense = TestBandedNewtonStep.bordered_dense(diag, off, gg)
        if not zero_gradient:
            assert self.close(np.append(step, dlam), np.linalg.solve(dense, -phi), m)


class TestIterateReuse:
    """solve and solve_iso evaluate each partial once per iterate and
    direction; the per-call loop in helpers, which packs and evaluates
    anew for every figure, is the reference."""

    MIXED = TimeScale((Segment(0.0, 1.0), Segment(1.5, 1.5), Segment(2.0, 2.0),
                       Segment(3.0, 4.0)))
    CATENARY = Lagrangian.from_text("sqrt(1+v^2)*exp(y/4)")
    BUMP_G = Lagrangian.from_text("y")

    def problems(self, h):
        quad = Lagrangian.from_text("v^2 + y^2 + 0.3*t*y")
        return [
            Problem(scale=UNIT, u=1.0, L=self.CATENARY, alpha=0.3, beta=1.2, h=h),
            Problem(scale=UNIT, u=-1.5, L=quad, alpha=0.2, beta=-0.4, h=h),
            Problem(scale=self.MIXED, u=1.0, L=quad, alpha=1.0, beta=-1.0, h=2 * h),
        ]

    def iso_problems(self, h):
        return [
            IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=h,
                       G=self.BUMP_G, w=1.0, K=1.3 / 6),
            IsoProblem(scale=UNIT, u=1.0, L=self.CATENARY, alpha=0.3, beta=1.2,
                       h=h, G=Lagrangian.from_text("y + 0.1*y^3"), w=2.0, K=1.5),
            IsoProblem(scale=UNIT, u=-1.3, L=Lagrangian.from_text("v^2 + y^2"),
                       alpha=0.2, beta=-0.1, h=h,
                       G=Lagrangian.from_text("y*exp(y/3)"), w=0.7, K=0.1),
        ]

    @staticmethod
    def same(got, want):
        assert np.array_equal(got.y.values, want.y.values)
        assert (got.functional_value, got.residual_max, got.iterations,
                got.lam, got.lam0, got.normal_flag) == (
                    want.functional_value, want.residual_max, want.iterations,
                    want.lam, want.lam0, want.normal_flag)

    def test_solve_is_bitwise_the_per_call_loop(self):
        from helpers import reference_solve

        for p in self.problems(h=1 / 300):
            assert len(p.discretized().points) - 2 < 512
            sol = solve(p)
            assert sol.iterations >= 1
            self.same(sol, reference_solve(p))

    def test_solve_iso_is_bitwise_the_per_call_loop(self):
        from helpers import reference_solve_iso

        for iso in self.iso_problems(h=1 / 300):
            sol = solve_iso(iso)
            assert sol.iterations >= 1
            self.same(sol, reference_solve_iso(iso))

    def test_above_threshold_agrees_with_the_pivoting_loop(self, monkeypatch):
        # the reference takes the pivoting loop and the bordered elimination
        # throughout, so this also checks cyclic reduction inside the solves
        from helpers import reference_solve, reference_solve_iso
        from tsvar import variational

        h = 1 / 1500
        got = [solve(p) for p in self.problems(h)]
        got += [solve_iso(iso) for iso in self.iso_problems(h)]
        monkeypatch.setattr(variational, "_cyclic_reduction", lambda *args: None)
        want = [reference_solve(p) for p in self.problems(h)]
        want += [reference_solve_iso(iso) for iso in self.iso_problems(h)]
        for a, b in zip(got, want):
            m = len(a.y.values) - 2
            assert m >= variational._CR_MIN_UNKNOWNS
            tol = np.finfo(float).eps * m * m
            scale = max(1.0, float(np.max(np.abs(b.y.values))))
            assert float(np.max(np.abs(a.y.values - b.y.values))) <= tol * scale
            assert a.functional_value == pytest.approx(b.functional_value, abs=tol)
            assert a.iterations == b.iterations
            if b.lam is not None:
                assert a.lam == pytest.approx(b.lam, abs=tol * max(1.0, abs(b.lam)))

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Every expression evaluation the solvers make, as (expression,
        arguments) keys."""
        from tsvar import variational

        seen = []
        real = variational.evaluate_array

        def spy(e, t, y, v):
            seen.append((id(e), t.tobytes(), y.tobytes(), v.tobytes()))
            return real(e, t, y, v)

        monkeypatch.setattr(variational, "evaluate_array", spy)
        return seen

    @pytest.fixture
    def trials(self, monkeypatch):
        from tsvar import variational

        made = []
        real = variational._moved

        def spy(*args):
            made.append(1)
            return real(*args)

        monkeypatch.setattr(variational, "_moved", spy)
        return made

    def test_solve_evaluates_once_per_iterate(self, evaluations, trials):
        p = self.problems(h=1 / 300)[0]
        sol = solve(p)
        # the gradient's two partials at the start and at every trial, the
        # Hessian's three at every accepted iterate that takes a step, and
        # L once for the functional value
        assert sol.iterations >= 3
        assert len(evaluations) == 2 * (1 + len(trials)) + 3 * sol.iterations + 1
        assert len(set(evaluations)) == len(evaluations)

    def test_one_step_solve_makes_eight_evaluations(self, evaluations, trials):
        sol = solve(classical(L=Lagrangian.from_text("v^2 + y^2"), h=0.01))
        assert (sol.iterations, len(trials), len(evaluations)) == (1, 1, 8)

    def test_solve_iso_evaluates_once_per_iterate(self, evaluations, trials):
        # five per iterate (two partials of each integrand and the constraint
        # value), six second partials per step, and L once
        for iso in self.iso_problems(h=1 / 300):
            evaluations.clear()
            trials.clear()
            sol = solve_iso(iso)
            assert len(evaluations) == 5 * (1 + len(trials)) + 6 * sol.iterations + 1
            assert len(set(evaluations)) == len(evaluations)

    def test_public_checks_are_bitwise_fresh_records(self):
        # verify, functional_value, el_residual and residual_column read one
        # record per integrand; a fresh record per figure is the reference
        from tsvar.variational import _interior, _Iterate

        for p in self.problems(h=1 / 300) + self.iso_problems(h=1 / 300):
            iso = isinstance(p, IsoProblem)
            y = solve_iso(p).y if iso else solve(p).y
            ts, ys = y.grid.points, y.values
            res = _Iterate(p.L, p.u, ts, ys).residual()
            value = _Iterate(p.L, p.u, ts, ys).functional()
            assert functional_value(p, y) == value
            assert np.array_equal(el_residual(p, y).values, res)
            cases = [((), _interior(p.u, res))]
            if iso:
                res_g = _Iterate(p.G, p.w, ts, ys).residual()
                cases.append(((0.5, 1.25), 0.5 * _interior(p.u, res)
                              - 1.25 * _interior(p.w, res_g)))
            for lams, want in cases:
                assert residual_column(p, y, *lams)[2:-2] == want.tolist()
                report = verify(p, y, 1e-8, *lams)
                assert report.residual_max == float(np.max(np.abs(want)))
                assert report.functional_value == value

    @pytest.fixture
    def differentiations(self, monkeypatch):
        from tsvar import lagrangian

        made = []
        real = lagrangian.differentiate

        def spy(e, var):
            made.append(var)
            return real(e, var)

        monkeypatch.setattr(lagrangian, "differentiate", spy)
        return made

    def test_each_lagrangian_differentiated_twice_only_once(
            self, differentiations):
        # fresh integrands, whose second partials no other test has built
        p = self.problems(h=1 / 300)[1]
        iso = self.iso_problems(h=1 / 300)[2]
        differentiations.clear()
        solve(p)
        solve(p)
        assert differentiations == ["y", "v", "v"]
        differentiations.clear()
        solve_iso(iso)
        solve_iso(iso)
        assert len(differentiations) == 6

    def test_singular_accepted_iterate_raises_as_before(self):
        # the line search accepts an iterate whose last term's y partial is
        # nan, since the gradient does not read it; the next checked read
        # raises at that term, in both loops
        from helpers import reference_solve
        from tsvar.errors import EvaluationError

        lag = Lagrangian.from_text("v^2 - 20*y^2 + y*log(v + 100*(0.9 - t))")
        p = classical(L=lag, alpha=-1.0, beta=0.0, h=0.1)
        with pytest.raises(EvaluationError) as got:
            solve(p)
        with pytest.raises(EvaluationError) as want:
            reference_solve(p)
        assert str(got.value) == str(want.value)
        # the affine start's last slope is 1, where the log is finite
        assert str(got.value).startswith(
            "cannot evaluate expression at t=0.9, y=0.0, v=-")


class TestScipyFree:
    def test_solvers_above_threshold_do_not_import_scipy(self):
        # cyclic reduction and the Schur step must stay numpy-only
        code = """if True:
            import sys
            from tsvar import IsoProblem, Lagrangian, Problem, TimeScale, solve, solve_iso
            from tsvar.variational import _CR_MIN_UNKNOWNS
            unit = TimeScale.interval(0.0, 1.0)
            h = 1.0 / (2 * _CR_MIN_UNKNOWNS)
            solve(Problem(scale=unit, u=1.0, L=Lagrangian.from_text("v^2 + y^2"),
                          alpha=0.0, beta=1.0, h=h))
            solve_iso(IsoProblem(scale=unit, u=1.0, L=Lagrangian.from_text("v^2"),
                                 alpha=0.0, beta=0.0, h=h,
                                 G=Lagrangian.from_text("y"), w=1.0, K=1 / 6))
            assert "scipy" not in sys.modules, sorted(
                name for name in sys.modules if name.startswith("scipy"))
        """
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=child_env())
        assert cp.returncode == 0, cp.stderr


class TestFineGrid:
    def test_bump_converges_at_second_order(self):
        # the discrete bump is c * t(1-t) with c = 1/(1 - h^2), so the
        # error at t = 1/2 is h^2/4; below h = 5e-5 rounding (about 5e-10
        # at 5e4 points) overtakes it
        errors = []
        for h in (1e-4, 5e-5):
            iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0,
                             h=h, G=Lagrangian.from_text("y"), w=1.0, K=1 / 6)
            sol = solve_iso(iso)
            ts = np.asarray(sol.y.grid.points)
            errors.append(float(np.max(np.abs(np.asarray(sol.y.values) - ts * (1 - ts)))))
            assert sol.lam == pytest.approx(4.0, abs=1e-6)
        assert 3.6 <= errors[0] / errors[1] <= 4.4, errors


class TestSolve:
    def test_classical_extremal(self):
        sol = solve(classical())
        err = max(abs(yv - t) for yv, t in zip(sol.y.values, sol.y.grid.points))
        assert err <= 1e-6
        assert sol.functional_value == pytest.approx(1.0, abs=1e-3)
        assert sol.y.values[0] == 0.0 and sol.y.values[-1] == 1.0

    def test_nabla_direction_same_extremal(self):
        sol = solve(classical(u=-1.0))
        err = max(abs(yv - t) for yv, t in zip(sol.y.values, sol.y.grid.points))
        assert err <= 1e-6
        assert sol.functional_value == pytest.approx(-1.0, abs=1e-3)

    def test_discrete_matches_quadratic_reconstruction_oracle(self):
        lag = Lagrangian.from_text("v^2 + y^2")
        p = Problem(scale=FIVE, u=1.0, L=lag, alpha=0.0, beta=1.0, h=1.0)
        sol = solve(p)

        def oracle_f(x):
            y = [0.0, x[0], x[1], x[2], 1.0]
            return sum((y[i + 1] - y[i]) ** 2 + y[i + 1] ** 2 for i in range(4))

        # reconstruct the exact quadratic and solve its stationarity system
        m = 3
        f0 = oracle_f([0.0] * m)
        e = np.eye(m)
        Q = np.empty((m, m))
        for j in range(m):
            Q[j, j] = oracle_f(2 * e[j]) - 2 * oracle_f(e[j]) + f0
            for k in range(j + 1, m):
                Q[j, k] = Q[k, j] = (oracle_f(e[j] + e[k]) - oracle_f(e[j])
                                     - oracle_f(e[k]) + f0)
        c = np.array([oracle_f(e[j]) - f0 - Q[j, j] / 2 for j in range(m)])
        expected = np.linalg.solve(Q, -c)
        got = np.asarray(sol.y.values[1:-1])
        assert np.max(np.abs(got - expected)) <= 1e-8
        # exact fractions of the tridiagonal system: 1/21, 1/7, 8/21
        assert got == pytest.approx([1 / 21, 1 / 7, 8 / 21], abs=1e-10)
        assert sol.functional_value == pytest.approx(oracle_f(expected), abs=1e-10)

    def test_solution_residual_is_reported(self):
        sol = solve(classical(h=0.05))
        assert sol.residual_max <= 1e-9
        assert sol.iterations == 0  # affine start is the exact extremal

    def test_iteration_limit_carries_last_iterate(self):
        lag = Lagrangian.from_text("v^2 + y^2")
        p = Problem(scale=UNIT, u=1.0, L=lag, alpha=0.0, beta=1.0, h=0.1)
        with pytest.raises(IterationLimitError) as err:
            solve(p, max_iter=0)
        assert err.value.last is not None
        assert len(err.value.last) == len(p.discretized().points)

    def test_singular_hessian_reported(self):
        lag = Lagrangian.from_text("y")
        p = Problem(scale=UNIT, u=1.0, L=lag, alpha=0.0, beta=1.0, h=0.1)
        with pytest.raises(SingularSystemError):
            solve(p)

    def test_degenerate_grid_rejected(self):
        p = Problem(scale=TimeScale.of_points(0, 1, 2), u=1.0, L=V2,
                    alpha=0.0, beta=1.0, h=1.0)
        with pytest.raises(DegenerateScaleError):
            solve(p)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParameterError):
            solve(classical(), tol=0.0)

    def test_nonlinear_problem_converges(self):
        # y'' = sinh-type problem but with an exponential source
        lag = Lagrangian.from_text("v^2 + exp(y)")
        p = Problem(scale=UNIT, u=1.0, L=lag, alpha=0.0, beta=0.0, h=0.02)
        sol = solve(p, tol=1e-12)
        assert sol.residual_max <= 1e-9
        assert sol.iterations >= 1


class TestSolveIso:
    def iso_classical(self, w=1.0, K=1 / 6):
        return IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0,
                          h=1e-3, G=Lagrangian.from_text("y"), w=w, K=K)

    def test_classical_multiplier(self):
        sol = solve_iso(self.iso_classical())
        i = sol.y.grid.points.tolist().index(0.5)
        assert sol.y.values[i] == pytest.approx(0.25, abs=1e-3)
        assert sol.lam == pytest.approx(4.0, abs=1e-2)
        assert sol.lam0 == 1.0
        assert sol.normal_flag is True
        assert sol.functional_value == pytest.approx(1 / 3, abs=1e-3)

    def test_mixed_sign_constraint_direction(self):
        # w < 0 builds the constraint side in the nabla direction; the
        # classical reduction flips the multiplier sign
        sol = solve_iso(self.iso_classical(w=-1.0))
        i = sol.y.grid.points.tolist().index(0.5)
        assert sol.y.values[i] == pytest.approx(0.25, abs=2e-3)
        assert sol.lam == pytest.approx(-4.0, abs=2e-2)
        assert sol.normal_flag is True

    def test_abnormal_extremizer_flagged(self):
        base = classical()
        K = solve(base).functional_value
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0,
                         h=1e-3, G=V2, w=1.0, K=K)
        sol = solve_iso(iso)
        assert sol.normal_flag is False
        assert (sol.lam0, sol.lam) == (0.0, 1.0)
        err = max(abs(yv - t) for yv, t in zip(sol.y.values, sol.y.grid.points))
        assert err <= 1e-6

    def test_constraint_constant_in_y_feasible_is_abnormal(self):
        g = Lagrangian.from_text("t")
        p = Problem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=0.02)
        grid = p.discretized()
        affine = GridFunction.sample(grid, lambda t: t)
        k_val = functional_value(
            Problem(scale=UNIT, u=1.0, L=g, alpha=0.0, beta=1.0, h=0.02), affine)
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=0.02,
                         G=g, w=1.0, K=k_val)
        sol = solve_iso(iso)
        assert sol.normal_flag is False

    def test_constraint_constant_in_y_infeasible(self):
        g = Lagrangian.from_text("t")
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=0.02,
                         G=g, w=1.0, K=123.0)
        with pytest.raises(InfeasibleConstraintError):
            solve_iso(iso)

    def test_overflowing_trials_raise_without_warnings(self):
        # line-search trials along these steps overflow; they are rejected
        # without a numpy RuntimeWarning, which the test settings make an error
        iso = IsoProblem(scale=UNIT, u=1.0,
                         L=Lagrangian.from_text("sqrt(1+v^2)*exp(y/4)"),
                         alpha=0.3, beta=1.2, h=1 / 300,
                         G=Lagrangian.from_text("y + 0.1*y^3"), w=-0.6, K=-0.5)
        with pytest.raises(IterationLimitError, match="after 100 Newton steps"):
            solve_iso(iso)

    def test_nan_system_value_does_not_converge(self):
        # the constraint's terms overflow to inf of both signs, so its value
        # and the system's norm are nan, which must not pass as converged
        iso = IsoProblem(scale=TimeScale.interval(0.0, 8.0), u=1.0, L=V2,
                         alpha=0.0, beta=1.0, h=0.5,
                         G=Lagrangian.from_text("1.7e308*cos(1.2566*t) + v^2"),
                         w=1.0, K=0.0)
        with pytest.raises(IterationLimitError, match="line search stalled"):
            solve_iso(iso)

    def test_nabla_pair(self):
        # u = w = -1 classical reduction: the constraint functional is
        # w * integral of w*y^rho, i.e. ~ integral of y, so K = 1/6 gives the
        # positive bump; the G side carries a factor w, flipping the multiplier
        iso = IsoProblem(scale=UNIT, u=-1.0, L=V2, alpha=0.0, beta=0.0,
                         h=1e-3, G=Lagrangian.from_text("y"), w=-1.0, K=1 / 6)
        sol = solve_iso(iso)
        i = sol.y.grid.points.tolist().index(0.5)
        assert sol.y.values[i] == pytest.approx(0.25, abs=2e-3)
        # L side: u*((d3 L)^nabla - d2 L) = 2y'' = -4c; G side: w*(0 - 1) = 1
        assert sol.lam == pytest.approx(-4.0, abs=2e-2)


class TestErrorBranches:
    """Contract checks that no solve of a well-formed problem reaches."""

    def iso(self):
        return IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.25,
                          G=Lagrangian.from_text("y"), w=1.0, K=0.5)

    def test_negative_iteration_limit(self):
        with pytest.raises(ParameterError, match="max_iter"):
            solve(classical(h=0.25), max_iter=-1)
        with pytest.raises(ParameterError, match="max_iter"):
            solve_iso(self.iso(), max_iter=-1)

    def test_zero_tolerance_iso(self):
        with pytest.raises(ParameterError, match="tol"):
            solve_iso(self.iso(), tol=0.0)

    def test_residual_on_two_points(self):
        p = classical(scale=TimeScale.of_points(0, 1))
        with pytest.raises(DegenerateScaleError, match="three grid points"):
            el_residual(p, trajectory(p, lambda t: t))

    def test_verify_with_empty_interior(self):
        p = classical(scale=TimeScale.of_points(0, 1, 2, 3), beta=3.0)
        with pytest.raises(DegenerateScaleError, match="interior is empty"):
            verify(p, trajectory(p, lambda t: t), tol=1e-8)

    def test_singular_pivoting_system(self):
        from tsvar.variational import _solve_pivoting

        with pytest.raises(SingularSystemError):
            _solve_pivoting(np.array([1.0, 1.0]), np.array([1.0]), np.ones(2))

    def test_singular_bordered_elimination(self):
        from tsvar.variational import _bordered_elimination

        with pytest.raises(SingularSystemError):
            _bordered_elimination(np.array([0.0, 1.0]), np.array([0.0]),
                                  np.array([0.0, 1.0]), np.ones(3))


class TestVerify:
    def test_extremal_passes(self):
        p = classical(h=0.02)
        report = verify(p, trajectory(p, lambda t: t), tol=1e-8)
        assert report.passed and report.boundary_ok
        assert report.residual_max <= 1e-10

    def test_perturbed_fails(self):
        p = classical(h=0.02)
        report = verify(p, trajectory(p, lambda t: t + 0.1 * t * (1 - t)), tol=1e-8)
        assert not report.passed
        assert report.boundary_ok
        assert report.residual_max > 1e-3

    def test_boundary_violation_flagged(self):
        p = classical(h=0.02)
        report = verify(p, trajectory(p, lambda t: t + 0.5), tol=1e-8)
        assert not report.boundary_ok
        assert not report.passed

    def test_multipliers_pass_the_isoperimetric_bump(self):
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.01,
                         G=Lagrangian.from_text("y"), w=1.0, K=1 / 6)
        sol = solve_iso(iso)
        with_pair = verify(iso, sol.y, 1e-6, sol.lam0, sol.lam)
        assert with_pair.passed
        assert with_pair.residual_max == sol.residual_max
        # the default stays the integrand's own residual, about 4 * c
        plain = verify(iso, sol.y, 1e-6)
        assert not plain.passed
        assert plain.residual_max == pytest.approx(4.0, rel=1e-3)

    @pytest.mark.parametrize("lone", [{"lam0": 0.0}, {"lam0": 1.0}, {"lam": 4.0}])
    def test_lone_multiplier_rejected(self, lone):
        # a lone lam0 used to be dropped, so verify reported the L-side
        # residual, about 4, as if no multiplier had been given
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.01,
                         G=Lagrangian.from_text("y"), w=1.0, K=1 / 6)
        sol = solve_iso(iso)
        with pytest.raises(ParameterError, match="both multipliers lam0 and lam, or neither"):
            verify(iso, sol.y, 1e-6, **lone)
        with pytest.raises(ParameterError, match="both multipliers lam0 and lam, or neither"):
            residual_column(iso, sol.y, **lone)
        with pytest.raises(ParameterError, match="both multipliers lam0 and lam, or neither"):
            residual_column(iso, sol.y, enforce_boundaries=False, **lone)

    @pytest.mark.parametrize("pair", [(1.0, 0.5), (None, 0.5), (1.0, None)])
    def test_multipliers_on_plain_problem_rejected(self, pair):
        p = classical(h=0.02)
        with pytest.raises(ParameterError, match="IsoProblem"):
            verify(p, trajectory(p, lambda t: t), 1e-8, *pair)


class TestResidualColumnReference:
    """residual_column against the per-point loop it replaced, and the other
    public checks against fresh records. The arithmetic is the same, so the
    values must be equal, not close."""

    @pytest.mark.parametrize("u, w", [(1.0, 1.0), (-1.0, 2.0), (2.0, -0.5)])
    def test_matches_per_point_loop(self, u, w):
        from tsvar.variational import _Iterate

        scale = TimeScale.from_segments(
            [Segment(0.0, 1.0), Segment(1.5, 1.5), Segment(2.0, 3.0)])
        iso = IsoProblem(scale=scale, u=u, L=Lagrangian.from_text("v^2 + t*y^2"),
                         alpha=0.0, beta=1.0, h=0.1,
                         G=Lagrangian.from_text("y*v + y^3"), w=w, K=0.0)
        y = GridFunction.sample(iso.discretized(),
                                lambda t: t / 3 + 0.7 * t * (3 - t))
        ts, ys = np.asarray(y.grid.points), np.asarray(y.values)
        res_l = _Iterate(iso.L, u, ts, ys).residual()
        res_g = _Iterate(iso.G, w, ts, ys).residual()

        def at(d, values, i):
            # aligned to grid index 0 for d > 0 and to grid index 2 for d < 0
            return float(values[i] if d > 0 else values[i - 2])

        n = len(ts)
        plain = [None] * n
        combined = [None] * n
        for i in range(2, n - 2):
            plain[i] = at(u, res_l, i)
            combined[i] = 0.5 * at(u, res_l, i) - 1.25 * at(w, res_g, i)
        assert residual_column(iso, y) == plain
        assert residual_column(iso, y, lam0=0.5, lam=1.25) == combined

        value = _Iterate(iso.L, u, ts, ys).functional()
        assert np.array_equal(el_residual(iso, y).values, res_l)
        assert functional_value(iso, y) == value
        for lams, col in (((), plain), ((0.5, 1.25), combined)):
            report = verify(iso, y, 1e-8, *lams)
            assert report.residual_max == max(abs(r) for r in col[2:n - 2])
            assert report.functional_value == value


class TestOneGridPerProblem:
    @pytest.fixture
    def discretize_calls(self, monkeypatch):
        calls = []
        original = TimeScale.discretize

        def spy(scale, h):
            calls.append(h)
            return original(scale, h)

        monkeypatch.setattr(TimeScale, "discretize", spy)
        return calls

    def test_solve_verify_and_residual_discretize_once(self, discretize_calls):
        p = classical(L=Lagrangian.from_text("v^2 + y^2"), h=0.01)
        sol = solve(p)
        verify(p, sol.y, tol=1e-8)
        residual_column(p, sol.y)
        assert discretize_calls == [0.01]
        assert sol.y.grid is p.discretized()

    def test_solve_iso_and_verify_discretize_once(self, discretize_calls):
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.01,
                         G=Lagrangian.from_text("y"), w=1.0, K=1 / 6)
        sol = solve_iso(iso)
        verify(iso, sol.y, tol=1e-8)
        assert discretize_calls == [0.01]

    def test_equal_grid_of_another_problem_is_accepted(self):
        p = classical(h=0.02)
        y = trajectory(classical(h=0.02), lambda t: t)
        assert y.grid is not p.discretized()
        assert verify(p, y, tol=1e-8).passed

    def test_mismatch_names_both_sizes(self):
        p = classical(h=0.02)
        y = trajectory(classical(h=0.04), lambda t: t)
        with pytest.raises(GridMismatchError, match="has 26 points but the "
                           "discretized grid has 51"):
            residual_column(p, y)

    def test_mismatch_is_worded_for_library_callers(self):
        p = classical(h=0.02)
        y = trajectory(classical(h=0.04), lambda t: t)
        with pytest.raises(GridMismatchError) as info:
            verify(p, y, tol=1e-8)
        assert "CSV" not in str(info.value) and "column" not in str(info.value)
        assert (info.value.points, info.value.grid_points) == (26, 51)
