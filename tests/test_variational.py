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


    @pytest.mark.parametrize("u", [1.0, -1.0])
    def test_overflowing_terms_sum_exactly(self, u):
        # the terms overflow to inf of both signs; the value is their exact
        # sum, rounded once, as delta_integral gives it
        from fractions import Fraction

        from tsvar.lagrangian import evaluate_array

        p = classical(u=u, L=Lagrangian.from_text("1.7e308*cos(1.2566*t) + v^2"),
                      h=0.5, scale=TimeScale.interval(0.0, 8.0))
        y = trajectory(p, lambda t: t / 8.0)
        ts, ys = y.grid.points, y.values
        slopes = np.diff(ys) / np.diff(ts)
        at, ys_at = (ts[:-1], ys[1:]) if u > 0 else (ts[1:], ys[:-1])
        vals = evaluate_array(p.L.L, at, u * ys_at, u * slopes)
        exact = sum(Fraction(v) * (Fraction(b) - Fraction(a))
                    for v, a, b in zip(vals.tolist(), ts.tolist(), ts[1:].tolist()))
        assert functional_value(p, y) == u * float(exact)
        assert np.isfinite(functional_value(p, y))
        if u > 0:
            assert functional_value(p, y) == 3.6360487177047214e+304
            assert solve(p).functional_value == 3.6360487177047214e+304


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
        from tsvar import banded

        h = 1 / 1500
        got = [solve(p) for p in self.problems(h)]
        got += [solve_iso(iso) for iso in self.iso_problems(h)]
        monkeypatch.setattr(banded, "_cyclic_reduction", lambda *args: None)
        want = [reference_solve(p) for p in self.problems(h)]
        want += [reference_solve_iso(iso) for iso in self.iso_problems(h)]
        for a, b in zip(got, want):
            m = len(a.y.values) - 2
            assert m >= banded._CR_MIN_UNKNOWNS
            tol = np.finfo(float).eps * m * m
            scale = max(1.0, float(np.max(np.abs(b.y.values))))
            assert float(np.max(np.abs(a.y.values - b.y.values))) <= tol * scale
            assert a.functional_value == pytest.approx(b.functional_value, abs=tol)
            assert a.iterations == b.iterations
            if b.lam is not None:
                assert a.lam == pytest.approx(b.lam, abs=tol * max(1.0, abs(b.lam)))

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every program run, as (program, arguments) keys: an integrand's
        value and first partials run as one program, its second partials as
        another."""
        from tsvar.lagrangian import Program

        seen = []
        real = Program.__call__

        def spy(program, t, y, v):
            seen.append((id(program), t.tobytes(), y.tobytes(), v.tobytes()))
            return real(program, t, y, v)

        monkeypatch.setattr(Program, "__call__", spy)
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

    def test_solve_evaluates_once_per_iterate(self, runs, trials):
        p = self.problems(h=1 / 300)[0]
        sol = solve(p)
        # the first-order program at the start and at every trial, which
        # also gives the functional value, and the second-order one at every
        # accepted iterate that takes a step
        assert sol.iterations >= 3
        assert len(runs) == (1 + len(trials)) + sol.iterations
        assert len(set(runs)) == len(runs)

    def test_one_step_solve_makes_three_program_runs(self, runs, trials):
        sol = solve(classical(L=Lagrangian.from_text("v^2 + y^2"), h=0.01))
        assert (sol.iterations, len(trials), len(runs)) == (1, 1, 3)

    def test_solve_iso_evaluates_once_per_iterate(self, runs, trials):
        # the first-order programs of both integrands per iterate, which also
        # give the constraint value, and both second-order ones per step
        for iso in self.iso_problems(h=1 / 300):
            runs.clear()
            trials.clear()
            sol = solve_iso(iso)
            assert len(runs) == 2 * (1 + len(trials)) + 2 * sol.iterations
            assert len(set(runs)) == len(runs)

    @staticmethod
    def checks(p, y, lams=()):
        """Every public check of y, as plain values."""
        report = verify(p, y, 1e-8, *lams)
        return (functional_value(p, y), el_residual(p, y).values.tobytes(),
                residual_column(p, y, *lams), report.residual_max,
                report.functional_value, report.passed)

    def test_checks_on_the_solution_run_no_program(self, runs):
        # verify, residual_column, el_residual and functional_value read the
        # solver's last record when they get its own trajectory, sol.y, on
        # the problem solved, with or without the multipliers; an equal copy
        # of y is evaluated afresh, to the same bits
        for p in self.problems(h=1 / 300) + self.iso_problems(h=1 / 300):
            iso = isinstance(p, IsoProblem)
            sol = solve_iso(p) if iso else solve(p)
            lams = [(), (sol.lam0, sol.lam)] if iso else [()]
            for pair in lams:
                runs.clear()
                got = self.checks(p, sol.y, pair)
                assert runs == []
                copy = GridFunction(sol.y.grid, sol.y.values)
                assert self.checks(p, copy, pair) == got
                # one record under L per check, and one under G for each
                # of the two that take the multipliers
                assert len(runs) == (6 if pair else 4)

    def test_checks_on_a_dropped_solutions_trajectory_run_no_program(self, runs):
        # the trajectory carries the solver's records, so they last as long
        # as y does, not the Solution around it
        for p in self.problems(h=1 / 300)[:1] + self.iso_problems(h=1 / 300)[1:2]:
            iso = isinstance(p, IsoProblem)
            sol = solve_iso(p) if iso else solve(p)
            y, pair = sol.y, (sol.lam0, sol.lam) if iso else ()
            want = (sol.functional_value, sol.residual_max)
            del sol
            runs.clear()
            got = self.checks(p, y, pair)
            assert runs == []
            assert (got[0], got[3]) == want

    def test_solution_holds_only_its_public_figures(self):
        import dataclasses

        from tsvar import Solution

        assert [f.name for f in dataclasses.fields(Solution)] == [
            "y", "functional_value", "residual_max", "iterations",
            "lam", "lam0", "normal_flag"]
        for sol in (solve(self.problems(h=1 / 300)[0]),
                    solve_iso(self.iso_problems(h=1 / 300)[0])):
            fields = dataclasses.asdict(sol)
            assert "_solved" not in fields
            assert set(fields["y"]) == {"grid", "values"}

    def test_other_trajectories_and_problems_are_evaluated_afresh(self, runs):
        p = self.iso_problems(h=1 / 300)[1]
        sol = solve_iso(p)
        pair = (sol.lam0, sol.lam)
        # another problem on the same grid, equal to the one solved
        twin = IsoProblem(scale=p.scale, u=p.u, L=p.L, alpha=p.alpha, beta=p.beta,
                          h=p.h, G=p.G, w=p.w, K=p.K)
        runs.clear()
        assert self.checks(twin, sol.y, pair) == self.checks(p, sol.y, pair)
        assert len(runs) == 6
        # the trajectory changed in place after the solve
        y = sol.y.values
        y.flags.writeable = True
        y[3] += 0.25
        y.flags.writeable = False
        runs.clear()
        got = self.checks(p, sol.y, pair)
        assert len(runs) == 6
        assert got == self.checks(p, GridFunction(sol.y.grid, y), pair)
        assert got[0] != sol.functional_value

    def test_public_checks_are_bitwise_fresh_records(self):
        # verify, functional_value, el_residual and residual_column read one
        # record per integrand; a fresh record per figure is the reference
        from tsvar.variational import _Iterate

        for p in self.problems(h=1 / 300) + self.iso_problems(h=1 / 300):
            iso = isinstance(p, IsoProblem)
            y = solve_iso(p).y if iso else solve(p).y
            ts, ys = y.grid.points, y.values
            r = _Iterate(p.L, p.u, ts, ys)
            res = r.residual()
            value = _Iterate(p.L, p.u, ts, ys).functional()
            assert functional_value(p, y) == value
            assert np.array_equal(el_residual(p, y).values, res)
            cases = [((), r.interior())]
            if iso:
                r_g = _Iterate(p.G, p.w, ts, ys)
                cases.append(((0.5, 1.25), 0.5 * r.interior()
                              - 1.25 * r_g.interior()))
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

    def test_constant_singular_partial_names_the_first_term(self):
        # L_y is the constant log(0) = -inf, which the record keeps as a
        # scalar; the check names the first term, as evaluate does
        from tsvar.errors import EvaluationError

        p = classical(L=Lagrangian.from_text("v^2 + y*log(0)"), h=0.25)
        with pytest.raises(EvaluationError) as got:
            solve(p)
        with pytest.raises(EvaluationError) as want:
            evaluate(p.L.dL_dy, 0.0, 0.25, 1.0)
        assert str(got.value) == str(want.value)


class TestScipyFree:
    def test_solvers_above_threshold_do_not_import_scipy(self):
        # cyclic reduction and the Schur step must stay numpy-only
        code = """if True:
            import sys
            from tsvar import IsoProblem, Lagrangian, Problem, TimeScale, solve, solve_iso
            from tsvar.banded import _CR_MIN_UNKNOWNS
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
        # the constraint's terms overflow to inf of both signs; its value is
        # their exact sum, which no trajectory moves off 3.636e+304
        iso = IsoProblem(scale=TimeScale.interval(0.0, 8.0), u=1.0, L=V2,
                         alpha=0.0, beta=1.0, h=0.5,
                         G=Lagrangian.from_text("1.7e308*cos(1.2566*t) + v^2"),
                         w=1.0, K=0.0)
        with pytest.raises(InfeasibleConstraintError,
                           match=r"^constraint value is insensitive to the trajectory "
                                 r"but misses its target by 3\.636e\+304$"):
            solve_iso(iso)
        # the constraint's gradient overflows, so lam * gg is 0 * inf at the
        # start and the system's norm is nan, which must not pass as converged
        iso = IsoProblem(scale=TimeScale.interval(0.0, 8.0), u=1.0, L=V2,
                         alpha=0.0, beta=1.0, h=2.0,
                         G=Lagrangian.from_text("1.7e308*y"), w=1.0, K=0.0)
        with pytest.raises(SingularSystemError, match="^Newton step is not finite$"):
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


class TestOneOpener:
    """The four public checks open a trajectory alike: the grid is checked
    first, then the boundary values, then the multipliers."""

    CHECKS = {
        "functional_value": functional_value,
        "el_residual": el_residual,
        "residual_column": residual_column,
        "verify": lambda p, y: verify(p, y, tol=1e-8),
        "verify with a lone multiplier": lambda p, y: verify(p, y, 1e-8, lam0=1.0),
    }

    def problem(self):
        return IsoProblem(scale=UNIT, u=1.0, L=Lagrangian.from_text("v^2 + y^2"),
                          alpha=0.0, beta=1.0, h=0.02, G=Lagrangian.from_text("y"),
                          w=1.0, K=0.5)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_grid_before_boundaries(self, check):
        y = trajectory(classical(h=0.04), lambda t: t + 0.5)
        with pytest.raises(GridMismatchError, match="has 26 points but the "
                           "discretized grid has 51"):
            self.CHECKS[check](self.problem(), y)

    @pytest.mark.parametrize("check", ["functional_value", "el_residual",
                                       "residual_column"])
    def test_boundaries(self, check):
        p = self.problem()
        y = trajectory(p, lambda t: t + 0.5)
        with pytest.raises(BoundaryMismatchError,
                           match=r"\(0\.5, 1\.5\) do not match the prescribed"):
            self.CHECKS[check](p, y)

    def test_boundaries_before_multipliers(self):
        p = self.problem()
        with pytest.raises(BoundaryMismatchError):
            residual_column(p, trajectory(p, lambda t: t + 0.5), lam0=1.0)

    def test_verify_reports_wrong_boundaries(self):
        p = self.problem()
        y = trajectory(p, lambda t: t + 0.5)
        report = verify(p, y, tol=1e9)
        assert report.boundary_ok is False
        assert report.passed is False
        col = residual_column(p, y, enforce_boundaries=False)
        assert report.residual_max == max(abs(v) for v in col if v is not None)


class TestNewtonStepCheck:
    """_newton refuses a step that is not finite, whichever solver path made
    it, before the line search sees it."""

    def test_solve(self, monkeypatch):
        from tsvar import variational

        monkeypatch.setattr(variational, "solve_tridiagonal",
                            lambda diag, off, rhs: np.full(diag.size, np.nan))
        with pytest.raises(SingularSystemError, match="^Newton step is not finite$"):
            solve(classical(L=Lagrangian.from_text("v^2 + y^2"), h=0.25))

    def test_solve_iso(self, monkeypatch):
        from tsvar import variational

        monkeypatch.setattr(variational, "bordered_step",
                            lambda diag, off, gg, phi: (np.zeros(diag.size), np.inf))
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.25,
                         G=Lagrangian.from_text("y"), w=1.0, K=0.5)
        with pytest.raises(SingularSystemError, match="^Newton step is not finite$"):
            solve_iso(iso)

    def test_zero_hessian_least_squares_step(self):
        # L and G are linear, so H = 0 at lam = 0 and the step is
        # -phi_K g / g^T g, whose g^T g is subnormal: the step overflows
        iso = IsoProblem(scale=UNIT, u=1.0, L=Lagrangian.from_text("y"),
                         alpha=0.0, beta=0.0, h=0.25,
                         G=Lagrangian.from_text("1e-160*y"), w=1.0, K=1.0)
        with pytest.raises(SingularSystemError, match="^Newton step is not finite$"):
            solve_iso(iso)


class TestFiniteTolerance:
    # verify shares the solvers' rule: a nan tol used to fail every
    # trajectory, and an infinite one to pass any that met the boundaries
    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0])
    def test_rejected_by_both_solvers(self, tol):
        p = classical(L=Lagrangian.from_text("v^2 + y^2"), h=0.25)
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.25,
                         G=Lagrangian.from_text("y"), w=1.0, K=0.5)
        message = f"^tol must be positive and finite, got {tol!r}$"
        with pytest.raises(ParameterError, match=message):
            solve(p, tol=tol)
        with pytest.raises(ParameterError, match=message):
            solve_iso(iso, tol=tol)
        with pytest.raises(ParameterError, match=message):
            verify(p, trajectory(p, lambda t: t), tol=tol)


class TestQuietOverflow:
    """Newton iterations and residuals whose arithmetic overflows write no
    numpy warning, which the test settings make an error. The line search
    scales its merit by a power of two; every other overflow reaches the
    Newton step's check, or reads as inf."""

    @pytest.fixture
    def alphas(self, monkeypatch):
        """Every line-search trial's alpha, in order."""
        from tsvar import variational

        tried = []
        real = variational._moved

        def spy(ys, step, alpha):
            tried.append(alpha)
            return real(ys, step, alpha)

        monkeypatch.setattr(variational, "_moved", spy)
        return tried

    def test_merit_is_scaled_exactly(self, alphas):
        # 2^600 * L has exactly 2^600 times the gradient and the Hessian, so
        # with tol scaled alike the iteration, backtracking included, is the
        # same bit for bit; unscaled, its merit 0.5 * |g|^2 overflows
        def run(k):
            p = classical(L=Lagrangian.from_text(f"2^{k}*(log(2 + v^2) + y^2/2)"), h=0.1)
            return solve(p, tol=2.0 ** k * 1e-10)

        small = run(0)
        assert min(alphas) < 1.0
        huge = run(600)
        assert huge.iterations == small.iterations == 8
        assert huge.y.values.tobytes() == small.y.values.tobytes()

    def test_huge_merit(self):
        p = classical(L=Lagrangian.from_text("v^2 + 1e200*y^2"), h=0.25)
        sol = solve(p)
        assert (sol.iterations, sol.residual_max) == (2, 0.0)
        assert sol.functional_value == 2.4999999999999999e+199

    def test_huge_constraint_merit_stalls(self, alphas):
        iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=0.25,
                         G=Lagrangian.from_text("exp(y)"), w=1.0, K=1e300)
        with pytest.raises(IterationLimitError, match="^line search stalled") as info:
            solve_iso(iso)
        # alpha = 1, 1/2, ..., 2^-39, then the stall, which carries the
        # iterate the search started from: the affine start y = 0
        assert alphas == [2.0 ** -k for k in range(40)]
        assert info.value.last == (0.0,) * 5

    def test_overflowing_step_is_quiet(self):
        # the first step, 2e308, overflows; the terms past it stay finite
        far = TimeScale.of_points(-1e308, 1e308, 1.2e308, 1.4e308, 1.6e308)
        p = classical(L=Lagrangian.from_text("v^2 + y^2"), scale=far, h=0.25)
        y = GridFunction(p.discretized(), (0.0, 0.5, 0.6, 0.7, 1.0))
        assert residual_column(p, y) == [None, None, -1.4, None, None]
        assert el_residual(p, y).values.tolist() == [-1.0, -1.2, -1.4]
        report = verify(p, y, tol=1e-8)
        assert (report.residual_max, report.passed) == (1.4, False)
        # the inf weight of the first term gives way to the exact sum
        assert functional_value(p, y) == 8.699999999999999e+307
        assert report.functional_value == functional_value(p, y)

    def test_overflowing_span_is_quiet(self):
        # the affine start divides by the span ts[-1] - ts[0] = 2e308
        scale = TimeScale((Segment(-1e308, -1e308), Segment(0.0, 1.0),
                           Segment(1e308, 1e308)))
        sol = solve(classical(L=Lagrangian.from_text("v^2 + y^2"), scale=scale, h=0.25))
        assert (sol.iterations, sol.residual_max) == (0, 7.9999999999999993e-308)

    def test_overflowing_gradient(self):
        p = classical(L=Lagrangian.from_text("1.7e308*y + v^2"), h=2.0,
                      scale=TimeScale.interval(0.0, 8.0))
        with pytest.raises(SingularSystemError, match="^Newton step is not finite$"):
            solve(p)

    def test_overflowing_residual_is_inf(self):
        p = classical(L=Lagrangian.from_text("1.7e308*cos(v)"), h=0.25)
        y = GridFunction(p.discretized(), (0.0, np.pi / 8, 0.0, np.pi / 8, 0.0))
        assert residual_column(p, y, enforce_boundaries=False) == [
            None, None, np.inf, None, None]
