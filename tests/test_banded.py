import ast
import random
from pathlib import Path

import numpy as np
import pytest

import tsvar
from helpers import dense_tridiagonal, random_increasing
from tsvar import IsoProblem, Lagrangian, TimeScale, solve_iso
from tsvar.errors import IterationLimitError, SingularSystemError

UNIT = TimeScale.interval(0.0, 1.0)


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
        from tsvar.banded import solve_tridiagonal

        rng = random.Random(29)
        first_row_swaps = 0
        for lag in (self.SMOOTH, self.INDEFINITE):
            for sign in (1.0, -1.0):
                for _ in range(20):
                    u = sign * rng.uniform(0.3, 2.0)
                    _, _, diag, off, g = self.random_case(rng, lag, u)
                    got = solve_tridiagonal(diag, off, -g)
                    want = np.linalg.solve(dense_tridiagonal(diag, off), -g)
                    assert self.close(got, want), (lag, u)
                    first_row_swaps += abs(diag[0]) < abs(off[0])
        # the indefinite integrand makes the elimination interchange rows
        assert first_row_swaps > 0

    def test_forced_row_interchange(self):
        from tsvar.banded import solve_tridiagonal

        diag = np.array([0.0, 1.0, -2.0, 0.5, 3.0])
        off = np.array([1.0, 4.0, 1e-3, -2.0])
        rhs = np.array([1.0, -1.0, 2.0, 0.0, 5.0])
        got = solve_tridiagonal(diag, off, rhs)
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
        from tsvar.banded import bordered_step
        from tsvar.variational import _Iterate

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
                    step, dlam = bordered_step(diag, off, gg, phi)
                    want = np.linalg.solve(self.bordered_dense(diag, off, gg), -phi)
                    assert self.close(np.append(step, dlam), want), (lag, u, w)

    def test_singular_hessian_regular_bordered_matches_dense(self):
        # H singular, [[H, -g], [g^T, 0]] not: with row and column k of H
        # zero, only the border row can take the pivot of column k
        from tsvar.banded import bordered_step

        rng = np.random.default_rng(41)
        for m in range(2, 9):
            for k in range(m):
                diag, off = rng.normal(size=m), rng.normal(size=m - 1)
                diag[k] = 0.0  # row and column k of H vanish
                off[max(k - 1, 0):k + 1] = 0.0
                gg, phi = rng.normal(size=m), rng.normal(size=m + 1)
                assert np.linalg.matrix_rank(dense_tridiagonal(diag, off)) == m - 1
                step, dlam = bordered_step(diag, off, gg, phi)
                want = np.linalg.solve(self.bordered_dense(diag, off, gg), -phi)
                assert self.close(np.append(step, dlam), want), (m, k)
        # two equal rows: H = [[a, a], [a, a]] inside a larger block
        diag = np.array([2.0, 3.0, 3.0, -1.0])
        off = np.array([0.0, 3.0, 0.0])
        gg, phi = np.array([0.5, -1.0, 2.0, 0.25]), np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        step, dlam = bordered_step(diag, off, gg, phi)
        want = np.linalg.solve(self.bordered_dense(diag, off, gg), -phi)
        assert self.close(np.append(step, dlam), want)

    def test_vanishing_constraint_gradient_is_least_squares_step(self):
        from tsvar.banded import bordered_step

        rng = random.Random(37)
        _, _, diag, off, g = self.random_case(rng, self.SMOOTH, 1.1)
        m = diag.size
        phi = np.append(g, 0.25)
        step, dlam = bordered_step(diag, off, np.zeros(m), phi)
        J = self.bordered_dense(diag, off, np.zeros(m))
        want, *_ = np.linalg.lstsq(J, -phi, rcond=None)
        assert dlam == 0.0
        assert self.close(np.append(step, dlam), want)

    def test_zero_hessian_is_least_squares_step(self):
        # H = 0 leaves the bordered matrix with rank 2
        from tsvar.banded import bordered_step

        gg = np.array([1.0, -2.0, 0.5, 3.0])
        phi = np.array([0.5, 1.0, -1.0, 2.0, 0.75])
        step, dlam = bordered_step(np.zeros(4), np.zeros(3), gg, phi)
        J = self.bordered_dense(np.zeros(4), np.zeros(3), gg)
        want, *_ = np.linalg.lstsq(J, -phi, rcond=None)
        assert self.close(np.append(step, dlam), want)

    def test_zero_hessian_and_gradient_is_singular(self):
        from tsvar.banded import bordered_step, solve_tridiagonal

        with pytest.raises(SingularSystemError):
            solve_tridiagonal(np.zeros(4), np.zeros(3), np.ones(4))
        with pytest.raises(SingularSystemError):
            bordered_step(np.zeros(4), np.zeros(3), np.zeros(4), np.ones(5))

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
        from tsvar.banded import _CR_MIN_UNKNOWNS

        self.check_definite(_CR_MIN_UNKNOWNS + offset, u)

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("m", [1023, 1024, 1025, 3001])
    def test_around_powers_of_two(self, m, u):
        self.check_definite(m, u)

    def check_definite(self, m, u):
        from tsvar.banded import (
            _CR_MIN_UNKNOWNS,
            _factor,
            _solve_factored,
            _solve_pivoting,
            solve_tridiagonal,
        )

        diag, off, r1, r2 = self.case(self.CONVEX, u, m, np.random.default_rng(m))
        # u^3 makes the Hessian of a convex integrand negative definite for u < 0
        assert np.all(np.sign(diag) == np.sign(u))
        got = [solve_tridiagonal(diag, off, r) for r in (r1, r2)]
        loop = [_solve_pivoting(diag, off, r) for r in (r1, r2)]
        assert all(x.shape == (m,) and x.dtype == np.float64 for x in got)
        factor = _factor(diag, off)
        if m < _CR_MIN_UNKNOWNS:
            assert factor is None
            assert all(np.array_equal(x, y) for x, y in zip(got, loop))
            return
        # one factor serves both right-hand sides
        assert factor is not None
        reduced = [_solve_factored(factor, r) for r in (r1, r2)]
        assert all(np.array_equal(x, y) for x, y in zip(got, reduced))
        dense = dense_tridiagonal(diag, off)
        for x, want_loop, r in zip(got, loop, (r1, r2)):
            assert self.close(x, want_loop, m)
            assert self.close(x, np.linalg.solve(dense, r), m)

    def test_indefinite_falls_back_to_loop(self):
        # y^2 - v^2 on [0, 10] is past its first conjugate point (at pi), so
        # the Hessian has eigenvalues of both signs
        from tsvar.banded import (
            _CR_MIN_UNKNOWNS,
            _factor,
            _solve_pivoting,
            solve_tridiagonal,
        )

        m = _CR_MIN_UNKNOWNS + 87
        diag, off, r1, _ = self.case(TestBandedNewtonStep.INDEFINITE, 1.0, m,
                                     np.random.default_rng(3),
                                     scale=TimeScale.interval(0.0, 10.0))
        dense = dense_tridiagonal(diag, off)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() < 0.0 < eig.max()
        assert _factor(diag, off) is None
        got = solve_tridiagonal(diag, off, r1)
        loop = _solve_pivoting(diag, off, r1)
        assert np.array_equal(got, loop)
        assert self.close(got, np.linalg.solve(dense, r1), m)

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, 64])
    @pytest.mark.parametrize("k", [1, 2])
    def test_tail_sweep_matches_dense(self, monkeypatch, offset, u, k):
        # with the threshold lowered, _CR_TAIL + offset unknowns go straight
        # to the sweep (offset <= 0) or through one or two levels first; k
        # right-hand sides are solved with one factor, and solving leaves
        # the factor as it was
        from tsvar import banded
        from tsvar.banded import _CR_TAIL, _factor, _solve_factored

        monkeypatch.setattr(banded, "_CR_MIN_UNKNOWNS", 1)
        m = _CR_TAIL + offset
        diag, off, r1, r2 = self.case(self.CONVEX, u, m, np.random.default_rng(m))
        rhs = (r1, r2)[:k]
        factor = _factor(diag, off)
        assert factor is not None
        got = [_solve_factored(factor, r) for r in rhs]
        assert all(x.shape == (m,) for x in got)
        assert np.array_equal(_solve_factored(factor, r1), got[0])
        dense = dense_tridiagonal(diag, off)
        for x, r in zip(got, rhs):
            assert self.close(x, np.linalg.solve(dense, r), m)

    @staticmethod
    def tail_row(n):
        """A row of an n-row padded system that cyclic reduction keeps for
        the sweep: its index is 2^levels * j - 1."""
        from tsvar.banded import _CR_TAIL

        return (n + 1) // (_CR_TAIL + 1) * 40 - 1

    @pytest.mark.parametrize("u", [1.3, -0.7])
    def test_bad_pivot_only_in_tail_falls_back(self, u):
        # a row that survives every level keeps its own diagonal through the
        # reduction, so lowering that one entry leaves every level's pivots
        # as they were and turns only a pivot of the sweep
        from tsvar.banded import _factor, solve_tridiagonal

        m = 1023
        diag, off, r1, r2 = self.case(self.CONVEX, u, m, np.random.default_rng(5))
        assert _factor(diag, off) is not None
        diag = diag.copy()
        diag[self.tail_row(m)] -= 10.0 * diag[self.tail_row(m)]
        dense = dense_tridiagonal(diag, off)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() < 0.0 < eig.max()
        assert _factor(diag, off) is None
        for r in (r1, r2):
            x = solve_tridiagonal(diag, off, r)
            assert self.close(x, np.linalg.solve(dense, r), m)

    def test_bad_first_level_pivot_falls_back(self):
        from tsvar.banded import _factor, solve_tridiagonal

        m = 1023
        diag, off, r1, _ = self.case(self.CONVEX, 1.0, m, np.random.default_rng(6))
        diag = diag.copy()
        diag[2] = -diag[2]  # an even row: a pivot of the first level
        assert _factor(diag, off) is None
        x = solve_tridiagonal(diag, off, r1)
        assert self.close(x, np.linalg.solve(dense_tridiagonal(diag, off), r1), m)

    def test_zero_matrix_above_threshold_is_singular(self):
        from tsvar.banded import _CR_MIN_UNKNOWNS, solve_tridiagonal

        m = _CR_MIN_UNKNOWNS + 1
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(np.zeros(m), np.zeros(m - 1), np.ones(m))

    @pytest.mark.parametrize("u", [1.3, -0.7])
    @pytest.mark.parametrize("zero_gradient", [False, True])
    def test_schur_step_matches_elimination(self, monkeypatch, u, zero_gradient):
        from tsvar import banded
        from tsvar.banded import _CR_MIN_UNKNOWNS, _bordered_elimination

        m = _CR_MIN_UNKNOWNS + 489
        rng = np.random.default_rng(17)
        diag, off, r1, r2 = self.case(self.CONVEX, u, m, rng)
        gg = np.zeros(m) if zero_gradient else r2
        phi = np.append(-r1, rng.uniform(-1.0, 1.0))

        def not_called(*args):
            raise AssertionError("a definite Hessian took the elimination")

        monkeypatch.setattr(banded, "_bordered_elimination", not_called)
        step, dlam = banded.bordered_step(diag, off, gg, phi)
        want_step, want_dlam = _bordered_elimination(diag, off, gg, phi)
        if zero_gradient:
            assert dlam == want_dlam == 0.0
        assert self.close(np.append(step, dlam), np.append(want_step, want_dlam), m)
        dense = TestBandedNewtonStep.bordered_dense(diag, off, gg)
        if not zero_gradient:
            assert self.close(np.append(step, dlam), np.linalg.solve(dense, -phi), m)


class TestErrorBranches:
    """Contract checks that no solve of a well-formed problem reaches."""

    def test_singular_pivoting_system(self):
        from tsvar.banded import _solve_pivoting

        with pytest.raises(SingularSystemError):
            _solve_pivoting(np.array([1.0, 1.0]), np.array([1.0]), np.ones(2))

    def test_singular_bordered_elimination(self):
        from tsvar.banded import _bordered_elimination

        with pytest.raises(SingularSystemError):
            _bordered_elimination(np.array([0.0, 1.0]), np.array([0.0]),
                                  np.array([0.0, 1.0]), np.ones(3))


class TestPivotingLoopIsDgtsv:
    """The pivoting loop against LAPACK dgtsv, bit for bit: both eliminate
    one right-hand side in one pass, with the same operations in the same
    order. scipy is a test oracle here only; the package never imports it."""

    KINDS = ("definite", "negative_definite", "indefinite", "swap_heavy",
             "zero_off_diagonal", "small_integers")

    @staticmethod
    def system(rng, kind):
        n = int(rng.integers(2, 300))
        scale = 10.0 ** rng.uniform(-3, 3)
        off = rng.uniform(-1.0, 1.0, n - 1) * scale
        diag = rng.uniform(-1.0, 1.0, n) * scale
        if kind in ("definite", "negative_definite"):
            sign = 1.0 if kind == "definite" else -1.0
            diag = sign * (np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
                           + rng.uniform(0.01, 1.0, n) * scale)
        elif kind == "swap_heavy":
            diag *= 1e-3
        elif kind == "zero_off_diagonal":
            off[rng.random(n - 1) < 0.2] = 0.0
        elif kind == "small_integers":  # exact cancellations make some singular
            n = int(rng.integers(2, 12))
            diag = rng.integers(-2, 3, n).astype(float)
            off = rng.integers(-2, 3, n - 1).astype(float)
        rhs = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3)
        rhs[rng.random(n) < 0.1] = 0.0
        return diag, off, rhs

    @staticmethod
    def check(diag, off, rhs):
        """Assert that _solve_pivoting raises SingularSystemError exactly
        when dgtsv reports a zero pivot (info > 0), and otherwise returns
        dgtsv's solution bit for bit. Returns whether it was singular."""
        lapack = pytest.importorskip("scipy.linalg").lapack
        from tsvar.banded import _solve_pivoting

        *_, want, info = lapack.dgtsv(off, diag, off, rhs)
        assert info >= 0
        if info > 0:
            with pytest.raises(SingularSystemError):
                _solve_pivoting(diag, off, rhs)
            return True
        got = _solve_pivoting(diag, off, rhs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return False

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_systems(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        singular = [self.check(*self.system(rng, kind)) for _ in range(60)]
        # only the integer systems reach an exactly zero pivot, and they
        # reach both outcomes
        assert any(singular) == (kind == "small_integers")
        assert not all(singular)

    @pytest.mark.parametrize("diag, off, rhs, singular", [
        ([1.0, 1.0], [1.0], [1.0, 1.0], True),
        ([0.0, 1.0, 2.0], [0.0, 1.0], [1.0, 2.0, 3.0], True),  # zero column
        ([0.0, 1.0, 2.0], [3.0, 1.0], [0.0, 0.0, 0.0], False),  # swap, zero rhs
        ([1.0, -1.0, 1.0, -1.0], [2.0, 2.0, 2.0], [1.0, 0.0, -0.0, 1.0], False),
    ])
    def test_chosen_systems(self, diag, off, rhs, singular):
        assert self.check(*(np.array(a) for a in (diag, off, rhs))) == singular


class TestModuleBoundary:
    """The linear algebra reads no problem, and the solvers reach it through
    its two public functions only."""

    @staticmethod
    def imports(name):
        tree = ast.parse((Path(tsvar.__file__).parent / name).read_text())
        return [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]

    def test_imports(self):
        from tsvar import banded

        assert banded.__all__ == ["solve_tridiagonal", "bordered_step"]
        modules = set()
        for node in self.imports("banded.py"):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            else:
                modules.add("." * node.level + (node.module or ""))
        assert modules == {"__future__", "numpy", ".errors"}
        used = [sorted(alias.name for alias in node.names)
                for node in self.imports("variational.py")
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "banded"]
        assert used == [["bordered_step", "solve_tridiagonal"]]
