"""Unified variational problems on time scales.

The sign of the direction u selects the machinery: u > 0 drives the forward
(delta) calculus with sigma-shifted arguments, u < 0 the backward (nabla)
calculus with rho-shifted arguments; in both cases the integrand receives
the scaled arguments (t, u*shifted y, u*one-sided derivative). Dense
intervals are handled by refinement: the discretized grid is treated as a
purely discrete scale throughout, so the discrete stationarity conditions
are exact on discrete scales and first-order accurate on dense parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import GridFunction
from .errors import (
    BoundaryMismatchError,
    DegenerateScaleError,
    GridMismatchError,
    InfeasibleConstraintError,
    IterationLimitError,
    ParameterError,
    SingularSystemError,
)
from .lagrangian import Lagrangian, evaluate_array, raise_if_singular
from .timescale import SampleGrid, TimeScale

__all__ = [
    "Problem",
    "IsoProblem",
    "Solution",
    "VerifyReport",
    "functional_value",
    "el_residual",
    "residual_column",
    "solve",
    "solve_iso",
    "verify",
]


def _require_finite(*named: tuple[str, float]) -> None:
    for name, value in named:
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class Problem:
    """Boundary value problem data for one direction u."""

    scale: TimeScale
    u: float
    L: Lagrangian
    alpha: float
    beta: float
    h: float = 1e-3

    def __post_init__(self) -> None:
        _require_finite(("direction u", self.u), ("boundary value alpha", self.alpha),
                        ("boundary value beta", self.beta))
        if self.u == 0:
            raise ParameterError(
                "direction u must be nonzero: with u = 0 every admissible "
                "trajectory gives the same value, so there is nothing to solve")
        if not self.h > 0:
            raise ParameterError(f"step h must be positive, got {self.h!r}")
        if not self.scale.a < self.scale.b:
            raise ParameterError("variational problems need a scale with a < b")

    def discretized(self) -> SampleGrid:
        """The problem's one grid: built on first use, then kept on the instance."""
        return self._grid

    # per instance, not in a module-level cache, so a grid lives no longer
    # than its problem
    @cached_property
    def _grid(self) -> SampleGrid:
        return self.scale.discretize(self.h)


@dataclass(frozen=True, kw_only=True)
class IsoProblem(Problem):
    """Problem with one integral constraint K[y] = K in its own direction w."""

    G: Lagrangian
    w: float
    K: float

    def __post_init__(self) -> None:
        Problem.__post_init__(self)
        _require_finite(("constraint direction w", self.w), ("constraint value K", self.K))
        if self.w == 0:
            raise ParameterError("constraint direction w must be nonzero")

    def constraint_problem(self) -> Problem:
        return Problem(scale=self.scale, u=self.w, L=self.G,
                       alpha=self.alpha, beta=self.beta, h=self.h)


@dataclass(frozen=True)
class Solution:
    """Solver output; lam0/lam/normal_flag are set for isoperimetric problems."""

    y: GridFunction
    functional_value: float
    residual_max: float
    iterations: int
    lam: float | None = None
    lam0: float | None = None
    normal_flag: bool | None = None


@dataclass(frozen=True)
class VerifyReport:
    boundary_ok: bool
    residual_max: float
    functional_value: float
    passed: bool


# -- one trajectory under one integrand ------------------------------------------

class _Iterate:
    """A trajectory ys on the grid ts as the integrand lag sees it in the
    direction u: the packed arguments, and lag's value and first partials
    there, each evaluated at most once, so the gradient, functional and
    residual of one iterate share their evaluations. The solvers and the
    public checks read every figure of a trajectory from such a record.

    A checked read raises EvaluationError at the first non-finite value, as
    evaluate does; an unchecked one, as a line-search trial makes, returns
    the values as they are.
    """

    def __init__(self, lag: Lagrangian, u: float, ts: np.ndarray, ys: np.ndarray):
        self.lag, self.u = lag, u
        # per term: base points, scaled y slot, scaled v slot, step weights
        steps = ts[1:] - ts[:-1]
        with np.errstate(all="ignore"):  # a checked read reports what overflows
            slopes = (ys[1:] - ys[:-1]) / steps
            if u > 0:
                self.args = ts[:-1], u * ys[1:], u * slopes, steps
            else:
                self.args = ts[1:], u * ys[:-1], u * slopes, steps
        self._values: dict[str, np.ndarray] = {}  # by name: "L", "dL_dy", "dL_dv"
        self._checked: set[str] = set()

    def values(self, name: str, checked: bool = True) -> np.ndarray:
        tA, Y, V, _ = self.args
        vals = self._values.get(name)
        if vals is None:
            vals = self._values[name] = evaluate_array(getattr(self.lag, name), tA, Y, V)
        if checked and name not in self._checked:
            raise_if_singular(vals, tA, Y, V)
            self._checked.add(name)
        return vals

    def functional(self, checked: bool = True) -> float:
        # an overflow gives inf, as delta_integral reports it, and a sum of
        # opposite overflows nan, which no convergence test accepts
        with np.errstate(over="ignore", invalid="ignore"):
            return self.u * float(np.sum(self.values("L", checked) * self.args[3]))

    def grad(self, checked: bool = True) -> np.ndarray:
        """Gradient of the discretized functional with respect to interior
        values."""
        p2 = self.values("dL_dy", checked)
        p3 = self.values("dL_dv", checked)
        u, wts = self.u, self.args[3]
        if u > 0:
            return u * u * (wts[:-1] * p2[:-1] + p3[:-1] - p3[1:])
        return u * u * (wts[1:] * p2[1:] - p3[1:] + p3[:-1])

    def hess(self) -> tuple[np.ndarray, np.ndarray]:
        """Tridiagonal Hessian of the discretized functional as its two
        bands: the diagonal (m values) and the symmetric off-diagonal
        (m - 1 values)."""
        tA, Y, V, wts = self.args
        A, B, C = (raise_if_singular(evaluate_array(e, tA, Y, V), tA, Y, V)
                   for e in self.lag.second_partials)
        u3 = self.u ** 3
        cw = C / wts
        if self.u > 0:
            diag = u3 * (wts[:-1] * A[:-1] + 2.0 * B[:-1] + cw[:-1] + cw[1:])
            off = -u3 * (B[1:-1] + cw[1:-1])
        else:
            diag = u3 * (wts[1:] * A[1:] - 2.0 * B[1:] + cw[1:] + cw[:-1])
            off = u3 * (B[1:-1] - cw[1:-1])
        return diag, off

    def residual(self) -> np.ndarray:
        """Stationarity residual at every point where the shifted indices
        exist: grid indices 0..N-2 for u > 0, and 2..N for u < 0."""
        p2 = self.values("dL_dy")
        g = self.values("dL_dv")
        u, wts = self.u, self.args[3]
        if u > 0:
            return u * ((g[1:] - g[:-1]) / wts[:-1] - p2[:-1])
        return u * ((g[1:] - g[:-1]) / wts[1:] - p2[1:])


_SINGULAR = "Newton matrix is singular at the current iterate"


# numpy has no banded solver, and scipy.linalg.solve_banded is kept out on
# purpose: importing scipy.linalg costs 0.26-0.4 s and about 27 MB of RSS,
# far more than a whole small solve. A definite system with at least
# _CR_MIN_UNKNOWNS unknowns is solved by cyclic reduction, log2(m / 64)
# levels of numpy slicing and a scalar sweep over the rest; anything else
# by the pivoting loop, a Python loop over floats that is O(m) and stays
# the fallback for indefinite or singular systems.

# Cyclic reduction costs mostly a fixed overhead per level, so below about
# 100 to 150 unknowns the loop is faster (CHANGES.md has the timings). The
# threshold stays well above that crossover, which moves with the machine,
# so that problems of a few hundred points keep the loop's results.
_CR_MIN_UNKNOWNS = 512

# Cyclic reduction stops once at most this many unknowns are left and
# factors the rest by a scalar sweep: a level on fewer unknowns costs more
# in numpy call overhead than the sweep's Python loop. Tails of 15 to 127
# unknowns time within about 10% of each other, 63 the fastest
# (CHANGES.md has the timings).
_CR_TAIL = 63


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray,
                      rhs: tuple[np.ndarray, ...]) -> np.ndarray | None:
    """Solve T x = r for each r in rhs by odd-even cyclic reduction, with T
    the symmetric tridiagonal matrix with the given bands; one row of the
    result per right-hand side.

    Each level eliminates the even-numbered unknowns, which do not couple
    to each other, and leaves a tridiagonal system in the odd-numbered
    ones. Once at most _CR_TAIL unknowns are left, that system is factored
    L D L^T by a scalar sweep. Together this factors P T P^T = L D L^T
    without pivoting, which is stable for a definite T (Buzbee, Golub &
    Nielson 1970; Golub & Van Loan ch. 4), and by Sylvester's law T is
    definite iff every pivot has the sign of T[0, 0]. So it returns None,
    and leaves the system to the pivoting loop, when there are fewer than
    _CR_MIN_UNKNOWNS unknowns or when some pivot lacks that sign. T is
    padded with identity rows to the fewest rows that k levels can halve.
    """
    m = diag.size
    if m < _CR_MIN_UNKNOWNS or not diag[0] != 0.0:
        return None
    # k levels halve n = (t + 1) 2^k - 1 rows, whose count stays odd, down
    # to t <= _CR_TAIL; k and then t are the least that hold m rows
    k = (-(-(m + 1) // (_CR_TAIL + 1)) - 1).bit_length()
    n = (-(-(m + 1) >> k) << k) - 1
    # row i reads e[i] x[i - 1] + d[i] x[i] + e[i + 1] x[i + 1], with
    # e[0] = e[n] = 0
    d = np.ones(n)
    e = np.zeros(n + 1)
    out = np.zeros((len(rhs), n))
    d[:m], e[1:m], out[:, :m] = diag, off, rhs
    if diag[0] < 0.0:  # reduce -T when T is negative definite
        d[:m] *= -1.0
        e[1:m] *= -1.0
        out *= -1.0
    # one right-hand side runs on 1-D slices, which are cheaper; the
    # solution overwrites the right-hand side, level by level
    x = r = out[0] if len(rhs) == 1 else out
    levels = []
    with np.errstate(all="ignore"):  # a non-finite result is the caller's check
        for _ in range(k):
            piv = d[0::2]
            left, right = e[1:-1:2], e[2::2]  # odd rows' even neighbours
            a, c = left / piv[:-1], right / piv[1:]
            levels.append((piv, a, c, r[..., 0::2]))
            d = d[1::2] - a * left - c * right
            r = r[..., 1::2] - a * r[..., :-1:2] - c * r[..., 2::2]
            e = -(e[0::2] * e[1::2]) / piv
        if levels and not np.concatenate([lv[0] for lv in levels]).min() > 0.0:
            return None
        top = (1 << k) - 1  # level j's unknowns are x[2^j - 1::2^j]
        tail = _ldl_sweep(d.tolist(), e.tolist(), r.reshape(-1, d.size).tolist())
        if tail is None:
            return None
        x[..., top::top + 1] = tail[0] if len(rhs) == 1 else tail
        for j in range(k - 1, -1, -1):
            piv, a, c, r_even = levels[j]
            here = x[..., (1 << j) - 1::1 << j]
            x_even, x_odd = here[..., 0::2], here[..., 1::2]
            np.divide(r_even, piv, out=x_even)
            x_even[..., :-1] -= a * x_odd
            x_even[..., 1:] -= c * x_odd
    return out[:, :m]


def _ldl_sweep(d: list[float], e: list[float],
               rhs: list[list[float]]) -> list[list[float]] | None:
    """Solve the tridiagonal system left after cyclic reduction, with row i
    reading e[i] x[i - 1] + d[i] x[i] + e[i + 1] x[i + 1], by factoring it
    L D L^T; None when a pivot of D is not positive."""
    piv, low = [], []  # D, and the subdiagonal of L (low[0] = 0)
    p = 1.0
    for di, ei in zip(d, e):
        f = ei / p
        p = di - f * ei
        if not p > 0.0:
            return None
        piv.append(p)
        low.append(f)
    out = []
    for b in rhs:
        z, zs = 0.0, []
        for bi, f in zip(b, low):
            z = bi - f * z
            zs.append(z)
        x, xs = 0.0, []
        for zi, p, f in zip(reversed(zs), reversed(piv), reversed(low[1:] + [0.0])):
            x = zi / p - f * x
            xs.append(x)
        out.append(xs[::-1])
    return out


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                       *rhs: np.ndarray) -> list[np.ndarray]:
    """Solve T x = r for each r in rhs, where T is the symmetric tridiagonal
    matrix with the given bands: by cyclic reduction when it applies, else
    by the pivoting loop."""
    x = _cyclic_reduction(diag, off, rhs)
    return list(x) if x is not None else _solve_pivoting(diag, off, *rhs)


def _solve_pivoting(diag: np.ndarray, off: np.ndarray,
                    *rhs: np.ndarray) -> list[np.ndarray]:
    """Solve T x = r for each r in rhs by Gaussian elimination with partial
    pivoting in the row order of LAPACK gtsv: a row interchange fills in a
    second superdiagonal. A zero pivot raises SingularSystemError.
    """
    d = diag.tolist()
    dl = off.tolist()  # the subdiagonal; read only
    du = dl + [0.0]  # the superdiagonal, padded so row n - 1 needs no case
    n = len(d)
    du2 = [0.0] * n
    swapped = [False] * n
    fact = [0.0] * n
    for i in range(n - 1):
        if abs(dl[i]) > abs(d[i]):
            swapped[i] = True
            f = d[i] / dl[i]
            d[i] = dl[i]
            below = d[i + 1]
            d[i + 1] = du[i] - f * below
            du2[i] = du[i + 1]
            du[i + 1] = -f * du2[i]
            du[i] = below
        else:
            if d[i] == 0.0:
                raise SingularSystemError(_SINGULAR)
            f = dl[i] / d[i]
            d[i + 1] -= f * du[i]
        fact[i] = f
    if d[n - 1] == 0.0:
        raise SingularSystemError(_SINGULAR)
    out = []
    for r in rhs:
        b = r.tolist() + [0.0, 0.0]
        for i in range(n - 1):
            if swapped[i]:
                b[i], b[i + 1] = b[i + 1], b[i] - fact[i] * b[i + 1]
            else:
                b[i + 1] -= fact[i] * b[i]
        for i in range(n - 1, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
        out.append(np.array(b[:n]))
    return out


def _interior(u: float, values: np.ndarray) -> np.ndarray:
    """The part of a residual on the doubly truncated interior, grid indices
    2..N-3."""
    # values are aligned to grid index 0 for u > 0 and to grid index 2 for u < 0
    return values[2:] if u > 0 else values[:-2]


def _interior_residual(problem: Problem, at: _Iterate, ts: np.ndarray,
                       ys: np.ndarray, lam0: float | None,
                       lam: float | None) -> np.ndarray:
    """Residual on the doubly truncated interior of the trajectory ys, with
    at its record under problem.L; with the multiplier pair, the combined
    residual lam0 * (L side) - lam * (constraint side)."""
    if (lam0 is not None or lam is not None) and not isinstance(problem, IsoProblem):
        raise ParameterError("multipliers are only meaningful for IsoProblem")
    if (lam0 is None) != (lam is None):
        raise ParameterError(
            "give both multipliers lam0 and lam, or neither: "
            f"got lam0={lam0!r}, lam={lam!r}")
    res = _interior(problem.u, at.residual())
    if lam is None:
        return res
    res_g = _interior(problem.w, _Iterate(problem.G, problem.w, ts, ys).residual())
    return lam0 * res - lam * res_g


# -- structural checks ------------------------------------------------------------

def _require_grid(problem: Problem, y: GridFunction) -> SampleGrid:
    grid = problem.discretized()
    if y.grid is not grid and not np.array_equal(y.grid.points, grid.points):
        n, n_grid = len(y.grid.points), len(grid.points)
        raise GridMismatchError(
            f"trajectory has {n} points but the discretized grid has "
            f"{n_grid}; its points must equal the grid points", n, n_grid)
    return grid


def _ends(y: GridFunction) -> tuple[float, float]:
    return float(y.values[0]), float(y.values[-1])


def _require_boundaries(problem: Problem, y: GridFunction) -> None:
    if _ends(y) != (problem.alpha, problem.beta):
        raise BoundaryMismatchError(
            f"boundary values {_ends(y)!r} do not match "
            f"the prescribed ({problem.alpha!r}, {problem.beta!r})")


# -- public operations ---------------------------------------------------------------

def functional_value(problem: Problem, y: GridFunction) -> float:
    """Value of the direction-scaled functional along a trajectory."""
    _require_grid(problem, y)
    _require_boundaries(problem, y)
    return _Iterate(problem.L, problem.u, y.grid.points, y.values).functional()


def el_residual(problem: Problem, y: GridFunction) -> GridFunction:
    """Stationarity residual along a trajectory, on its computable subgrid.

    For u > 0 the residual lives on all grid points except the last two,
    for u < 0 on all except the first two. Zeros of the residual are the
    necessary optimality condition.
    """
    grid = _require_grid(problem, y)
    _require_boundaries(problem, y)
    n = len(grid.points)
    if n < 3:
        raise DegenerateScaleError("the residual needs at least three grid points")
    res = _Iterate(problem.L, problem.u, grid.points, y.values).residual()
    if problem.u > 0:
        sub = SampleGrid(grid.points[:-2], grid.dense_flags[:-2])
    else:
        sub = SampleGrid(grid.points[2:], grid.dense_flags[2:])
    return GridFunction(sub, res)


def residual_column(problem: Problem, y: GridFunction,
                    lam0: float | None = None, lam: float | None = None,
                    enforce_boundaries: bool = True) -> list[float | None]:
    """Residual aligned to the full grid: values on the doubly truncated
    interior, None elsewhere. With the multiplier pair the column is the
    combined residual lam0 * (L side) - lam * (constraint side); a lone
    multiplier raises ParameterError."""
    grid = _require_grid(problem, y)
    if enforce_boundaries:
        _require_boundaries(problem, y)
    n, ts, ys = len(grid.points), grid.points, y.values
    # the record is dropped before the list is built
    res = _interior_residual(problem, _Iterate(problem.L, problem.u, ts, ys),
                             ts, ys, lam0, lam)
    col: list[float | None] = [None] * n
    col[2:n - 2] = res.tolist()
    return col


def _interior_max(res: np.ndarray) -> float:
    if not res.size:
        raise DegenerateScaleError(
            "doubly truncated interior is empty after discretization")
    return float(np.max(np.abs(res)))


def verify(problem: Problem, y: GridFunction, tol: float,
           lam0: float | None = None, lam: float | None = None) -> VerifyReport:
    """Check boundary conditions and the stationarity residual against tol.

    Without multipliers the residual is the integrand's own, also for an
    IsoProblem, where a correct solution then reports passed = False. With
    the pair of a Solution, e.g. verify(iso, sol.y, tol, sol.lam0, sol.lam),
    it is the combined residual lam0 * (L side) - lam * (constraint side).
    Multipliers on a plain Problem, and a lone multiplier, raise
    ParameterError.
    """
    grid = _require_grid(problem, y)
    boundary_ok = _ends(y) == (problem.alpha, problem.beta)
    ts, ys = grid.points, y.values
    at = _Iterate(problem.L, problem.u, ts, ys)
    residual_max = _interior_max(_interior_residual(problem, at, ts, ys, lam0, lam))
    return VerifyReport(
        boundary_ok=boundary_ok,
        residual_max=residual_max,
        functional_value=at.functional(),
        passed=boundary_ok and residual_max <= tol,
    )


# -- solvers ----------------------------------------------------------------------------

def _affine_start(problem: Problem, ts: np.ndarray) -> np.ndarray:
    span = ts[-1] - ts[0]
    with np.errstate(all="ignore"):  # a checked read reports what overflows
        ys = problem.alpha + (problem.beta - problem.alpha) * (ts - ts[0]) / span
    ys[0] = problem.alpha
    ys[-1] = problem.beta
    return ys


def _prepared_grid(problem: Problem) -> tuple[SampleGrid, np.ndarray]:
    grid = problem.discretized()
    if len(grid.points) < 5:
        raise DegenerateScaleError(
            "doubly truncated interior is empty after discretization; "
            "use a finer step or a larger scale")
    return grid, grid.points


def _newton(problem: Problem, tol: float, max_iter: int, system, step, norm: str,
            stalled=None):
    """Damped Newton iteration on the state (ys, lam) from the affine start
    and lam = 0: system(ts, z, lam, checked) gives an iterate's record and
    the system's value phi, step(record, phi, lam) the step (dy, dlam), and
    stalled(record, phi) may raise in place of a stalled line search.
    Returns (grid, ys, lam, record, iterations)."""
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol!r}")
    if max_iter < 0:
        raise ParameterError(f"max_iter must be nonnegative, got {max_iter!r}")
    grid, ts = _prepared_grid(problem)
    ys, lam = _affine_start(problem, ts), 0.0

    # the line search's trial at alpha along the current iterate's step
    def trial(alpha: float):
        z = _moved(ys, dy, alpha)
        lam_try = lam + alpha * dlam
        record_z, phi_z = system(ts, z, lam_try, False)
        return (z, lam_try, record_z), phi_z

    record, phi = system(ts, ys, lam, True)
    iterations = 0
    while not float(np.max(np.abs(phi))) <= tol:  # a nan norm does not converge
        if iterations >= max_iter:
            raise IterationLimitError(
                f"no convergence after {max_iter} Newton steps "
                f"({norm} norm {float(np.max(np.abs(phi))):.3e})",
                last=tuple(ys.tolist()))
        dy, dlam = step(record, phi, lam)
        try:
            (ys, lam, record), phi = _backtrack(trial, phi, tol, ys)
        except IterationLimitError:
            if stalled is not None:
                stalled(record, phi)
            raise
        iterations += 1
    return grid, ys, lam, record, iterations


def solve(problem: Problem, tol: float = 1e-10, max_iter: int = 100) -> Solution:
    """Newton iteration with backtracking on the gradient of the discretized
    functional, starting from the affine interpolant between the boundary
    values. Boundary values are eliminated variables and are met exactly.

    tol bounds the gradient, not the reported residual_max: the gradient at
    an interior point is about the residual times the step, so residual_max
    can exceed tol when h is small.
    """
    lag, u = problem.L, problem.u

    def system(ts: np.ndarray, z: np.ndarray, lam: float, checked: bool):
        at = _Iterate(lag, u, ts, z)
        return at, at.grad(checked)

    def step(at: _Iterate, g: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
        [dy] = _solve_tridiagonal(*at.hess(), -g)
        if not np.all(np.isfinite(dy)):
            raise SingularSystemError("Newton step is not finite")
        return dy, 0.0

    grid, ys, _, at, iterations = _newton(problem, tol, max_iter, system, step,
                                          "stationarity")
    res = _interior(u, at.residual())
    return Solution(
        y=GridFunction(grid, ys),
        functional_value=at.functional(),
        residual_max=_interior_max(res),
        iterations=iterations,
    )


def _moved(ys: np.ndarray, step: np.ndarray, alpha: float) -> np.ndarray:
    """ys with alpha * step added to its interior values."""
    trial = ys.copy()
    trial[1:-1] += alpha * step
    return trial


def _backtrack(trial, phi: np.ndarray, tol: float, ys: np.ndarray):
    """Halve alpha from 1 until the squared norm of the system decreases.

    trial(alpha) returns the trial point and the system's value there; the
    first accepted pair is returned. A stalled search raises
    IterationLimitError carrying ys, the iterate it started from.
    """
    phi0 = 0.5 * float(phi @ phi)
    alpha = 1.0
    while alpha >= 1e-12:
        # a trial is unchecked and may overflow; a non-finite one is rejected
        with np.errstate(all="ignore"):
            point, phit = trial(alpha)
            phi1 = 0.5 * float(phit @ phit)
        if np.all(np.isfinite(phit)):
            if phi1 <= phi0 * (1.0 - 1e-4 * alpha) or float(np.max(np.abs(phit))) <= tol:
                return point, phit
        alpha *= 0.5
    raise IterationLimitError(
        "line search stalled before reaching the tolerance",
        last=tuple(ys.tolist()))


def _bordered_step(diag: np.ndarray, off: np.ndarray, gg: np.ndarray,
                   phi: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step (dy, dlam) of the bordered system
    [[H, -gg], [gg^T, 0]] (dy, dlam) = -phi, with H tridiagonal.

    When cyclic reduction solves H a = -phi_y and H b = gg (a definite H),
    the step is their Schur complement combination: dlam from
    gg^T (a + dlam b) = -phi_K, and dy = a + dlam b; for gg = 0 the
    multiplier stays put. Otherwise the bordered system is eliminated as a
    whole, which also works for a singular H.

    When H = 0 the bordered matrix has rank 2, and the step is its
    minimum-norm least-squares solution.
    """
    m = diag.size
    if not (diag.any() or off.any()):
        gn = float(gg @ gg)
        if gn == 0.0:
            raise SingularSystemError(_SINGULAR)
        return -float(phi[m]) / gn * gg, float(gg @ phi[:m]) / gn
    ab = _cyclic_reduction(diag, off, (-phi[:m], gg))
    if ab is None:
        step, dlam = _bordered_elimination(diag, off, gg, phi)
    else:
        a, b = ab
        gb = float(gg @ b)
        dlam = (-float(phi[m]) - float(gg @ a)) / gb if gb != 0.0 else 0.0
        step = a + dlam * b
    if not (np.all(np.isfinite(step)) and math.isfinite(dlam)):
        raise SingularSystemError("Newton step is not finite")
    return step, dlam


def _bordered_elimination(diag: np.ndarray, off: np.ndarray, gg: np.ndarray,
                          phi: np.ndarray) -> tuple[np.ndarray, float]:
    """The bordered step by elimination of the (m + 1)-system as a whole,
    so H itself may be singular, as it is for an integrand linear in (y, v)
    at lam = 0. H must not be zero.

    Gaussian elimination with partial pivoting runs over the dy columns:
    the candidates for column k are the two rows left over from column
    k - 1 and row k + 1 of H, and the border row gg^T starts as a leftover.
    A working row is kept as its entries in columns k, k + 1 and k + 2, a
    multiple c of gg in the columns past them, its dlam entry and its
    right-hand side; only the border row and the rows combined with it have
    c != 0. So each column costs O(1), and the dense border costs a running
    sum of gg_j dy_j in the back substitution.

    When the last pivot vanishes, as it does for gg = 0 (a constant or
    abnormal constraint), the multiplier stays put and dy solves
    H dy = -phi_y. A zero pivot in a dy column raises SingularSystemError.
    """
    m = diag.size
    d = diag.tolist()
    o = off.tolist() + [0.0]
    g = gg.tolist() + [0.0, 0.0, 0.0]
    r = (-phi).tolist()
    # [column k, column k + 1, column k + 2, c, dlam column, right-hand side]
    rows = [[d[0], o[0], 0.0, 0.0, -g[0], r[0]],
            [g[0], g[1], g[2], 1.0, 0.0, r[m]]]
    pivots = []
    for k in range(m):
        if k + 1 < m:
            rows.append([o[k], d[k + 1], o[k + 1], 0.0, -g[k + 1], r[k + 1]])
        p = rows.pop(max(range(len(rows)), key=lambda i: abs(rows[i][0])))
        if p[0] == 0.0:
            raise SingularSystemError(_SINGULAR)
        pivots.append(p)
        nxt = g[k + 3]
        for row in rows:
            f = row[0] / p[0]
            c = row[3] - f * p[3]
            row[:] = (row[1] - f * p[1], row[2] - f * p[2], c * nxt, c,
                      row[4] - f * p[4], row[5] - f * p[5])
    [last] = rows
    dlam = last[5] / last[4] if last[4] != 0.0 else 0.0
    x = [0.0] * (m + 2)
    tail = 0.0  # sum of g[j] * x[j] over j >= k + 3
    for k in range(m - 1, -1, -1):
        e0, e1, e2, c, el, rhs = pivots[k]
        x[k] = (rhs - e1 * x[k + 1] - e2 * x[k + 2] - c * tail - el * dlam) / e0
        tail += g[k + 2] * x[k + 2]
    return np.array(x[:m]), dlam


def solve_iso(iso: IsoProblem, tol: float = 1e-10, max_iter: int = 100) -> Solution:
    """Newton iteration on the augmented stationarity system.

    Unknowns are the interior values and one multiplier; the system couples
    the combined stationarity condition with the constraint K[y] = K. The
    reported multiplier pair follows the convention
    lam0 * (L-side residual) = lam * (constraint-side residual):
    a normal extremizer gets lam0 = 1, an abnormal one (0, 1).
    """
    u, w = iso.u, iso.w

    # both integrands at z, the constraint's gradient there, and the
    # system's value
    def system(ts: np.ndarray, z: np.ndarray, lam: float, checked: bool):
        at_l, at_g = _Iterate(iso.L, u, ts, z), _Iterate(iso.G, w, ts, z)
        gl, gg = at_l.grad(checked), at_g.grad(checked)
        cons = at_g.functional(checked) - iso.K
        return (at_l, at_g, gg), np.concatenate([gl - lam * gg, [cons]])

    def step(record, phi: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
        at_l, at_g, gg = record
        for name in ("dL_dy", "dL_dv"):  # a trial computed gg unchecked
            at_g.values(name)
        diag_l, off_l = at_l.hess()
        diag_g, off_g = at_g.hess()
        return _bordered_step(diag_l - lam * diag_g, off_l - lam * off_g, gg, phi)

    def stalled(record, phi: np.ndarray) -> None:
        cons_gap = abs(float(phi[-1]))
        if cons_gap > tol and float(np.max(np.abs(record[2]))) <= max(tol, 1e-12):
            raise InfeasibleConstraintError(
                f"constraint value is insensitive to the trajectory but "
                f"misses its target by {cons_gap:.3e}") from None

    grid, ys, lam_g, (at_l, at_g, _), iterations = _newton(
        iso, tol, max_iter, system, step, "system", stalled)
    res_g = _interior(w, at_g.residual())
    if _interior_max(res_g) <= tol:
        lam0, lam_out, normal = 0.0, 1.0, False
    else:
        # the augmented system solves in gradient scaling; convert to the
        # residual convention, which differs by the factor w/u
        lam0, lam_out, normal = 1.0, lam_g * w / u, True
    res = lam0 * _interior(u, at_l.residual()) - lam_out * res_g
    return Solution(
        y=GridFunction(grid, ys),
        functional_value=at_l.functional(),
        residual_max=_interior_max(res),
        iterations=iterations,
        lam=lam_out,
        lam0=lam0,
        normal_flag=normal,
    )
