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

import numpy as np

from .calculus import GridFunction
from .errors import (
    BoundaryMismatchError,
    DegenerateScaleError,
    EvaluationError,
    GridMismatchError,
    InfeasibleConstraintError,
    IterationLimitError,
    ParameterError,
    SingularSystemError,
)
from .lagrangian import Expr, Lagrangian, differentiate, evaluate, evaluate_array
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
        if self.u == 0:
            raise ParameterError(
                "direction u must be nonzero: with u = 0 every admissible "
                "trajectory gives the same value, so there is nothing to solve")
        if not self.h > 0:
            raise ParameterError(f"step h must be positive, got {self.h!r}")
        if not self.scale.a < self.scale.b:
            raise ParameterError("variational problems need a scale with a < b")

    def discretized(self) -> SampleGrid:
        return self.scale.discretize(self.h)


@dataclass(frozen=True, kw_only=True)
class IsoProblem(Problem):
    """Problem with one integral constraint K[y] = K in its own direction w."""

    G: Lagrangian
    w: float
    K: float

    def __post_init__(self) -> None:
        Problem.__post_init__(self)
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


# -- argument packing and checked evaluation -----------------------------------

def _pack(u: float, ts: np.ndarray, ys: np.ndarray):
    """Integrand arguments per term: base points, scaled y slot, scaled v slot,
    and the step weights, in the direction selected by the sign of u."""
    steps = np.diff(ts)
    slopes = np.diff(ys) / steps
    if u > 0:
        return ts[:-1], u * ys[1:], u * slopes, steps
    return ts[1:], u * ys[:-1], u * slopes, steps


def _eval_soft(expr: Expr, t: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.asarray(evaluate_array(expr, t, y, v), dtype=float)
    if out.ndim == 0:
        out = np.full(t.shape, float(out))
    return out


def _eval_checked(expr: Expr, t: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = _eval_soft(expr, t, y, v)
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argmax(bad))
        evaluate(expr, float(t[i]), float(y[i]), float(v[i]))  # raises with context
        raise EvaluationError(
            "expression produced a non-finite value",
            t=float(t[i]), y=float(y[i]), v=float(v[i]))
    return out


def _functional_raw(lag: Lagrangian, u: float, ts: np.ndarray, ys: np.ndarray,
                    checked: bool = True) -> float:
    tA, Y, V, wts = _pack(u, ts, ys)
    ev = _eval_checked if checked else _eval_soft
    vals = ev(lag.L, tA, Y, V)
    return u * float(np.sum(vals * wts))


def _grad_raw(lag: Lagrangian, u: float, ts: np.ndarray, ys: np.ndarray,
              checked: bool = True) -> np.ndarray:
    """Gradient of the discretized functional with respect to interior values."""
    tA, Y, V, wts = _pack(u, ts, ys)
    ev = _eval_checked if checked else _eval_soft
    p2 = ev(lag.dL_dy, tA, Y, V)
    p3 = ev(lag.dL_dv, tA, Y, V)
    uu = u * u
    if u > 0:
        return uu * (wts[:-1] * p2[:-1] + p3[:-1] - p3[1:])
    return uu * (wts[1:] * p2[1:] - p3[1:] + p3[:-1])


_SecondPartials = tuple[Expr, Expr, Expr]


def _second_partials(lag: Lagrangian) -> _SecondPartials:
    return (differentiate(lag.dL_dy, "y"),
            differentiate(lag.dL_dy, "v"),
            differentiate(lag.dL_dv, "v"))


def _hess_raw(second: _SecondPartials, u: float, ts: np.ndarray,
              ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Hessian of the discretized functional as its two bands:
    the diagonal (m values) and the symmetric off-diagonal (m - 1 values)."""
    tA, Y, V, wts = _pack(u, ts, ys)
    A = _eval_checked(second[0], tA, Y, V)
    B = _eval_checked(second[1], tA, Y, V)
    C = _eval_checked(second[2], tA, Y, V)
    u3 = u ** 3
    if u > 0:
        diag = u3 * (wts[:-1] * A[:-1] + 2.0 * B[:-1]
                     + C[:-1] / wts[:-1] + C[1:] / wts[1:])
        off = -u3 * (B[1:-1] + C[1:-1] / wts[1:-1])
    else:
        diag = u3 * (wts[1:] * A[1:] - 2.0 * B[1:]
                     + C[1:] / wts[1:] + C[:-1] / wts[:-1])
        off = u3 * (B[1:-1] - C[1:-1] / wts[1:-1])
    return diag, off


_SINGULAR = "Newton matrix is singular at the current iterate"


# numpy has no banded solver, and scipy.linalg.solve_banded is kept out on
# purpose: importing scipy.linalg costs 0.26-0.4 s and about 27 MB of RSS,
# far more than a whole small solve. A Python loop over floats is O(m).
def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                       *rhs: np.ndarray) -> list[np.ndarray]:
    """Solve T x = r for each r in rhs, where T is the symmetric tridiagonal
    matrix with the given bands.

    Gaussian elimination with partial pivoting in the row order of LAPACK
    gtsv: a row interchange fills in a second superdiagonal. A zero pivot
    raises SingularSystemError.
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


def _residual_raw(lag: Lagrangian, u: float, ts: np.ndarray, ys: np.ndarray,
                  checked: bool = True) -> np.ndarray:
    """Stationarity residual at every point where the shifted indices exist:
    grid indices 0..N-2 for u > 0, and 2..N for u < 0."""
    tA, Y, V, wts = _pack(u, ts, ys)
    ev = _eval_checked if checked else _eval_soft
    p2 = ev(lag.dL_dy, tA, Y, V)
    g = ev(lag.dL_dv, tA, Y, V)
    if u > 0:
        return u * ((g[1:] - g[:-1]) / wts[:-1] - p2[:-1])
    return u * ((g[1:] - g[:-1]) / wts[1:] - p2[1:])


def _interior_range(n: int) -> range:
    """Grid indices in the doubly truncated interior of an n-point grid."""
    return range(2, n - 2)


def _residual_at(u: float, values: np.ndarray, grid_index: int) -> float:
    # values are aligned to grid index 0 for u > 0 and to grid index 2 for u < 0
    return float(values[grid_index] if u > 0 else values[grid_index - 2])


# -- structural checks ------------------------------------------------------------

def _require_grid(problem: Problem, y: GridFunction) -> SampleGrid:
    grid = problem.discretized()
    if y.grid.points != grid.points:
        raise GridMismatchError(
            "trajectory grid does not match the problem's discretized grid "
            f"({len(y.grid.points)} vs {len(grid.points)} points)")
    return grid


def _require_boundaries(problem: Problem, y: GridFunction) -> None:
    if y.values[0] != problem.alpha or y.values[-1] != problem.beta:
        raise BoundaryMismatchError(
            f"boundary values ({y.values[0]!r}, {y.values[-1]!r}) do not match "
            f"the prescribed ({problem.alpha!r}, {problem.beta!r})")


# -- public operations ---------------------------------------------------------------

def functional_value(problem: Problem, y: GridFunction) -> float:
    """Value of the direction-scaled functional along a trajectory."""
    _require_grid(problem, y)
    _require_boundaries(problem, y)
    ts = np.asarray(y.grid.points)
    ys = np.asarray(y.values)
    return _functional_raw(problem.L, problem.u, ts, ys)


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
    ts = np.asarray(grid.points)
    ys = np.asarray(y.values)
    res = _residual_raw(problem.L, problem.u, ts, ys)
    if problem.u > 0:
        sub = SampleGrid(grid.points[:-2], grid.dense_flags[:-2])
    else:
        sub = SampleGrid(grid.points[2:], grid.dense_flags[2:])
    return GridFunction(sub, tuple(float(r) for r in res))


def residual_column(problem: Problem, y: GridFunction,
                    lam0: float | None = None, lam: float | None = None,
                    enforce_boundaries: bool = True) -> list[float | None]:
    """Residual aligned to the full grid: values on the doubly truncated
    interior, None elsewhere. With multipliers the column is the combined
    residual lam0 * (L side) - lam * (constraint side)."""
    grid = _require_grid(problem, y)
    if enforce_boundaries:
        _require_boundaries(problem, y)
    n = len(grid.points)
    ts = np.asarray(grid.points)
    ys = np.asarray(y.values)
    col: list[float | None] = [None] * n
    interior = _interior_range(n)
    if lam is None:
        res = _residual_raw(problem.L, problem.u, ts, ys)
        for i in interior:
            col[i] = _residual_at(problem.u, res, i)
        return col
    if not isinstance(problem, IsoProblem):
        raise ParameterError("multipliers are only meaningful for IsoProblem")
    res_l = _residual_raw(problem.L, problem.u, ts, ys)
    res_g = _residual_raw(problem.G, problem.w, ts, ys)
    l0 = 1.0 if lam0 is None else lam0
    for i in interior:
        col[i] = (l0 * _residual_at(problem.u, res_l, i)
                  - lam * _residual_at(problem.w, res_g, i))
    return col


def _interior_max(col: list[float | None]) -> float:
    vals = [abs(v) for v in col if v is not None]
    if not vals:
        raise DegenerateScaleError(
            "doubly truncated interior is empty after discretization")
    return max(vals)


def verify(problem: Problem, y: GridFunction, tol: float) -> VerifyReport:
    """Check boundary conditions and the stationarity residual against tol."""
    grid = _require_grid(problem, y)
    boundary_ok = (y.values[0] == problem.alpha and y.values[-1] == problem.beta)
    ts = np.asarray(grid.points)
    ys = np.asarray(y.values)
    col = residual_column(problem, y, enforce_boundaries=False)
    residual_max = _interior_max(col)
    value = _functional_raw(problem.L, problem.u, ts, ys)
    return VerifyReport(
        boundary_ok=boundary_ok,
        residual_max=residual_max,
        functional_value=value,
        passed=boundary_ok and residual_max <= tol,
    )


# -- solvers ----------------------------------------------------------------------------

def _affine_start(problem: Problem, ts: np.ndarray) -> np.ndarray:
    span = ts[-1] - ts[0]
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
    return grid, np.asarray(grid.points)


def solve(problem: Problem, tol: float = 1e-10, max_iter: int = 100) -> Solution:
    """Newton iteration with backtracking on the gradient of the discretized
    functional, starting from the affine interpolant between the boundary
    values. Boundary values are eliminated variables and are met exactly."""
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol!r}")
    if max_iter < 0:
        raise ParameterError(f"max_iter must be nonnegative, got {max_iter!r}")
    grid, ts = _prepared_grid(problem)
    lag, u = problem.L, problem.u
    second = _second_partials(lag)
    ys = _affine_start(problem, ts)

    g = _grad_raw(lag, u, ts, ys)
    iterations = 0
    while float(np.max(np.abs(g))) > tol:
        if iterations >= max_iter:
            raise IterationLimitError(
                f"no convergence after {max_iter} Newton steps "
                f"(stationarity norm {float(np.max(np.abs(g))):.3e})",
                last=tuple(float(v) for v in ys))
        [step] = _solve_tridiagonal(*_hess_raw(second, u, ts, ys), -g)
        if not np.all(np.isfinite(step)):
            raise SingularSystemError("Newton step is not finite")
        ys, g = _backtrack(lambda z: _grad_raw(lag, u, ts, z, checked=False),
                           ys, step, g, tol)
        iterations += 1

    yfn = GridFunction(grid, tuple(float(v) for v in ys))
    col = residual_column(problem, yfn)
    return Solution(
        y=yfn,
        functional_value=_functional_raw(lag, u, ts, ys),
        residual_max=_interior_max(col),
        iterations=iterations,
    )


def _backtrack(grad_of, ys: np.ndarray, step: np.ndarray, g: np.ndarray,
               tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Halve the step until the squared gradient norm decreases."""
    phi0 = 0.5 * float(g @ g)
    alpha = 1.0
    while alpha >= 1e-12:
        trial = ys.copy()
        trial[1:-1] += alpha * step
        gt = grad_of(trial)
        if np.all(np.isfinite(gt)):
            phi1 = 0.5 * float(gt @ gt)
            if phi1 <= phi0 * (1.0 - 1e-4 * alpha) or float(np.max(np.abs(gt))) <= tol:
                return trial, gt
        alpha *= 0.5
    raise IterationLimitError(
        "line search stalled before reaching the tolerance",
        last=tuple(float(v) for v in ys))


def _bordered_step(diag: np.ndarray, off: np.ndarray, gg: np.ndarray,
                   phi: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step (dy, dlam) of the bordered system
    [[H, -gg], [gg^T, 0]] (dy, dlam) = -phi, with H tridiagonal.

    The (m + 1)-system is eliminated as a whole, so H itself may be
    singular, as it is for an integrand linear in (y, v) at lam = 0.
    Gaussian elimination with partial pivoting runs over the dy columns:
    the candidates for column k are the two rows left over from column
    k - 1 and row k + 1 of H, and the border row gg^T starts as a leftover.
    A working row is kept as its entries in columns k, k + 1 and k + 2, a
    multiple c of gg in the columns past them, its dlam entry and its
    right-hand side; only the border row and the rows combined with it have
    c != 0. So each column costs O(1), and the dense border costs a running
    sum of gg_j dy_j in the back substitution.

    When H = 0 the bordered matrix has rank 2, and the step is its
    minimum-norm least-squares solution. When the last pivot vanishes, as
    it does for gg = 0 (a constant or abnormal constraint), the multiplier
    stays put and dy solves H dy = -phi_y. A zero pivot in a dy column
    raises SingularSystemError.
    """
    m = diag.size
    if not (diag.any() or off.any()):
        gn = float(gg @ gg)
        if gn == 0.0:
            raise SingularSystemError(_SINGULAR)
        return -float(phi[m]) / gn * gg, float(gg @ phi[:m]) / gn
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
    step = np.array(x[:m])
    if not (np.all(np.isfinite(step)) and math.isfinite(dlam)):
        raise SingularSystemError("Newton step is not finite")
    return step, dlam


def solve_iso(iso: IsoProblem, tol: float = 1e-10, max_iter: int = 100) -> Solution:
    """Newton iteration on the augmented stationarity system.

    Unknowns are the interior values and one multiplier; the system couples
    the combined stationarity condition with the constraint K[y] = K. The
    reported multiplier pair follows the convention
    lam0 * (L-side residual) = lam * (constraint-side residual):
    a normal extremizer gets lam0 = 1, an abnormal one (0, 1).
    """
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol!r}")
    if max_iter < 0:
        raise ParameterError(f"max_iter must be nonnegative, got {max_iter!r}")
    grid, ts = _prepared_grid(iso)
    u, w = iso.u, iso.w
    second_l = _second_partials(iso.L)
    second_g = _second_partials(iso.G)
    ys = _affine_start(iso, ts)
    lam_g = 0.0
    m = len(grid.points) - 2

    def system(z: np.ndarray, lam_val: float, checked: bool) -> np.ndarray:
        gl = _grad_raw(iso.L, u, ts, z, checked=checked)
        gg = _grad_raw(iso.G, w, ts, z, checked=checked)
        cons = _functional_raw(iso.G, w, ts, z, checked=checked) - iso.K
        return np.concatenate([gl - lam_val * gg, [cons]])

    phi = system(ys, lam_g, checked=True)
    iterations = 0
    while float(np.max(np.abs(phi))) > tol:
        if iterations >= max_iter:
            raise IterationLimitError(
                f"no convergence after {max_iter} Newton steps "
                f"(system norm {float(np.max(np.abs(phi))):.3e})",
                last=tuple(float(v) for v in ys))
        gg = _grad_raw(iso.G, w, ts, ys)
        diag_l, off_l = _hess_raw(second_l, u, ts, ys)
        diag_g, off_g = _hess_raw(second_g, w, ts, ys)
        step, dlam = _bordered_step(diag_l - lam_g * diag_g,
                                    off_l - lam_g * off_g, gg, phi)
        accepted = False
        phi0 = 0.5 * float(phi @ phi)
        alpha = 1.0
        while alpha >= 1e-12:
            trial = ys.copy()
            trial[1:-1] += alpha * step
            lam_try = lam_g + alpha * dlam
            phit = system(trial, lam_try, checked=False)
            if np.all(np.isfinite(phit)):
                phi1 = 0.5 * float(phit @ phit)
                if (phi1 <= phi0 * (1.0 - 1e-4 * alpha)
                        or float(np.max(np.abs(phit))) <= tol):
                    ys, lam_g, phi = trial, lam_try, phit
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            cons_gap = abs(float(phi[m]))
            if cons_gap > tol and float(np.max(np.abs(gg))) <= max(tol, 1e-12):
                raise InfeasibleConstraintError(
                    f"constraint value is insensitive to the trajectory but "
                    f"misses its target by {cons_gap:.3e}")
            raise IterationLimitError(
                "line search stalled before reaching the tolerance",
                last=tuple(float(v) for v in ys))
        iterations += 1

    yfn = GridFunction(grid, tuple(float(v) for v in ys))
    g_col = residual_column(iso.constraint_problem(), yfn)
    g_side_max = _interior_max(g_col)
    if g_side_max <= tol:
        lam0, lam_out, normal = 0.0, 1.0, False
    else:
        # the augmented system solves in gradient scaling; convert to the
        # residual convention, which differs by the factor w/u
        lam0, lam_out, normal = 1.0, lam_g * w / u, True
    col = residual_column(iso, yfn, lam0=lam0, lam=lam_out)
    return Solution(
        y=yfn,
        functional_value=_functional_raw(iso.L, u, ts, ys),
        residual_max=_interior_max(col),
        iterations=iterations,
        lam=lam_out,
        lam0=lam0,
        normal_flag=normal,
    )
