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

from .banded import bordered_step, solve_tridiagonal
from .calculus import GridFunction, exact_rectangle_sum
from .errors import (
    BoundaryMismatchError,
    DegenerateScaleError,
    GridMismatchError,
    InfeasibleConstraintError,
    IterationLimitError,
    ParameterError,
    SingularSystemError,
)
from .lagrangian import Lagrangian, raise_if_singular
from .timescale import SampleGrid, TimeScale, require_finite

__all__ = [
    "Problem",
    "IsoProblem",
    "Solution",
    "VerifyReport",
    "functional_value",
    "el_residual",
    "residual_column",
    "interior_residual",
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
        require_finite(("direction u", self.u), ("boundary value alpha", self.alpha),
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
        require_finite(("constraint direction w", self.w), ("constraint value K", self.K))
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
    there from one run of its first-order program, so the gradient,
    functional and residual of one iterate share their evaluations, and
    the residual and functional are each computed once. The solvers and
    the public checks read every figure of a trajectory from such a record.

    A partial that is constant is one scalar. A checked read raises
    EvaluationError at the first non-finite value, as evaluate does; an
    unchecked one, as a line-search trial makes, returns the values as they
    are.
    """

    def __init__(self, lag: Lagrangian, u: float, ts: np.ndarray, ys: np.ndarray):
        self.lag, self.u, self.ts = lag, u, ts
        # the direction rule, decided once: for u > 0 (delta) a step's base
        # point is its left end and y is read at its right end; u < 0 (nabla)
        # swaps both ends, and the signs of the terms that tie y to its steps
        if u > 0:
            self._base, self._shift = slice(None, -1), slice(1, None)
            self._plus, self._minus = np.add, np.subtract
            self.kept, self._inner = slice(None, -2), slice(2, None)
        else:
            self._base, self._shift = slice(1, None), slice(None, -1)
            self._plus, self._minus = np.subtract, np.add
            self.kept, self._inner = slice(2, None), slice(None, -2)
        # per term: base points, scaled y slot, scaled v slot, step weights
        with np.errstate(all="ignore"):  # a checked read reports what overflows
            steps = ts[1:] - ts[:-1]
            tA, Y, V = ts[self._base], u * ys[self._shift], u * ((ys[1:] - ys[:-1]) / steps)
            self.args = tA, Y, V, steps
            self._values = dict(zip(("L", "dL_dy", "dL_dv"), lag.first_order(tA, Y, V)))
        self._checked: set[str] = set()
        self._residual: np.ndarray | None = None
        self._functional: float | None = None

    def values(self, name: str, checked: bool = True) -> np.ndarray | float:
        """The values of "L", "dL_dy" or "dL_dv" at every term."""
        vals = self._values[name]
        if checked and name not in self._checked:
            raise_if_singular(vals, *self.args[:3])
            self._checked.add(name)
        return vals

    def functional(self, checked: bool = True) -> float:
        # numpy's sum while it is finite, else the exact sum of finite values,
        # so an overflow gives inf as delta_integral reports it; an unchecked
        # non-finite value gives inf or nan, which no convergence test accepts
        if checked and "L" not in self._checked:
            self.values("L")
        if self._functional is None:
            vals, wts = self._values["L"], self.args[3]
            with np.errstate(over="ignore", invalid="ignore"):
                total = float(np.sum(vals * wts))
                if not math.isfinite(total) and np.isfinite(vals).all():
                    total = exact_rectangle_sum(np.broadcast_to(vals, wts.shape), self.ts)
                self._functional = self.u * total
        return self._functional

    def grad(self, checked: bool = True) -> np.ndarray:
        """Gradient of the discretized functional with respect to interior
        values."""
        p2 = self.values("dL_dy", checked)
        p3 = self.values("dL_dv", checked)
        u, wts, own, other = self.u, self.args[3], self._base, self._shift
        with np.errstate(all="ignore"):  # the Newton step's check reports it
            return u * u * self._minus(self._plus(wts[own] * _at(p2, own), _at(p3, own)),
                                       _at(p3, other))

    def hess(self) -> tuple[np.ndarray, np.ndarray]:
        """Tridiagonal Hessian of the discretized functional as its two
        bands: the diagonal (m values) and the symmetric off-diagonal
        (m - 1 values)."""
        tA, Y, V, wts = self.args
        own, other = self._base, self._shift
        with np.errstate(all="ignore"):  # the Newton step's check reports it
            A, B, C = (raise_if_singular(p, tA, Y, V)
                       for p in self.lag.second_order(tA, Y, V))
            cw = C / wts
            diag = self.u ** 3 * (self._plus(wts[own] * _at(A, own), 2.0 * _at(B, own))
                                  + cw[own] + cw[other])
            # for u < 0, -|u|^3 is u^3 bit for bit: an odd power of -x is -(x^3)
            off = -abs(self.u) ** 3 * self._plus(_at(B, slice(1, -1)), cw[1:-1])
        return diag, off

    def residual(self) -> np.ndarray:
        """Stationarity residual at every point where the shifted indices
        exist, the grid points `kept`: indices 0..N-3 for u > 0, and 2..N-1
        for u < 0."""
        if self._residual is None:
            p2 = self.values("dL_dy")
            g = self.values("dL_dv")
            with np.errstate(all="ignore"):  # an overflow reads as inf
                self._residual = self.u * ((_at(g, slice(1, None)) - _at(g, slice(None, -1)))
                                           / self.args[3][self._base]
                                           - _at(p2, self._base))
        return self._residual

    def interior(self) -> np.ndarray:
        """The residual on the doubly truncated interior, grid indices
        2..N-3."""
        return self.residual()[self._inner]

    def cut(self) -> "_Iterate":
        """This record with only the residual and functional it has
        computed, as the public checks read them of a solution."""
        self.args = self._values = None  # type: ignore[assignment]
        return self


def _at(p: np.ndarray | float, where: slice) -> np.ndarray | float:
    """A partial's values at the terms where: a constant's is its scalar."""
    return p[where] if isinstance(p, np.ndarray) else p


def _interior_residual(problem: Problem, at: _Iterate, y: GridFunction,
                       lam0: float | None, lam: float | None) -> np.ndarray:
    """Residual on the doubly truncated interior of the trajectory y, with
    at its record under problem.L; with the multiplier pair, the combined
    residual lam0 * (L side) - lam * (constraint side)."""
    if (lam0 is not None or lam is not None) and not isinstance(problem, IsoProblem):
        raise ParameterError("multipliers are only meaningful for IsoProblem")
    if (lam0 is None) != (lam is None):
        raise ParameterError(
            "give both multipliers lam0 and lam, or neither: "
            f"got lam0={lam0!r}, lam={lam!r}")
    res = at.interior()
    if lam is None:
        return res
    return lam0 * res - lam * _record(problem, y, constraint=True).interior()


def _missed_ends(problem: Problem, y: GridFunction) -> tuple[float, float] | None:
    """y's end values when they differ from the boundary values, else None."""
    ends = float(y.values[0]), float(y.values[-1])
    return None if ends == (problem.alpha, problem.beta) else ends


def _opened(problem: Problem, y: GridFunction, boundaries: bool = True) -> _Iterate:
    """y's record under problem.L, once y is found to lie on the discretized
    grid and, with boundaries, to meet the boundary values."""
    ts = problem.discretized().points
    if y.grid.points is not ts and not np.array_equal(y.grid.points, ts):
        n, n_grid = len(y.grid.points), len(ts)
        raise GridMismatchError(
            f"trajectory has {n} points but the discretized grid has "
            f"{n_grid}; its points must equal the grid points", n, n_grid)
    if boundaries and (missed := _missed_ends(problem, y)) is not None:
        raise BoundaryMismatchError(
            f"boundary values {missed!r} do not match "
            f"the prescribed ({problem.alpha!r}, {problem.beta!r})")
    return _record(problem, y)


def _solution(problem: Problem, ys: np.ndarray, records: tuple[_Iterate, _Iterate | None],
              **figures) -> Solution:
    """The Solution with trajectory ys and the given figures. Its y carries
    (problem, ys, the solver's last records under L and G, or None), cut
    down to what the public checks read, for as long as y lives."""
    y = GridFunction(problem.discretized(), ys)
    object.__setattr__(y, "_solved", (problem, ys, tuple(
        None if at is None else at.cut() for at in records)))
    return Solution(y=y, **figures)


def _record(problem: Problem, y: GridFunction, constraint: bool = False) -> _Iterate:
    """y's record under problem.L, or with constraint under problem.G: the
    solver's own when y is a solution's trajectory on this very problem and
    still holds the values solved, else a fresh one."""
    solved, ys, records = getattr(y, "_solved", (None, None, (None, None)))
    if solved is problem and records[constraint] and np.array_equal(ys, y.values):
        return records[constraint]
    lag, u = (problem.G, problem.w) if constraint else (problem.L, problem.u)
    return _Iterate(lag, u, problem.discretized().points, y.values)


# -- public operations ---------------------------------------------------------------

def functional_value(problem: Problem, y: GridFunction) -> float:
    """Value of the direction-scaled functional along a trajectory."""
    return _opened(problem, y).functional()


def el_residual(problem: Problem, y: GridFunction) -> GridFunction:
    """Stationarity residual along a trajectory, on its computable subgrid.

    For u > 0 the residual lives on all grid points except the last two,
    for u < 0 on all except the first two. Zeros of the residual are the
    necessary optimality condition.
    """
    at, grid = _opened(problem, y), problem.discretized()
    if len(grid.points) < 3:
        raise DegenerateScaleError("the residual needs at least three grid points")
    return GridFunction(SampleGrid(grid.points[at.kept], grid.dense_flags[at.kept]),
                        at.residual())


def interior_residual(problem: Problem, y: GridFunction,
                      lam0: float | None = None, lam: float | None = None,
                      enforce_boundaries: bool = True) -> np.ndarray:
    """residual_column's values, on the rows 2..n-3 of the grid, as a float
    array."""
    # the record is freed on return, before the caller formats the array
    return _interior_residual(problem, _opened(problem, y, enforce_boundaries),
                              y, lam0, lam)


def residual_column(problem: Problem, y: GridFunction,
                    lam0: float | None = None, lam: float | None = None,
                    enforce_boundaries: bool = True) -> list[float | None]:
    """Residual aligned to the full grid: values on the doubly truncated
    interior, None elsewhere. With the multiplier pair the column is the
    combined residual lam0 * (L side) - lam * (constraint side); a lone
    multiplier raises ParameterError."""
    res = interior_residual(problem, y, lam0, lam, enforce_boundaries)
    n = len(y)
    col: list[float | None] = [None] * n
    col[2:n - 2] = res.tolist()
    return col


def _require_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")


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
    ParameterError, as does a tol that is not positive and finite.
    """
    _require_tol(tol)
    at = _opened(problem, y, boundaries=False)
    boundary_ok = _missed_ends(problem, y) is None
    residual_max = _interior_max(_interior_residual(problem, at, y, lam0, lam))
    return VerifyReport(
        boundary_ok=boundary_ok,
        residual_max=residual_max,
        functional_value=at.functional(),
        passed=boundary_ok and residual_max <= tol,
    )


# -- solvers ----------------------------------------------------------------------------

def _newton(problem: Problem, tol: float, max_iter: int, system, step, norm: str,
            stalled=None):
    """Damped Newton iteration on the state (ys, lam) from the affine start
    and lam = 0: system(ts, z, lam, checked) gives an iterate's record and
    the system's value phi, step(record, phi, lam) the step (dy, dlam), and
    stalled(record, phi) may raise in place of a stalled line search.
    Returns (ys, lam, record, iterations).

    The line search halves alpha from 1 until the squared norm of phi
    decreases; below alpha = 1e-12 it stalls with IterationLimitError
    carrying the iterate it started from."""
    _require_tol(tol)
    if max_iter < 0:
        raise ParameterError(f"max_iter must be nonnegative, got {max_iter!r}")
    ts = problem.discretized().points
    if len(ts) < 5:
        raise DegenerateScaleError(
            "doubly truncated interior is empty after discretization; "
            "use a finer step or a larger scale")
    with np.errstate(all="ignore"):  # a checked read reports what overflows
        span = ts[-1] - ts[0]
        ys = problem.alpha + (problem.beta - problem.alpha) * (ts - ts[0]) / span
    ys[0], ys[-1] = problem.alpha, problem.beta
    lam = 0.0
    record, phi = system(ts, ys, lam, True)
    iterations = 0
    # a nan norm does not converge
    while not (top := float(np.max(np.abs(phi)))) <= tol:
        if iterations >= max_iter:
            raise IterationLimitError(
                f"no convergence after {max_iter} Newton steps ({norm} norm {top:.3e})",
                last=tuple(ys.tolist()))
        dy, dlam = step(record, phi, lam)
        if not (np.all(np.isfinite(dy)) and math.isfinite(dlam)):
            raise SingularSystemError("Newton step is not finite")
        # the merits are scaled by 4^-e, with 2^e about max |phi|, so phi0 does
        # not overflow; a power of two scales exactly, which keeps every
        # comparison that neither overflows nor underflows unscaled
        e = -math.frexp(top)[1]
        scaled = np.ldexp(phi, e)
        phi0 = 0.5 * float(scaled @ scaled)
        alpha = 1.0
        while alpha >= 1e-12:
            # a trial is unchecked and may overflow; a non-finite one is rejected
            with np.errstate(all="ignore"):
                z = _moved(ys, dy, alpha)
                lam_z = lam + alpha * dlam
                record_z, phi_z = system(ts, z, lam_z, False)
                scaled = np.ldexp(phi_z, e)
                phi1 = 0.5 * float(scaled @ scaled)
            if np.all(np.isfinite(phi_z)) and (
                    phi1 <= phi0 * (1.0 - 1e-4 * alpha)
                    or float(np.max(np.abs(phi_z))) <= tol):
                break
            alpha *= 0.5
        else:
            if stalled is not None:
                stalled(record, phi)
            raise IterationLimitError(
                "line search stalled before reaching the tolerance",
                last=tuple(ys.tolist()))
        ys, lam, record, phi = z, lam_z, record_z, phi_z
        iterations += 1
    return ys, lam, record, iterations


def _moved(ys: np.ndarray, step: np.ndarray, alpha: float) -> np.ndarray:
    """ys with alpha * step added to its interior values."""
    trial = ys.copy()
    trial[1:-1] += alpha * step
    return trial


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
        return solve_tridiagonal(*at.hess(), -g), 0.0

    ys, _, at, iterations = _newton(problem, tol, max_iter, system, step,
                                    "stationarity")
    res = at.interior()
    return _solution(problem, ys, (at, None), functional_value=at.functional(),
                     residual_max=_interior_max(res), iterations=iterations)


def solve_iso(iso: IsoProblem, tol: float = 1e-10, max_iter: int = 100) -> Solution:
    """Newton iteration on the augmented stationarity system.

    Unknowns are the interior values and one multiplier; the system couples
    the combined stationarity condition with the constraint K[y] = K. The
    reported multiplier pair follows the convention
    lam0 * (L-side residual) = lam * (constraint-side residual):
    a normal extremizer gets lam0 = 1, an abnormal one (0, 1).

    tol bounds the system norm, the larger of the combined gradient's and
    the constraint gap's, not the reported residual_max, which can exceed
    it, as in solve: a 28-point nabla problem converges after 30 steps
    with residual_max = 3.0e-10 under tol = 1e-10.
    """
    u, w = iso.u, iso.w

    # both integrands at z, the constraint's gradient there, and the
    # system's value
    def system(ts: np.ndarray, z: np.ndarray, lam: float, checked: bool):
        at_l, at_g = _Iterate(iso.L, u, ts, z), _Iterate(iso.G, w, ts, z)
        gl, gg = at_l.grad(checked), at_g.grad(checked)
        cons = at_g.functional(checked) - iso.K
        with np.errstate(all="ignore"):  # the Newton step's check reports it
            return (at_l, at_g, gg), np.concatenate([gl - lam * gg, [cons]])

    def step(record, phi: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
        at_l, at_g, gg = record
        for name in ("dL_dy", "dL_dv"):  # a trial computed gg unchecked
            at_g.values(name)
        diag_l, off_l = at_l.hess()
        diag_g, off_g = at_g.hess()
        return bordered_step(diag_l - lam * diag_g, off_l - lam * off_g, gg, phi)

    def stalled(record, phi: np.ndarray) -> None:
        cons_gap = abs(float(phi[-1]))
        if cons_gap > tol and float(np.max(np.abs(record[2]))) <= max(tol, 1e-12):
            raise InfeasibleConstraintError(
                f"constraint value is insensitive to the trajectory but "
                f"misses its target by {cons_gap:.3e}")

    ys, lam_g, (at_l, at_g, _), iterations = _newton(
        iso, tol, max_iter, system, step, "system", stalled)
    res_g = at_g.interior()
    if _interior_max(res_g) <= tol:
        lam0, lam_out, normal = 0.0, 1.0, False
    else:
        # the augmented system solves in gradient scaling; convert to the
        # residual convention, which differs by the factor w/u
        lam0, lam_out, normal = 1.0, lam_g * w / u, True
    res = lam0 * at_l.interior() - lam_out * res_g
    return _solution(iso, ys, (at_l, at_g), functional_value=at_l.functional(),
                     residual_max=_interior_max(res), iterations=iterations,
                     lam=lam_out, lam0=lam0, normal_flag=normal)
