"""The solvers against exact discrete extremals, 10^3 to 10^6 points.

tests/closed_forms.py gives each extremal in numpy alone. Every size here
has at least 512 interior unknowns, so a definite Hessian is solved by
cyclic reduction and the bump's Newton step by the Schur complement of two
solves with one factor; `v^2 - 100*y^2` has an indefinite Hessian and
takes the pivoting loop. No golden case runs these sizes.

At 10^6 points the default tol of 1e-10 stalls on the gradient's rounding
floor (ROADMAP item 2), so runs at that size stop at tol = 1e-7, after one
Newton step.

Each bound is the error today's code meets, measured value in the comment,
so a change to the solvers' rounding shows here. A stopping rule that
reaches the discrete extremal may tighten them.
"""

from __future__ import annotations

import numpy as np
import pytest

from closed_forms import bump, hyperbolic, trigonometric
from tsvar import Lagrangian, TimeScale
from tsvar.variational import IsoProblem, Problem, solve, solve_iso

UNIT = TimeScale.interval(0.0, 1.0)

# steps n -> bound on max_k |y_k - sinh(k theta) / sinh(n theta)|
HYPERBOLIC_BOUND = {
    10**3: 3e-14,  # measured 2.89e-14 (2.90e-14 for u < 0)
    10**4: 5e-11,  # measured 4.95e-11
    10**5: 2e-9,  # measured 1.92e-9
    10**6: 3e-7,  # measured 2.67e-7, for each u
}


def options(n: int) -> dict:
    """The solver options at n steps."""
    return {"tol": 1e-7} if n >= 10**6 else {}


def solved(lag: str, u: float, n: int):
    sol = solve(Problem(scale=UNIT, u=u, L=Lagrangian.from_text(lag),
                        alpha=0.0, beta=1.0, h=1.0 / n), **options(n))
    assert len(sol.y.values) == n + 1
    return sol


def error(y, exact) -> float:
    return float(np.max(np.abs(np.asarray(y) - exact)))


@pytest.mark.parametrize("n", sorted(HYPERBOLIC_BOUND))
@pytest.mark.parametrize("u", [1.0, -1.0, -0.5])
def test_hyperbolic(n, u):
    sol = solved("v^2 + y^2", u, n)
    assert error(sol.y.values, hyperbolic(n)) <= HYPERBOLIC_BOUND[n]


# u = 2 at 10^5 points exits "line search stalled": g's rounding floor
# grows with |u|^3 / h, and today's stopping rule cannot meet it
@pytest.mark.parametrize("n", [10**3, 10**4])
def test_hyperbolic_u2(n):
    sol = solved("v^2 + y^2", 2.0, n)
    assert error(sol.y.values, hyperbolic(n)) <= HYPERBOLIC_BOUND[n]


# steps n -> bounds on the trajectory's and the multiplier's errors
BUMP_BOUND = {
    10**3: (2e-15, 2e-13),  # measured 1.44e-15 and 1.40e-13
    10**4: (4e-11, 4e-9),  # measured 3.81e-11 and 3.35e-9
    10**5: (2.5e-9, 8e-9),  # measured 2.32e-9 and 7.77e-9
    10**6: (3.5e-7, 8.5e-7),  # measured 3.16e-7 and 7.93e-7
}


@pytest.mark.parametrize("n", sorted(BUMP_BOUND))
def test_bump(n):
    sol = solve_iso(IsoProblem(scale=UNIT, u=1.0, L=Lagrangian.from_text("v^2"),
                               alpha=0.0, beta=0.0, h=1.0 / n,
                               G=Lagrangian.from_text("y"), w=1.0, K=1.0 / 6.0),
                    **options(n))
    assert len(sol.y.values) == n + 1
    assert sol.lam0 == 1.0 and sol.normal_flag
    y, lam = bump(n)
    y_bound, lam_bound = BUMP_BOUND[n]
    assert error(sol.y.values, y) <= y_bound
    assert abs(sol.lam - lam) <= lam_bound


# steps n -> (bound, Newton steps); c = 10 puts three conjugate points in
# (0, 1), so the Hessian is indefinite for either sign of u
TRIGONOMETRIC_BOUND = {
    10**3: (2e-11, 1),  # measured 1.59e-11
    10**4: (2e-14, 2),  # measured 1.07e-14 (7.55e-15 for u = -1)
    10**5: (3e-14, 2),  # measured 2.09e-14 (1.69e-14 for u = -1)
}


@pytest.mark.parametrize("n", sorted(TRIGONOMETRIC_BOUND))
@pytest.mark.parametrize("u", [1.0, -1.0])
def test_trigonometric(n, u):
    sol = solved("v^2 - 100*y^2", u, n)
    bound, steps = TRIGONOMETRIC_BOUND[n]
    assert sol.iterations == steps
    assert error(sol.y.values, trigonometric(n, 10.0)) <= bound
