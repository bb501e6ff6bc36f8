"""Exact discrete extremals on `interval 0 1` at h = 1/n, in numpy alone.

On a uniform grid the interior Euler-Lagrange equations of these
integrands are recurrences with constant coefficients, the same for every
direction u != 0, so each extremal has a closed form in the index k of
t_k = k h (Bohner & Peterson, Dynamic Equations on Time Scales, 2001,
ch. 3). They are indexed by k, not by t, because the grid's points carry
rounding. Nothing here imports tsvar, so the forms check the solvers from
outside.
"""

from __future__ import annotations

import numpy as np


def hyperbolic(n: int) -> np.ndarray:
    """y_k for L = v^2 + y^2, alpha = 0, beta = 1: sinh(k theta) / sinh(n theta)
    with theta = 2 asinh(h / 2). The equal arccosh(1 + h^2 / 2) cancels,
    and is off by 4.7e-6 at 10^6 points."""
    h = 1.0 / n
    theta = 2.0 * np.arcsinh(h / 2.0)
    return np.sinh(np.arange(n + 1) * theta) / np.sinh(n * theta)


def trigonometric(n: int, c: float) -> np.ndarray:
    """y_k for L = v^2 - c^2 y^2, alpha = 0, beta = 1: sin(k theta) /
    sin(n theta) with theta = 2 asin(c h / 2). Its Hessian is indefinite
    once c passes pi."""
    h = 1.0 / n
    theta = 2.0 * np.arcsin(c * h / 2.0)
    return np.sin(np.arange(n + 1) * theta) / np.sin(n * theta)


def bump(n: int) -> tuple[np.ndarray, float]:
    """(y_k, lambda) for L = v^2 with the constraint G = y, K = 1/6, u = w = 1
    and alpha = beta = 0: y_k = t_k (1 - t_k) / (1 - h^2) and
    lambda = 4 / (1 - h^2), in the library's multiplier convention."""
    h = 1.0 / n
    t = np.arange(n + 1) / n
    return t * (1.0 - t) / (1.0 - h * h), 4.0 / (1.0 - h * h)
