"""Reference computations made apart from tsvar, used to check its outputs.

Everything here follows the conventions in the top-level README (direction
scaling, rectangle sums, stationarity residual, discretization rule) and
uses numpy with hand-written partial derivatives for the benchmark's fixed
integrands. Nothing here imports tsvar.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- integrands with hand-written partials ---------------------------------------

@dataclass(frozen=True)
class Integrand:
    """L(t, y, v) in one of the benchmark's families.

    kind "quad": a*v^2 + b*y^2 + c*t*y; "sqrtexp": sqrt(1+v^2)*exp(y/4);
    "y": y (the isoperimetric constraint).
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    c: float = 0.0

    @property
    def text(self) -> str:
        if self.kind == "quad":
            parts = ["v^2" if self.a == 1.0 else f"{self.a!r}*v^2"]
            if self.b:
                parts.append(f"{self.b!r}*y^2")
            if self.c:
                parts.append(f"{self.c!r}*t*y")
            return " + ".join(parts)
        return {"sqrtexp": "sqrt(1+v^2)*exp(y/4)", "y": "y"}[self.kind]

    def L(self, t, y, v):
        if self.kind == "quad":
            return self.a * v * v + self.b * y * y + self.c * t * y
        if self.kind == "sqrtexp":
            return np.sqrt(1.0 + v * v) * np.exp(y / 4.0)
        return y

    def Ly(self, t, y, v):
        if self.kind == "quad":
            return 2.0 * self.b * y + self.c * t
        if self.kind == "sqrtexp":
            return np.sqrt(1.0 + v * v) * np.exp(y / 4.0) / 4.0
        return np.ones_like(y)

    def Lv(self, t, y, v):
        if self.kind == "quad":
            return 2.0 * self.a * v
        if self.kind == "sqrtexp":
            return v / np.sqrt(1.0 + v * v) * np.exp(y / 4.0)
        return np.zeros_like(v)


V2 = Integrand("quad", 1.0)


# -- time scales and their discretization -----------------------------------------

def scale_lines(segments) -> list[str]:
    return [f"interval {l!r} {r!r}" if l < r else f"points {l!r}"
            for l, r in segments]


def scale_literal(segments) -> str:
    return "; ".join(scale_lines(segments))


def interval_steps(span: float, h: float) -> int:
    """Step count of one interval, by the README's discretization rule."""
    ratio = span / h
    n = math.ceil(ratio)
    if n > 1 and (n - 1) >= ratio * (1.0 - 1e-12):
        n -= 1
    return n


def discretize(segments, h: float) -> np.ndarray:
    parts = []
    for l, r in segments:
        if l == r:
            parts.append(np.array([l]))
            continue
        n = interval_steps(r - l, h)
        parts.append(np.concatenate(([l], l + (r - l) * (np.arange(1, n) / n), [r])))
    return np.concatenate(parts)


# -- the direction-scaled functional and its stationarity condition ---------------

def pack(u: float, ts: np.ndarray, ys: np.ndarray):
    """Base points, scaled y and v slots and step weights of every term.

    ys may carry leading batch axes; the grid is the last axis.
    """
    w = np.diff(ts)
    slope = np.diff(ys, axis=-1) / w
    if u > 0:
        return ts[:-1], u * ys[..., 1:], u * slope, w
    return ts[1:], u * ys[..., :-1], u * slope, w


def functional(f: Integrand, u: float, ts, ys):
    tA, Y, V, w = pack(u, ts, ys)
    return u * np.sum(f.L(tA, Y, V) * w, axis=-1)


def functional_terms_abs(f: Integrand, u: float, ts, ys) -> float:
    """Sum of the absolute terms: the scale for comparing functional values."""
    tA, Y, V, w = pack(u, ts, ys)
    return float(abs(u) * np.sum(np.abs(f.L(tA, Y, V) * w)))


def gradient(f: Integrand, u: float, ts, ys):
    """d functional / d y_j at the interior grid indices 1..N-2."""
    tA, Y, V, w = pack(u, ts, ys)
    Ly, Lv = f.Ly(tA, Y, V), f.Lv(tA, Y, V)
    if u > 0:
        return u * u * (w[:-1] * Ly[..., :-1] + Lv[..., :-1] - Lv[..., 1:])
    return u * u * (w[1:] * Ly[..., 1:] - Lv[..., 1:] + Lv[..., :-1])


def residual(f: Integrand, u: float, ts, ys) -> np.ndarray:
    """Stationarity residual aligned to the grid, nan where not computable.

    u > 0: u*(g_delta - dL/dy) at grid indices 0..N-3;
    u < 0: u*(g_nabla - dL/dy) at grid indices 2..N-1.
    """
    tA, Y, V, w = pack(u, ts, ys)
    Ly, g = f.Ly(tA, Y, V), f.Lv(tA, Y, V)
    out = np.full(ts.shape, np.nan)
    if u > 0:
        out[:-2] = u * ((g[1:] - g[:-1]) / w[:-1] - Ly[:-1])
    else:
        out[2:] = u * ((g[1:] - g[:-1]) / w[1:] - Ly[1:])
    return out


def interior(res: np.ndarray) -> np.ndarray:
    """Values on the doubly truncated interior, grid indices 2..N-3."""
    return res[2:-2]


# -- linear solves of the discrete Euler-Lagrange system ---------------------------

def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Tridiagonal solve; lower[0] and upper[-1] are ignored."""
    n = len(diag)
    c = [0.0] * n
    d = [0.0] * n
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / den
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / den
    x = [0.0] * n
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return np.array(x)


def banded_el_solve(f: Integrand, u: float, ts, alpha: float, beta: float) -> np.ndarray:
    """Stationary trajectory of a quadratic integrand by one tridiagonal solve.

    The gradient is affine in the interior values and couples only
    neighbours, so three probes (every third unknown perturbed) recover the
    three bands exactly.
    """
    n = len(ts)
    m = n - 2
    base = np.zeros(n)
    base[0], base[-1] = alpha, beta
    r = gradient(f, u, ts, base)
    idx = np.arange(m)
    cols = np.zeros((3, n))
    for color in range(3):
        cols[color, 1 + idx[idx % 3 == color]] = 1.0
    D = gradient(f, u, ts, base + cols) - r
    diag = D[idx % 3, idx]
    lower = np.zeros(m)
    upper = np.zeros(m)
    lower[1:] = D[(idx[1:] - 1) % 3, idx[1:]]
    upper[:-1] = D[(idx[:-1] + 1) % 3, idx[:-1]]
    y = base.copy()
    y[1:-1] = thomas(lower, diag, upper, -r)
    return y


def brute_el_solve(f: Integrand, u: float, ts, alpha: float, beta: float) -> np.ndarray:
    """Stationary trajectory of a quadratic integrand by a dense solve.

    The quadratic form is recovered from functional values alone by
    polarization, without assuming any band structure.
    """
    n = len(ts)
    m = n - 2
    e = np.zeros((m, n))
    e[np.arange(m), 1 + np.arange(m)] = 1.0
    base = np.zeros(n)
    base[0], base[-1] = alpha, beta
    J = lambda ys: functional(f, u, ts, base + ys)  # noqa: E731
    f0 = J(np.zeros(n))
    f1 = J(e)
    f2 = J(2.0 * e)
    pairs = J(e[:, None, :] + e[None, :, :])
    Q = pairs - f1[:, None] - f1[None, :] + f0
    Q[np.arange(m), np.arange(m)] = f2 - 2.0 * f1 + f0
    c = f1 - f0 - np.diag(Q) / 2.0
    y = base.copy()
    y[1:-1] = np.linalg.solve(Q, -c)
    return y


# -- calculus on samples -----------------------------------------------------------

def left_rect_poly(segments, h: float, coef) -> float:
    """Closed form of the left-rectangle sum of c0 + c1*t + c2*t^2 over the
    discretized scale: power sums per interval plus one term per gap."""
    c0, c1, c2 = coef
    f = lambda t: c0 + c1 * t + c2 * t * t  # noqa: E731
    total = 0.0
    for k, (l, r) in enumerate(segments):
        if l < r:
            n = interval_steps(r - l, h)
            s = (r - l) / n
            # sum_{k<n} f(l + k s) s with f expanded around l
            a0, a1, a2 = f(l), c1 + 2.0 * c2 * l, c2
            total += s * (n * a0 + a1 * s * n * (n - 1) / 2.0
                          + a2 * s * s * (n - 1) * n * (2 * n - 1) / 6.0)
        if k + 1 < len(segments):
            total += f(r) * (segments[k + 1][0] - r)
    return total


def chord_slope(ts: np.ndarray, vs: np.ndarray, t: float, u: float) -> float:
    """Slope of the piece of the piecewise-linear extension that t + s*u,
    s > 0 small, lies on."""
    if u > 0:
        i = int(np.searchsorted(ts, t, side="right")) - 1
    else:
        i = int(np.searchsorted(ts, t, side="left")) - 1
    return float((vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i]))


# -- CSV text ------------------------------------------------------------------------

def _header(path, header: str) -> None:
    with open(path) as fh:
        expect(fh.readline() == header + "\n", f"CSV header is not {header!r}")


def _loadtxt(path, **kw) -> np.ndarray:
    # numpy reads the file in chunks: checking a large output adds little
    # to the process's peak memory
    try:
        return np.loadtxt(path, delimiter=",", **kw)
    except ValueError as exc:
        raise CheckFailed(f"malformed CSV: {exc}") from None


def read_csv(path, header: str) -> np.ndarray:
    """Parse a CSV file with a known header and no empty cells, one row per line."""
    _header(path, header)
    data = _loadtxt(path, skiprows=1, ndmin=2)
    expect(data.shape[1] == header.count(",") + 1, "CSV with the wrong number of fields")
    return data


def read_residual_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse `t,residual` output: the residual must be empty on the first
    two and the last two rows, outside the doubly truncated interior."""
    _header(path, "t,residual")
    with open(path) as fh:
        fh.readline()
        head = [fh.readline(), fh.readline()]
        tail = list(deque(fh, maxlen=2))
    expect(all(ln.endswith(",\n") for ln in head + tail),
           "residual CSV: filled outside the doubly truncated interior")
    t = _loadtxt(path, skiprows=1, usecols=0)
    r = np.full(t.shape, np.nan)
    r[2:-2] = _loadtxt(path, skiprows=3, max_rows=len(t) - 4, usecols=1)
    return t, r


def close(a, b, rtol: float, scale: float = 0.0) -> bool:
    """|a - b| <= rtol * max(scale, max|b|), elementwise, shapes equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    ref = max(scale, float(np.max(np.abs(b))) if b.size else 0.0, 1e-300)
    return bool(np.all(np.abs(a - b) <= rtol * ref))
