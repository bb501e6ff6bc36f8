"""Shared oracles and strategies for the test suite."""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import tsvar
from tsvar import PLFunction, Segment, TimeScale, timescale
from tsvar.errors import DomainError, InputFormatError, ParameterError

EXPRESSION_SUITE = [
    "v^2",
    "t*y",
    "sin(t)*v",
    "cos(t*y)",
    "exp(y/2)",
    "t^3 - 2*t*y + v^2/2",
    "sqrt(1 + v^2)",
    "log(3 + y)",
    "y/(1 + t^2)",
    "exp(-(t^2)) * sin(y) + cos(v)",
]


def probe_points(scale: TimeScale, per_segment: int = 97) -> list[float]:
    """Dense probe sample of a scale, always containing every endpoint."""
    pts: set[float] = set()
    for seg in scale.segments:
        pts.add(seg.left)
        pts.add(seg.right)
        if not seg.is_point:
            for k in range(1, per_segment):
                pts.add(seg.left + (seg.right - seg.left) * k / per_segment)
    return sorted(pts)


def sigma_oracle(probe: list[float], t: float) -> float:
    """Nearest probe point strictly after t (resolution-limited oracle)."""
    later = [p for p in probe if p > t]
    return min(later) if later else t


def rho_oracle(probe: list[float], t: float) -> float:
    earlier = [p for p in probe if p < t]
    return max(earlier) if earlier else t


def random_increasing(rng: random.Random, n: int, start_lo: float = -2.0,
                      start_hi: float = 0.0, gap_lo: float = 0.2,
                      gap_hi: float = 1.0) -> list[float]:
    """n strictly increasing points with bounded gaps."""
    x = rng.uniform(start_lo, start_hi)
    pts = [x]
    for _ in range(n - 1):
        x += rng.uniform(gap_lo, gap_hi)
        pts.append(x)
    return pts


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import the same tsvar
    as the tests, also when pytest alone put `src` on the path."""
    src = str(Path(tsvar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def dense_tridiagonal(diag, off) -> np.ndarray:
    """Dense symmetric matrix from its diagonal and off-diagonal bands; the
    reference the banded Newton step is checked against."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def central_diff(fn, x: float, h: float = 1e-5) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def random_pl(rng: random.Random, max_breakpoints: int = 10) -> PLFunction:
    """Random piecewise-linear function with well-separated breakpoints."""
    n = rng.randint(2, max_breakpoints)
    bps = random_increasing(rng, n, start_lo=0.0, start_hi=0.1,
                            gap_lo=0.05, gap_hi=0.4)
    vals = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    return PLFunction(tuple(bps), tuple(vals))


@st.composite
def scales(draw, max_segments: int = 4) -> TimeScale:
    """Random bounded scales mixing intervals and isolated points."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    x = draw(st.floats(min_value=-5.0, max_value=5.0))
    segments: list[Segment] = []
    for _ in range(n):
        if draw(st.booleans()):
            segments.append(Segment(x, x))
        else:
            length = draw(st.floats(min_value=0.25, max_value=2.0))
            segments.append(Segment(x, x + length))
            x += length
        x += draw(st.floats(min_value=0.25, max_value=2.0))
    if len(segments) == 1 and segments[0].is_point:
        segments.append(Segment(x, x))
    return TimeScale(tuple(segments))


@st.composite
def discrete_scales(draw, min_points: int = 3, max_points: int = 8) -> TimeScale:
    """Purely discrete scales with well-separated points."""
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    x = draw(st.floats(min_value=-3.0, max_value=0.0))
    pts = [x]
    for _ in range(n - 1):
        x += draw(st.floats(min_value=0.2, max_value=1.5))
        pts.append(x)
    return TimeScale.of_points(*pts)


@st.composite
def grid_values(draw, n: int) -> tuple[float, ...]:
    return tuple(draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n)))


# -- the per-point loops the array-backed data path replaced ----------------------

def reference_discretize(scale: TimeScale, h: float) -> tuple[list[float], list[bool]]:
    """Points and flags of scale.discretize(h), built one point at a time."""
    pts: list[float] = []
    flags: list[bool] = []
    for seg in scale.segments:
        pts.append(seg.left)
        flags.append(False)
        if seg.is_point:
            continue
        n = timescale._step_count(seg.right - seg.left, h)
        span = seg.right - seg.left
        for k in range(1, n):
            pts.append(seg.left + span * (k / n))
            flags.append(True)
        pts.append(seg.right)
        flags.append(False)
    return pts, flags


def reference_read_grid_csv(stream, scale: TimeScale | None = None
                            ) -> tuple[list[float], list[bool], list[float]]:
    """Points, flags and values of read_grid_csv(stream, scale), read line by
    line and checked point by point; raises the same errors."""
    lines = iter(enumerate(stream, start=1))
    try:
        _, header = next(lines)
    except StopIteration:
        raise InputFormatError("empty CSV: expected a `t,value` header", line=1) from None
    if header.strip() != "t,value":
        raise InputFormatError(
            f"bad CSV header {header.strip()!r}: expected 't,value'", line=1)
    points: list[float] = []
    values: list[float] = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise InputFormatError(
                f"line {lineno}: expected two comma-separated fields", line=lineno)
        try:
            points.append(float(cells[0]))
            values.append(float(cells[1]))
        except ValueError:
            raise InputFormatError(
                f"line {lineno}: not a number in {line!r}", line=lineno) from None
    if not points:
        raise InputFormatError("CSV contains a header but no rows")
    if scale is None:
        flags = [False] * len(points)
    else:
        present = set(points)
        for seg in scale.segments:
            if seg.left not in present or seg.right not in present:
                raise DomainError(
                    f"grid must contain every segment endpoint; "
                    f"[{seg.left}, {seg.right}] is not fully represented")
        flags = []
        for p in points:
            i = scale._segment_index(p)
            if i is None:
                raise DomainError(f"grid point {p!r} does not belong to the time scale")
            seg = scale.segments[i]
            flags.append(seg.left < p < seg.right)
    for p in points:
        if not math.isfinite(p):
            raise ParameterError(f"grid points must be finite, got {p!r}")
    for p, q in zip(points, points[1:]):
        if not p < q:
            raise ParameterError("grid points must be strictly increasing")
    for v in values:
        if not math.isfinite(v):
            raise ParameterError(f"grid values must be finite, got {v!r}")
    return points, flags, values


# -- the per-call Newton loop that iterate records replaced -----------------------

def reference_solve(problem, tol: float = 1e-10, max_iter: int = 100):
    """solve with one call per figure: every gradient, Hessian, residual and
    functional value packs and evaluates its own arguments in a fresh
    record."""
    from tsvar import GridFunction, Solution
    from tsvar.variational import (
        _affine_start, _backtrack, _interior, _interior_max, _Iterate, _moved,
        _prepared_grid, _solve_tridiagonal)

    grid, ts = _prepared_grid(problem)
    lag, u = problem.L, problem.u
    ys = _affine_start(problem, ts)

    def trial(alpha):
        z = _moved(ys, step, alpha)
        return z, _Iterate(lag, u, ts, z).grad(checked=False)

    g = _Iterate(lag, u, ts, ys).grad()
    iterations = 0
    while float(np.max(np.abs(g))) > tol:
        assert iterations < max_iter
        [step] = _solve_tridiagonal(*_Iterate(lag, u, ts, ys).hess(), -g)
        assert np.all(np.isfinite(step))
        ys, g = _backtrack(trial, g, tol, ys)
        iterations += 1
    res = _interior(u, _Iterate(lag, u, ts, ys).residual())
    return Solution(
        y=GridFunction(grid, ys),
        functional_value=_Iterate(lag, u, ts, ys).functional(),
        residual_max=_interior_max(res),
        iterations=iterations,
    )


def reference_solve_iso(iso, tol: float = 1e-10, max_iter: int = 100):
    """solve_iso with one call per figure, as reference_solve."""
    from tsvar import GridFunction, Solution
    from tsvar.variational import (
        _affine_start, _backtrack, _bordered_step, _interior, _interior_max,
        _Iterate, _moved, _prepared_grid)

    grid, ts = _prepared_grid(iso)
    u, w = iso.u, iso.w
    ys = _affine_start(iso, ts)
    lam_g = 0.0

    def system(z, lam_val, checked):
        gl = _Iterate(iso.L, u, ts, z).grad(checked)
        gg = _Iterate(iso.G, w, ts, z).grad(checked)
        cons = _Iterate(iso.G, w, ts, z).functional(checked) - iso.K
        return np.concatenate([gl - lam_val * gg, [cons]])

    def trial(alpha):
        z = _moved(ys, step, alpha)
        lam_try = lam_g + alpha * dlam
        return (z, lam_try), system(z, lam_try, checked=False)

    phi = system(ys, lam_g, checked=True)
    iterations = 0
    while float(np.max(np.abs(phi))) > tol:
        assert iterations < max_iter
        gg = _Iterate(iso.G, w, ts, ys).grad()
        diag_l, off_l = _Iterate(iso.L, u, ts, ys).hess()
        diag_g, off_g = _Iterate(iso.G, w, ts, ys).hess()
        step, dlam = _bordered_step(diag_l - lam_g * diag_g,
                                    off_l - lam_g * off_g, gg, phi)
        (ys, lam_g), phi = _backtrack(trial, phi, tol, ys)
        iterations += 1
    res_g = _interior(w, _Iterate(iso.G, w, ts, ys).residual())
    if _interior_max(res_g) <= tol:
        lam0, lam_out, normal = 0.0, 1.0, False
    else:
        lam0, lam_out, normal = 1.0, lam_g * w / u, True
    res = (lam0 * _interior(u, _Iterate(iso.L, u, ts, ys).residual())
           - lam_out * _interior(w, _Iterate(iso.G, w, ts, ys).residual()))
    return Solution(
        y=GridFunction(grid, ys),
        functional_value=_Iterate(iso.L, u, ts, ys).functional(),
        residual_max=_interior_max(res),
        iterations=iterations,
        lam=lam_out,
        lam0=lam0,
        normal_flag=normal,
    )
