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
    as the tests, also when pytest alone put `src` on the path, and that
    turns every warning into an error, as the test settings do."""
    src = str(Path(tsvar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
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


# -- the per-call figures that iterate records replaced -----------------------------

def reference_solve(problem, tol: float = 1e-10, max_iter: int = 100):
    """solve with one call per figure: _newton drives the iteration with the
    bare trajectory as its record, and every gradient, Hessian, residual and
    functional value packs and evaluates its own arguments in a fresh
    record."""
    from tsvar import GridFunction, Solution
    from tsvar.banded import solve_tridiagonal
    from tsvar.variational import _interior_max, _Iterate, _newton

    lag, u = problem.L, problem.u
    ts = problem.discretized().points

    def system(ts, z, lam, checked):
        return z, _Iterate(lag, u, ts, z).grad(checked)

    def step(z, g, lam):
        return solve_tridiagonal(*_Iterate(lag, u, ts, z).hess(), -g), 0.0

    ys, _, _, iterations = _newton(problem, tol, max_iter, system, step,
                                   "stationarity")
    res = _Iterate(lag, u, ts, ys).interior()
    return Solution(
        y=GridFunction(problem.discretized(), ys),
        functional_value=_Iterate(lag, u, ts, ys).functional(),
        residual_max=_interior_max(res),
        iterations=iterations,
    )


def reference_solve_iso(iso, tol: float = 1e-10, max_iter: int = 100):
    """solve_iso with one call per figure, as reference_solve."""
    from tsvar import GridFunction, Solution
    from tsvar.banded import bordered_step
    from tsvar.variational import _interior_max, _Iterate, _newton

    u, w = iso.u, iso.w
    ts = iso.discretized().points

    def system(ts, z, lam, checked):
        gl = _Iterate(iso.L, u, ts, z).grad(checked)
        gg = _Iterate(iso.G, w, ts, z).grad(checked)
        cons = _Iterate(iso.G, w, ts, z).functional(checked) - iso.K
        return z, np.concatenate([gl - lam * gg, [cons]])

    def step(z, phi, lam):
        gg = _Iterate(iso.G, w, ts, z).grad()
        diag_l, off_l = _Iterate(iso.L, u, ts, z).hess()
        diag_g, off_g = _Iterate(iso.G, w, ts, z).hess()
        return bordered_step(diag_l - lam * diag_g, off_l - lam * off_g, gg, phi)

    ys, lam_g, _, iterations = _newton(iso, tol, max_iter, system, step, "system")
    res_g = _Iterate(iso.G, w, ts, ys).interior()
    if _interior_max(res_g) <= tol:
        lam0, lam_out, normal = 0.0, 1.0, False
    else:
        lam0, lam_out, normal = 1.0, lam_g * w / u, True
    res = (lam0 * _Iterate(iso.L, u, ts, ys).interior()
           - lam_out * _Iterate(iso.G, w, ts, ys).interior())
    return Solution(
        y=GridFunction(iso.discretized(), ys),
        functional_value=_Iterate(iso.L, u, ts, ys).functional(),
        residual_max=_interior_max(res),
        iterations=iterations,
        lam=lam_out,
        lam0=lam0,
        normal_flag=normal,
    )
