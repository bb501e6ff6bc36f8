"""Piecewise-linear epigraph extensions and contingent epiderivatives.

A sampled scale function extends to a continuous piecewise-linear function
on [a, b] whose epigraph is the chord-convexified epigraph of the samples:
on each gap the graph is the chord between the neighbouring sample points.
Contingent epiderivatives of such extensions are one-sided slopes, and the
limit-of-quotients characterization provides an independent estimator.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .calculus import GridFunction
from .errors import DomainError, ParameterError, PointNotInSetError

__all__ = [
    "PLFunction",
    "EpiCone",
    "extend",
    "epiderivative_closed",
    "epiderivative_liminf",
    "liminf_params",
    "contingent_cone_epi",
]


@dataclass(frozen=True)
class PLFunction:
    """Continuous piecewise-linear function given by breakpoints and values."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints",
                           tuple(float(p) for p in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.breakpoints) < 2:
            raise ParameterError("a piecewise-linear function needs at least two breakpoints")
        if len(self.values) != len(self.breakpoints):
            raise ParameterError("breakpoints and values must have equal length")
        for p, q in zip(self.breakpoints, self.breakpoints[1:]):
            if not p < q:
                raise ParameterError("breakpoints must be strictly increasing")
        for v in self.values:
            if not math.isfinite(v):
                raise ParameterError(f"values must be finite, got {v!r}")

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    def _check_domain(self, t: float) -> None:
        if not self.a <= t <= self.b:  # also rejects nan
            raise DomainError(f"t={t!r} lies outside [{self.a}, {self.b}]")

    def _slope(self, i: int) -> float:
        return ((self.values[i + 1] - self.values[i])
                / (self.breakpoints[i + 1] - self.breakpoints[i]))

    def eval(self, t: float) -> float:
        """Piecewise-affine value; exact at breakpoints."""
        self._check_domain(t)
        i = bisect_right(self.breakpoints, t) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        if self.breakpoints[i] == t:
            return self.values[i]
        return self.values[i] + self._slope(i) * (t - self.breakpoints[i])

    def slope_right(self, t: float) -> float | None:
        """Slope of the piece on [t, next breakpoint); None at t == b."""
        self._check_domain(t)
        if t == self.b:
            return None
        return self._slope(bisect_right(self.breakpoints, t) - 1)

    def slope_left(self, t: float) -> float | None:
        """Slope of the piece ending at t; None at t == a."""
        self._check_domain(t)
        if t == self.a:
            return None
        return self._slope(bisect_left(self.breakpoints, t) - 1)


def _check_direction(u: float) -> None:
    if not math.isfinite(u):
        raise ParameterError(f"direction u must be finite, got {u!r}")


def extend(f: GridFunction) -> PLFunction:
    """Piecewise-linear extension of sampled values: chords across every gap."""
    return PLFunction(f.grid.points, f.values)


def epiderivative_closed(fbar: PLFunction, t: float, u: float) -> float:
    """Contingent epiderivative of a piecewise-linear function, in closed form.

    Returns u times the one-sided slope in the direction of u; +inf when the
    direction immediately leaves [a, b] (the empty-value convention), and 0
    for u == 0.
    """
    _check_direction(u)
    fbar._check_domain(t)
    if u == 0:
        return 0.0
    s = fbar.slope_right(t) if u > 0 else fbar.slope_left(t)
    if s is None:
        return math.inf
    return u * s


def epiderivative_liminf(fbar: PLFunction, t: float, u: float,
                         h0: float, k_max: int) -> float:
    """Difference-quotient estimate of the contingent epiderivative.

    Evaluates (f(t + h_k u) - f(t)) / h_k at h_k = h0 * 2^-k for k = 0..k_max,
    skipping steps that leave [a, b], and returns the final quotient. For a
    piecewise-linear function the quotient is exact once h_k |u| is smaller
    than the distance from t to the nearest breakpoint in the direction of
    u, so the halving stops there: smaller steps only lose digits to the
    float resolution of f(t), and eventually divide by a zero step. Reports
    +inf when every step leaves the domain.
    """
    _check_direction(u)
    if not h0 > 0:
        raise ParameterError(f"h0 must be positive, got {h0!r}")
    if k_max < 0:
        raise ParameterError(f"k_max must be nonnegative, got {k_max!r}")
    fbar._check_domain(t)
    if u == 0:
        return 0.0
    ft = fbar.eval(t)
    gap = _first_piece_gap(fbar, t, u)
    quotient: float | None = None
    for k in range(k_max + 1):
        h = h0 * 2.0 ** (-k)
        if h == 0.0:
            break
        s = t + h * u
        if s < fbar.a or s > fbar.b:
            continue
        quotient = (fbar.eval(s) - ft) / h
        if h * abs(u) < gap:
            break
    if quotient is None:
        return math.inf
    return quotient


def _first_piece_gap(fbar: PLFunction, t: float, u: float) -> float:
    """Distance from t to the nearest breakpoint in the direction of u; 0
    when that direction leaves [a, b] at once."""
    if u > 0:
        return 0.0 if t == fbar.b else (
            fbar.breakpoints[bisect_right(fbar.breakpoints, t)] - t)
    return 0.0 if t == fbar.a else (
        t - fbar.breakpoints[bisect_left(fbar.breakpoints, t) - 1])


def liminf_params(fbar: PLFunction, t: float, u: float,
                  h0: float | None = None) -> tuple[float, int]:
    """Step parameters (h0, k_max) that make the final quotient exact.

    h0 defaults to just under the largest admissible step; k_max shrinks it
    until the step clears the nearest breakpoint in the direction of u.
    When no step is admissible the estimator will report +inf regardless,
    and (1.0, 0) is returned.
    """
    _check_direction(u)
    fbar._check_domain(t)
    if u == 0:
        return (h0 if h0 is not None else 1.0), 0
    span = (fbar.b - t) if u > 0 else (t - fbar.a)
    if span <= 0:
        return (h0 if h0 is not None else 1.0), 0
    if h0 is None:
        h0 = 0.9 * span / abs(u)
    gap = _first_piece_gap(fbar, t, u)
    k = 0
    while h0 * 2.0 ** (-k) * abs(u) >= gap and k < 200:
        k += 1
    return h0, k


@dataclass(frozen=True)
class EpiCone:
    """Contingent cone to the epigraph of a piecewise-linear function.

    At a graph point the cone is bounded below by the one-sided slopes;
    a missing direction at the domain boundary is encoded as an infinite
    slope. Strictly above the graph the cone is the whole plane.
    """

    t: float
    level: float
    slope_left: float
    slope_right: float
    interior: bool

    def contains(self, u: float, v: float) -> bool:
        if self.interior:
            return True
        if u > 0:
            return math.isfinite(self.slope_right) and v >= self.slope_right * u
        if u < 0:
            return math.isfinite(self.slope_left) and v >= self.slope_left * u
        return v >= 0.0


def contingent_cone_epi(fbar: PLFunction, t: float, level: float) -> EpiCone:
    """Contingent cone to the epigraph at the point (t, level)."""
    ft = fbar.eval(t)
    if level < ft:
        raise PointNotInSetError(
            f"({t!r}, {level!r}) lies below the graph (f(t)={ft!r})")
    sl = fbar.slope_left(t)
    sr = fbar.slope_right(t)
    return EpiCone(
        t=t,
        level=level,
        slope_left=math.inf if sl is None else sl,
        slope_right=math.inf if sr is None else sr,
        interior=level > ft,
    )
