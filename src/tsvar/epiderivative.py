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
from .timescale import first_nonfinite, readonly_array, require_finite

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
        # checked as arrays, kept as tuples: the scalar queries bisect and
        # index Python floats faster than numpy scalars
        pts = readonly_array(self.breakpoints)
        vals = readonly_array(self.values)
        object.__setattr__(self, "breakpoints", tuple(pts.tolist()))
        object.__setattr__(self, "values", tuple(vals.tolist()))
        if pts.size < 2:
            raise ParameterError("a piecewise-linear function needs at least two breakpoints")
        if vals.size != pts.size:
            raise ParameterError("breakpoints and values must have equal length")
        if not (pts[:-1] < pts[1:]).all():  # also rejects nan; infinities pass
            raise ParameterError("breakpoints must be strictly increasing")
        bad = first_nonfinite(vals)
        if bad is not None:
            raise ParameterError(f"values must be finite, got {bad!r}")

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

    def _piece(self, t: float, u: float) -> tuple[int, float, float] | None:
        """The piece u != 0 moves along from t, or None when u leaves [a, b]
        at once: its index i (breakpoints i, i + 1), and the distances from t
        to its far end and to the end of [a, b] that u points to."""
        bp = self.breakpoints
        if u > 0:
            if t == self.b:
                return None
            i = bisect_right(bp, t) - 1
            return i, bp[i + 1] - t, self.b - t
        if t == self.a:
            return None
        i = bisect_left(bp, t) - 1
        return i, t - bp[i], t - self.a

    def slope_right(self, t: float) -> float | None:
        """Slope of the piece on [t, next breakpoint); None at t == b."""
        self._check_domain(t)
        piece = self._piece(t, 1.0)
        return None if piece is None else self._slope(piece[0])

    def slope_left(self, t: float) -> float | None:
        """Slope of the piece ending at t; None at t == a."""
        self._check_domain(t)
        piece = self._piece(t, -1.0)
        return None if piece is None else self._slope(piece[0])


def extend(f: GridFunction) -> PLFunction:
    """Piecewise-linear extension of sampled values: chords across every gap."""
    return PLFunction(f.grid.points, f.values)


def epiderivative_closed(fbar: PLFunction, t: float, u: float) -> float:
    """Contingent epiderivative of a piecewise-linear function, in closed form.

    Returns u times the one-sided slope in the direction of u; +inf when the
    direction immediately leaves [a, b] (the empty-value convention), and 0
    for u == 0.
    """
    require_finite(("direction u", u))
    fbar._check_domain(t)
    if u == 0:
        return 0.0
    piece = fbar._piece(t, u)
    return math.inf if piece is None else u * fbar._slope(piece[0])


def epiderivative_liminf(fbar: PLFunction, t: float, u: float,
                         h0: float, k_max: int) -> float:
    """Difference-quotient estimate of the contingent epiderivative.

    Evaluates (f(t + h_k u) - f(t)) / h_k at h_k = h0 * 2^-k for k = 0..k_max,
    skipping steps that leave [a, b], and returns the final quotient. For a
    piecewise-linear function the quotient is exact once h_k |u| is smaller
    than the distance from t to the nearest breakpoint in the direction of
    u, so the halving stops there: smaller steps only lose digits to the
    float resolution of f(t). A step that does not move t ends the halving,
    and raises ParameterError when no step before it stayed in [a, b].
    Reports +inf when the direction leaves [a, b] at once or every step does.
    """
    require_finite(("direction u", u))
    if not 0 < h0 < math.inf:
        raise ParameterError(f"h0 must be positive and finite, got {h0!r}")
    if k_max < 0:
        raise ParameterError(f"k_max must be nonnegative, got {k_max!r}")
    fbar._check_domain(t)
    piece = None if u == 0 else fbar._piece(t, u)
    if piece is None:
        return 0.0 if u == 0 else math.inf
    _, gap, _ = piece
    ft = fbar.eval(t)
    quotient: float | None = None
    for k in range(k_max + 1):
        h = h0 * 2.0 ** (-k)
        s = t + h * u
        if s == t:  # also once h underflows to 0
            if quotient is None:
                raise ParameterError(f"h0 = {h0!r} gives no step that moves t = {t!r} in the "
                                     f"direction u = {u!r} within [{fbar.a!r}, {fbar.b!r}]")
            break
        if s < fbar.a or s > fbar.b:
            continue
        quotient = (fbar.eval(s) - ft) / h
        if h * abs(u) < gap:
            break
    return math.inf if quotient is None else quotient


def liminf_params(fbar: PLFunction, t: float, u: float,
                  h0: float | None = None) -> tuple[float, int]:
    """Step parameters (h0, k_max) that make the final quotient exact.

    h0 defaults to just under the largest admissible step, or the largest
    float when a tiny u makes that overflow; k_max shrinks it until the step
    clears the nearest breakpoint in the direction of u. When no step is
    admissible the estimator will report +inf regardless, and (1.0, 0) is returned.
    A default h0 that cannot move t raises ParameterError: no step can.
    """
    require_finite(("direction u", u))
    fbar._check_domain(t)
    piece = None if u == 0 else fbar._piece(t, u)
    if piece is None:
        return (h0 if h0 is not None else 1.0), 0
    _, gap, span = piece
    if h0 is None:
        h0 = min(0.9 * span / abs(u), math.nextafter(math.inf, 0.0))
        if t + h0 * u == t:
            raise ParameterError(f"direction u = {u!r} is too small to move t = {t!r} "
                                 f"within [{fbar.a!r}, {fbar.b!r}]")
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
        if not (u > 0 or u < 0):  # u == 0, or nan: no side to move along
            return v >= 0.0
        s = self.slope_right if u > 0 else self.slope_left
        return math.isfinite(s) and v >= s * u


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
