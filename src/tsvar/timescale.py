"""Bounded time scales: finite unions of closed intervals and isolated points.

A scale owns the jump operators sigma/rho, the graininess functions mu/nu,
point classification, the kappa truncations and grid discretization. All
endpoint comparisons are exact float comparisons; scattered structure is
never blurred by tolerances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateScaleError,
    DomainError,
    InputFormatError,
    ParameterError,
)

__all__ = [
    "Segment",
    "PointClass",
    "TimeScale",
    "SampleGrid",
    "MAX_GRID_POINTS",
    "grid_from_points",
    "parse_timescale",
]

# A grid is a float64 array of points and a bool array of flags, about 9 bytes
# a point, so 10^7 points take some 90 MB, and a solve holds several arrays of
# that size. discretize counts the points of a grid before it builds any of
# them and refuses a grid larger than this.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class Segment:
    """Closed interval [left, right]; left == right is an isolated point."""

    left: float
    right: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "right", float(self.right))
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise ParameterError(
                f"segment endpoints must be finite, got [{self.left}, {self.right}]")
        if self.left > self.right:
            raise ParameterError(
                f"segment endpoints out of order: [{self.left}, {self.right}]")

    @property
    def is_point(self) -> bool:
        return self.left == self.right


@dataclass(frozen=True)
class PointClass:
    """Scatteredness of a point on each side; dense/isolated are derived."""

    right_scattered: bool
    left_scattered: bool

    @property
    def right_dense(self) -> bool:
        return not self.right_scattered

    @property
    def left_dense(self) -> bool:
        return not self.left_scattered

    @property
    def isolated(self) -> bool:
        return self.right_scattered and self.left_scattered

    @property
    def dense(self) -> bool:
        return not (self.right_scattered or self.left_scattered)


@dataclass(frozen=True)
class TimeScale:
    """Sorted union of closed segments with strictly positive gaps.

    A single degenerate segment (one isolated point) is allowed so the
    kappa truncations are total; variational problems additionally require
    a < b.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ParameterError("a time scale needs at least one segment")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if not prev.right < cur.left:
                raise ParameterError(
                    "segments must be sorted with positive gaps "
                    "(use TimeScale.from_segments to normalize overlaps)")
        object.__setattr__(self, "_lefts", tuple(s.left for s in self.segments))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_segments(cls, segments: Iterable[Segment]) -> "TimeScale":
        """Normalize an arbitrary collection: sort and merge touching segments."""
        segs = sorted(segments, key=lambda s: (s.left, s.right))
        if not segs:
            raise ParameterError("a time scale needs at least one segment")
        merged: list[Segment] = [segs[0]]
        for seg in segs[1:]:
            last = merged[-1]
            if seg.left <= last.right:
                if seg.right > last.right:
                    merged[-1] = Segment(last.left, seg.right)
            else:
                merged.append(seg)
        return cls(tuple(merged))

    @classmethod
    def interval(cls, left: float, right: float) -> "TimeScale":
        return cls((Segment(left, right),))

    @classmethod
    def of_points(cls, *points: float) -> "TimeScale":
        pts = sorted(set(points))
        if not pts:
            raise ParameterError("a discrete scale needs at least one point")
        return cls(tuple(Segment(p, p) for p in pts))

    # -- basic queries -----------------------------------------------------

    @property
    def a(self) -> float:
        return self.segments[0].left

    @property
    def b(self) -> float:
        return self.segments[-1].right

    def _segment_index(self, t: float) -> int | None:
        i = bisect_right(self._lefts, t) - 1  # type: ignore[attr-defined]
        if i >= 0 and t <= self.segments[i].right:
            return i
        return None

    def contains(self, t: float) -> bool:
        return self._segment_index(t) is not None

    def _locate(self, t: float) -> int:
        i = self._segment_index(t)
        if i is None:
            raise DomainError(f"t={t!r} does not belong to the time scale")
        return i

    # -- jump operators and graininess --------------------------------------

    def sigma(self, t: float) -> float:
        """Forward jump: the nearest point strictly after t, or t at the top."""
        i = self._locate(t)
        seg = self.segments[i]
        if t < seg.right:
            return t
        if i + 1 < len(self.segments):
            return self.segments[i + 1].left
        return t

    def rho(self, t: float) -> float:
        """Backward jump: the nearest point strictly before t, or t at the bottom."""
        i = self._locate(t)
        seg = self.segments[i]
        if t > seg.left:
            return t
        if i > 0:
            return self.segments[i - 1].right
        return t

    def mu(self, t: float) -> float:
        return self.sigma(t) - t

    def nu(self, t: float) -> float:
        return t - self.rho(t)

    def classify(self, t: float) -> PointClass:
        return PointClass(right_scattered=self.sigma(t) > t,
                          left_scattered=self.rho(t) < t)

    # -- kappa truncations ---------------------------------------------------

    def truncate_kappa(self) -> "TimeScale":
        """Drop the maximum when it is left-scattered, else return self."""
        return TimeScale(tuple(_drop_max(list(self.segments))))

    def truncate_kappa_sub(self) -> "TimeScale":
        """Drop the minimum when it is right-scattered, else return self."""
        return TimeScale(tuple(_drop_min(list(self.segments))))

    def interior_kk2(self) -> "TimeScale":
        """Doubly truncated interior: two kappa cuts at the top and the bottom."""
        upper = _drop_max(_drop_max(list(self.segments)))
        lower = _drop_min(_drop_min(list(self.segments)))
        inter = _intersect(upper, lower)
        if not inter:
            raise DegenerateScaleError(
                "doubly truncated interior is empty: the scale has too few points")
        return TimeScale(tuple(inter))

    # -- discretization --------------------------------------------------------

    def discretize(self, h: float) -> "SampleGrid":
        """Sample the scale: keep every endpoint, split intervals into steps <= h.

        An interval of length ell is divided into ceil(ell/h) equal steps;
        when ell/h sits within a relative 1e-12 of an integer the count is
        rounded down so no step degenerates. Subdivision points are flagged
        as approximation points, endpoints are exact. A grid of more than
        MAX_GRID_POINTS points raises ParameterError before it is built.
        """
        if not h > 0:
            raise ParameterError(f"step h must be positive, got {h!r}")
        counts = [0 if seg.is_point else _step_count(seg.right - seg.left, h)
                  for seg in self.segments]
        if len(counts) + sum(counts) > MAX_GRID_POINTS:
            raise ParameterError(
                f"step h={h!r} needs more than {MAX_GRID_POINTS} grid points; "
                "use a larger step")
        pts = np.empty(len(counts) + sum(counts))
        flags = np.zeros(pts.size, dtype=bool)
        i = 0  # index of the segment's left endpoint
        for seg, n in zip(self.segments, counts):
            pts[i] = seg.left
            if seg.is_point:
                i += 1
                continue
            # the same IEEE operations as left + span * (k / n), point by point
            pts[i + 1:i + n] = seg.left + (seg.right - seg.left) * (np.arange(1, n) / n)
            flags[i + 1:i + n] = True
            pts[i + n] = seg.right
            i += n + 1
        return SampleGrid(pts, flags)


def _step_count(span: float, h: float) -> int:
    """Steps of an interval of length span: ceil(span/h), one fewer when
    span/h sits within a relative 1e-12 of an integer."""
    # a ratio past the budget is cut to just past it: the grid stays over
    # the budget, and ceil stays finite when span/h overflows to inf
    ratio = min(span / h, MAX_GRID_POINTS + 1.0)
    n = math.ceil(ratio)
    if n > 1 and (n - 1) >= ratio * (1.0 - 1e-12):
        n -= 1
    return n


def _drop_max(segs: list[Segment]) -> list[Segment]:
    # The maximum is left-scattered exactly when the last segment is a point
    # with something before it; a lone point has rho(b) = b.
    if len(segs) >= 2 and segs[-1].is_point:
        return segs[:-1]
    return segs


def _drop_min(segs: list[Segment]) -> list[Segment]:
    if len(segs) >= 2 and segs[0].is_point:
        return segs[1:]
    return segs


def _intersect(a: Sequence[Segment], b: Sequence[Segment]) -> list[Segment]:
    out: list[Segment] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].left, b[j].left)
        hi = min(a[i].right, b[j].right)
        if lo <= hi:
            out.append(Segment(lo, hi))
        if a[i].right < b[j].right:
            i += 1
        else:
            j += 1
    return out


def readonly_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of values as a numpy array of the given dtype."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def first_nonfinite(arr: np.ndarray) -> float | None:
    """The first element of arr that is nan or infinite, as a Python float."""
    finite = np.isfinite(arr)
    return None if finite.all() else float(arr[np.argmin(finite)])


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing sample points; dense_flags marks approximation points
    introduced by subdividing an interval (segment endpoints are never flagged).

    Both are read-only numpy arrays (float64 and bool), copied from the
    arguments. Grids compare equal when both arrays do; they are unhashable.
    """

    points: np.ndarray
    dense_flags: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", readonly_array(self.points))
        object.__setattr__(self, "dense_flags", readonly_array(self.dense_flags, bool))
        pts = self.points
        if not pts.size:
            raise ParameterError("a sample grid needs at least one point")
        if pts.size != self.dense_flags.size:
            raise ParameterError("points and dense_flags must have equal length")
        if not _is_grid(pts):
            bad = first_nonfinite(pts)
            if bad is not None:
                raise ParameterError(f"grid points must be finite, got {bad!r}")
            raise ParameterError("grid points must be strictly increasing")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.points, other.points)
                and np.array_equal(self.dense_flags, other.dense_flags))

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])


def grid_from_points(scale: TimeScale, points: Sequence[float]) -> SampleGrid:
    """Build a grid from explicit sample points, validating them against a scale.

    Every point must belong to the scale and every segment endpoint must be
    present exactly. Points strictly inside an interval are flagged as
    approximation points.
    """
    pts = np.asarray(points, dtype=float)
    if not _is_grid(pts):
        _raise_for_non_grid(scale, pts)
    ends = [x for seg in scale.segments for x in (seg.left, seg.right)]
    # the points are sorted, so segment s holds the points from index j[2s]
    # to index j[2s + 1] once both its endpoints are found there
    j = np.searchsorted(pts, ends)
    found = (pts[np.minimum(j, pts.size - 1)] == ends).tolist()
    for s, seg in enumerate(scale.segments):
        if not (found[2 * s] and found[2 * s + 1]):
            raise _missing_endpoint(seg)
    flags = np.zeros(pts.size, dtype=bool)
    nxt = 0  # the first point not yet found in a segment
    for lo, hi in zip(j[0::2].tolist(), j[1::2].tolist()):
        if lo > nxt:
            break
        if hi > lo + 1:
            flags[lo + 1:hi] = True
        nxt = hi + 1
    if nxt < pts.size:
        raise _stray(float(pts[nxt]))
    return SampleGrid(pts, flags)


def _is_grid(pts: np.ndarray) -> bool:
    """Whether pts is nonempty, finite and strictly increasing."""
    # strictly increasing between finite ends means finite throughout, and
    # a nan fails every comparison
    return bool(pts.size and (pts[:-1] < pts[1:]).all()
                and math.isfinite(pts[0]) and math.isfinite(pts[-1]))


def _raise_for_non_grid(scale: TimeScale, pts: np.ndarray) -> None:
    """Raise the first error of points that are not a grid, point by point,
    in the order grid_from_points checks: a missing segment endpoint, then
    the first point off the scale, then SampleGrid's own checks."""
    present = set(pts.tolist())
    for seg in scale.segments:
        if seg.left not in present or seg.right not in present:
            raise _missing_endpoint(seg)
    for p in pts.tolist():
        if not scale.contains(p):
            raise _stray(p)
    SampleGrid(pts, np.zeros(pts.size, dtype=bool))


def _missing_endpoint(seg: Segment) -> DomainError:
    return DomainError(
        f"grid must contain every segment endpoint; "
        f"[{seg.left}, {seg.right}] is not fully represented")


def _stray(p: float) -> DomainError:
    return DomainError(f"grid point {p!r} does not belong to the time scale")


def parse_timescale(text: str) -> TimeScale:
    """Parse the scale literal syntax: `interval l r` and `points p1 p2 ...` lines.

    Lines may be separated by newlines or semicolons; blank lines and lines
    starting with '#' are ignored. The scale is the union of all lines.
    """
    return scale_from_lines(numbered_lines(text.replace(";", "\n")),
                            "time scale description is empty")


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The lines of text, stripped and numbered from 1, without blank lines
    and lines that start with '#'."""
    return [(lineno, line)
            for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
            if line and not line.startswith("#")]


def scale_from_lines(rows: Iterable[tuple[int, str]], empty: str) -> TimeScale:
    """The union of numbered scale literal lines; InputFormatError with the
    message empty when there are none."""
    segments = [seg for lineno, line in rows for seg in parse_scale_line(line, lineno)]
    if not segments:
        raise InputFormatError(empty)
    return TimeScale.from_segments(segments)


def parse_scale_line(line: str, lineno: int | None = None) -> list[Segment]:
    """Parse one scale literal line into segments."""
    where = f"line {lineno}: " if lineno is not None else ""
    parts = line.split()
    kind = parts[0]
    if kind == "interval":
        if len(parts) != 3:
            raise InputFormatError(
                f"{where}'interval' takes exactly two numbers", line=lineno)
        left, right = (_parse_number(p, lineno) for p in parts[1:])
        if left > right:
            raise InputFormatError(
                f"{where}interval endpoints out of order: {line!r}", line=lineno)
        return [Segment(left, right)]
    if kind == "points":
        if len(parts) < 2:
            raise InputFormatError(
                f"{where}'points' needs at least one number", line=lineno)
        return [Segment(p, p) for p in (_parse_number(x, lineno) for x in parts[1:])]
    raise InputFormatError(
        f"{where}unknown directive {kind!r} (expected 'interval' or 'points')",
        line=lineno)


def _parse_number(text: str, lineno: int | None) -> float:
    try:
        value = float(text)
    except ValueError:
        where = f"line {lineno}: " if lineno is not None else ""
        raise InputFormatError(f"{where}not a number: {text!r}", line=lineno) from None
    if not math.isfinite(value):
        where = f"line {lineno}: " if lineno is not None else ""
        raise InputFormatError(f"{where}numbers must be finite: {text!r}", line=lineno)
    return value
