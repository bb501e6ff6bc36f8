"""Delta and nabla calculus for functions sampled on a discretized time scale.

The sampled grid is treated as a purely discrete scale: forward and backward
difference quotients are the exact delta and nabla derivatives at scattered
points and O(h) one-sided approximations at approximation points. Integrals
are rectangle sums, which coincide with the antiderivative definition
whenever the grid is the whole scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import DomainError, InputFormatError, ParameterError
from .g17 import format_rows
from .timescale import (
    SampleGrid,
    TimeScale,
    first_nonfinite,
    grid_from_points,
    readonly_array,
)

__all__ = [
    "GridFunction",
    "delta_deriv",
    "nabla_deriv",
    "shift_sigma",
    "shift_rho",
    "delta_integral",
    "nabla_integral",
    "write_grid_csv",
    "read_grid_csv",
]

# Lines the CSV reader parses at a time, and rows the writers format at a
# time: large enough that numpy's cost per call vanishes, small enough that
# a chunk's strings stay near a megabyte whatever the size of the file.
CSV_CHUNK = 8192


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values sampled at the points of a grid.

    values is a read-only float64 array, copied from the argument. Grid
    functions compare equal when their grids and values do; they are
    unhashable.
    """

    grid: SampleGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", readonly_array(self.values))
        if self.values.size != len(self.grid.points):
            raise ParameterError(
                f"value count {self.values.size} does not match grid size "
                f"{len(self.grid.points)}")
        bad = first_nonfinite(self.values)
        if bad is not None:
            raise ParameterError(f"grid values must be finite, got {bad!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def sample(cls, grid: SampleGrid, fn: Callable[[float], float]) -> "GridFunction":
        return cls(grid, [float(fn(t)) for t in grid.points.tolist()])

    def __len__(self) -> int:
        return self.values.size


def _require_points(f: GridFunction, n: int, what: str) -> None:
    if len(f.grid.points) < n:
        raise DomainError(f"{what} needs at least {n} grid points")


def _head(grid: SampleGrid) -> SampleGrid:
    return SampleGrid(grid.points[:-1], grid.dense_flags[:-1])


def _tail(grid: SampleGrid) -> SampleGrid:
    return SampleGrid(grid.points[1:], grid.dense_flags[1:])


def _quotients(f: GridFunction) -> np.ndarray:
    # an overflow gives inf, as it does in Python floats, and GridFunction
    # rejects it
    with np.errstate(over="ignore"):
        return np.diff(f.values) / np.diff(f.grid.points)


def delta_deriv(f: GridFunction) -> GridFunction:
    """Forward difference quotient, defined on all grid points but the last."""
    _require_points(f, 2, "the delta derivative")
    return GridFunction(_head(f.grid), _quotients(f))


def nabla_deriv(f: GridFunction) -> GridFunction:
    """Backward difference quotient, defined on all grid points but the first."""
    _require_points(f, 2, "the nabla derivative")
    return GridFunction(_tail(f.grid), _quotients(f))


def shift_sigma(f: GridFunction) -> GridFunction:
    """Composition with the forward jump: value at t_i is f(t_{i+1})."""
    _require_points(f, 2, "the sigma shift")
    return GridFunction(_head(f.grid), f.values[1:])


def shift_rho(f: GridFunction) -> GridFunction:
    """Composition with the backward jump: value at t_i is f(t_{i-1})."""
    _require_points(f, 2, "the rho shift")
    return GridFunction(_tail(f.grid), f.values[:-1])


def _grid_index(pts: np.ndarray, x: float, what: str) -> int:
    i = int(np.searchsorted(pts, x))
    if i < pts.size and pts[i] == x:
        return i
    raise DomainError(f"{what}={x!r} is not a grid point")


def _between(f: GridFunction, c: float, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and values of f from the grid point c to the grid point d."""
    ic = _grid_index(f.grid.points, c, "lower bound c")
    id_ = _grid_index(f.grid.points, d, "upper bound d")
    if ic > id_:
        raise DomainError(f"integration bounds out of order: c={c!r} > d={d!r}")
    return f.grid.points[ic:id_ + 1], f.values[ic:id_ + 1]


def _rectangle_sum(vals: np.ndarray, pts: np.ndarray) -> float:
    """Sum of vals[i] * (pts[i+1] - pts[i]): math.fsum of the float products
    while that is finite, else the exact sum rounded once (inf on overflow only)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            total = math.fsum((vals * np.diff(pts)).tolist())
        except (OverflowError, ValueError):  # an overflow on the way, or inf - inf
            total = math.inf
    return total if math.isfinite(total) else exact_rectangle_sum(vals, pts)


def exact_rectangle_sum(vals: np.ndarray, pts: np.ndarray) -> float:
    """Sum of vals[i] * (pts[i+1] - pts[i]) for finite floats, summed exactly
    and rounded once, so it is a signed inf only when the sum overflows."""
    # each float as an integer times 2^-k, one k for all; a step may
    # overflow as a float, so it is taken from the points
    ratios = [list(map(float.as_integer_ratio, arr.tolist())) for arr in (vals, pts)]
    k = max(d for r in ratios for _, d in r).bit_length() - 1
    v, p = ([n << (k + 1 - d.bit_length()) for n, d in r] for r in ratios)
    exact = sum(map(lambda x, a, b: x * (b - a), v, p, p[1:]))
    try:
        return exact / (1 << 2 * k)  # int / int rounds once
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def delta_integral(f: GridFunction, c: float, d: float) -> float:
    """Left-rectangle sum of f over [c, d): sum of f(t_i) * (t_{i+1} - t_i)."""
    pts, vals = _between(f, c, d)
    return _rectangle_sum(vals[:-1], pts)


def nabla_integral(f: GridFunction, c: float, d: float) -> float:
    """Right-rectangle sum of f over (c, d]: sum of f(t_i) * (t_i - t_{i-1})."""
    pts, vals = _between(f, c, d)
    return _rectangle_sum(vals[1:], pts)


def write_rows(stream: TextIO, columns: Sequence[np.ndarray], seps: list[str]) -> None:
    """Write the rows of the columns, float arrays of one length, with each
    cell as %.17g followed by its column's separator, through
    g17.format_rows. Rows are formatted and written a chunk at a time, so
    the text of a fine grid is never held whole."""
    for i in range(0, len(columns[0]), CSV_CHUNK):
        stream.write(format_rows(np.column_stack([c[i:i + CSV_CHUNK] for c in columns]), seps))


def write_grid_csv(f: GridFunction, stream: TextIO) -> None:
    """Write the `t,value` CSV form with lossless 17-significant-digit floats."""
    stream.write("t,value\n")
    write_rows(stream, (f.grid.points, f.values), [",", "\n"])


def read_grid_csv(stream: Iterable[str], scale: TimeScale | None = None) -> GridFunction:
    """Read the `t,value` CSV form.

    With a scale, sample points are validated against it and approximation
    points are re-flagged; without one, all points are taken as exact.
    The stream is read CSV_CHUNK lines at a time, so its whole text is never
    held at once.
    """
    lines = iter(stream)
    header = next(lines, None)
    if header is None:
        raise InputFormatError("empty CSV: expected a `t,value` header", line=1)
    if header.strip() != "t,value":
        raise InputFormatError(
            f"bad CSV header {header.strip()!r}: expected 't,value'", line=1)
    chunks = []
    lineno = 2  # the line number of the chunk's first line
    while block := list(islice(lines, CSV_CHUNK)):
        chunks.append(_parse_rows(block, lineno))
        lineno += len(block)
    data = np.concatenate(chunks) if chunks else np.empty(0)
    if not data.size:
        raise InputFormatError("CSV contains a header but no rows")
    points, values = data[0::2], data[1::2]
    if scale is not None:
        grid = grid_from_points(scale, points)
    else:
        grid = SampleGrid(points, np.zeros(points.size, dtype=bool))
    return GridFunction(grid, values)


def _parse_rows(block: list[str], lineno: int) -> np.ndarray:
    """The numbers on a chunk of CSV lines that starts at line lineno, as
    t0, value0, t1, value1, ...; blank lines are skipped."""
    # numpy's row reader converts each cell as float() does, except that it
    # also strips the separators \x1c-\x1f around a cell, which float()
    # rejects; max_rows keeps its buffers near the chunk's size
    text = "".join(block)
    if not ("\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text):
        try:
            with warnings.catch_warnings():
                # a warning for each blank line, which numpy skips as the
                # loop below does
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(block, delimiter=",", comments=None, ndmin=2,
                                  max_rows=len(block))
        except ValueError:
            pass
        else:
            if rows.shape[1] == 2:
                return rows.ravel()
    # a separator, a line without exactly two fields or a cell that is not
    # a number: line by line, so the first error in line order is reported
    numbers: list[float] = []
    for k, raw in enumerate(block, start=lineno):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise InputFormatError(
                f"line {k}: expected two comma-separated fields", line=k)
        try:
            numbers += (float(cells[0]), float(cells[1]))
        except ValueError:
            raise InputFormatError(
                f"line {k}: not a number in {line!r}", line=k) from None
    return np.array(numbers, dtype=float)
