"""The array-backed data path against the per-point loops it replaced.

Grids and samples are read-only float64 arrays. Discretization and the CSV
reader perform the same IEEE operations as the loops in `helpers.py`, so the
results must be equal element for element, and malformed input must raise
the same error with the same message.
"""

from __future__ import annotations

import io
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_discretize, reference_read_grid_csv, scales
from tsvar import (
    GridFunction,
    SampleGrid,
    TimeScale,
    calculus,
    cli,
    g17,
    parse_timescale,
    read_grid_csv,
    write_grid_csv,
)
from tsvar.errors import DomainError, InputFormatError, ParameterError

GOLDEN = Path(__file__).parent / "golden" / "inputs"
# the mixed scale of the fine-grid benchmark and of the golden nabla case
MIXED = "interval 0 1; points 1.5 2; interval 3 4"


# by file stem, which also names each case, so adding a file renames none
GOLDEN_PROBLEMS = {path.stem: cli.parse_problem_file(path.read_text())
                   for path in sorted(GOLDEN.glob("*.prob"))
                   if path.stem != "bad_expression"}


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestDiscretizeMatchesLoop:
    @pytest.mark.parametrize("problem", GOLDEN_PROBLEMS.values(),
                             ids=GOLDEN_PROBLEMS.keys())
    def test_golden_scales(self, problem):
        grid = problem.scale.discretize(problem.h)
        pts, flags = reference_discretize(problem.scale, problem.h)
        assert grid.points.tolist() == pts
        assert grid.dense_flags.tolist() == flags
        assert _same_bits(grid.points, pts)

    @pytest.mark.parametrize("literal, h", [
        (MIXED, 2e-5),
        ("interval 0 2", 1e-5),
        ("interval 0 2; points 4", 0.3),
        ("points 0 0.5 1; interval 2 4", 0.07),
        ("interval -3.7 0.1; interval 0.2 9.9", 1 / 3),
    ])
    def test_fixed_scales(self, literal, h):
        scale = parse_timescale(literal)
        grid = scale.discretize(h)
        pts, flags = reference_discretize(scale, h)
        assert grid.points.tolist() == pts
        assert grid.dense_flags.tolist() == flags
        assert _same_bits(grid.points, pts)

    @settings(max_examples=150, deadline=None)
    @given(scales(), st.floats(min_value=1e-3, max_value=2.5))
    def test_random_scales(self, scale, h):
        grid = scale.discretize(h)
        pts, flags = reference_discretize(scale, h)
        assert grid.points.tolist() == pts
        assert grid.dense_flags.tolist() == flags
        assert _same_bits(grid.points, pts)


def _outcome(read, text: str, scale, newline: str):
    """What a reader makes of text, split into lines as by
    io.StringIO(text, newline=newline): its points, flags and values, or the
    type, message and line of its error."""
    try:
        got = read(io.StringIO(text, newline=newline), scale)
    except (InputFormatError, DomainError, ParameterError) as err:
        return type(err), str(err), getattr(err, "line", None)
    if isinstance(got, GridFunction):
        got = (got.grid.points.tolist(), got.grid.dense_flags.tolist(), got.values.tolist())
    return got


def _check_reader(text: str, scale, chunk: int, newline: str = "\n") -> None:
    with mock.patch.object(calculus, "CSV_CHUNK", chunk):
        got = _outcome(read_grid_csv, text, scale, newline)
    ref = _outcome(reference_read_grid_csv, text, scale, newline)
    assert got == ref
    if isinstance(got[0], list):
        assert _same_bits(got[0], ref[0]) and _same_bits(got[2], ref[2])


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-5, max_value=5).map(str),
)
# numpy's row reader strips the separators \x1c-\x1f around a cell, and
# float() rejects them
SEPARATED = st.builds(lambda cell, sep, before: sep + cell if before else cell + sep,
                      NUMBERS, st.sampled_from("\x1c\x1d\x1e\x1f"), st.booleans())
CELLS = st.one_of(
    NUMBERS,
    SEPARATED,
    st.sampled_from(["x", "", " ", "1_0", "1__0", " 2 ", "\t3\t", "1e400", "nan", "-inf",
                     "Infinity", "0x10", "١٢", "+-1", ".5", "5.", "1e", "-0",
                     "0.1 ", "1 2", "1\x1d", "\x1c2", "\x1e",
                     # a quote, a comment sign, a NUL and a lone carriage return
                     '"1"', "#1", "1\x00", "\r", "1\r", "\r2"]),
)
ROWS = st.one_of(
    st.tuples(CELLS, CELLS).map(",".join),
    CELLS,
    st.lists(CELLS, min_size=3, max_size=3).map(",".join),
    st.sampled_from(["", "  ", "\t", ","]),
)


class TestReadMatchesLoop:
    @pytest.mark.parametrize("csv, literal", [
        ("trajectory.csv", None),
        ("trajectory_short.csv", None),
        ("chord.csv", "interval 0 2; points 4"),
        ("square.csv", "points 0 0.5 1; interval 2 4"),
    ])
    @pytest.mark.parametrize("chunk", [1, 2, 3, calculus.CSV_CHUNK])
    def test_golden_files(self, csv, literal, chunk):
        text = (GOLDEN / csv).read_text()
        scale = parse_timescale(literal) if literal else None
        _check_reader(text, scale, chunk)

    def test_fine_grid_file(self):
        scale = parse_timescale(MIXED)
        grid = scale.discretize(2e-5)
        buf = io.StringIO()
        write_grid_csv(GridFunction(grid, np.sin(grid.points) * 3.0), buf)
        for s in (None, scale):
            _check_reader(buf.getvalue(), s, calculus.CSV_CHUNK)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ROWS, max_size=8), st.sampled_from(["\n", "\r\n"]),
           st.booleans(), st.sampled_from([1, 2, 3, 5, 8192]))
    # a blank line makes numpy's row reader warn
    @example(rows=["", "0.0,0.0,0.0"], end="\n", final_newline=False, chunk=2)
    # numpy's row reader would read this line as 1, 2
    @example(rows=["0,1", "1\x1d,2"], end="\n", final_newline=True, chunk=8192)
    def test_random_lines(self, rows, end, final_newline, chunk):
        text = "t,value\n" + end.join(rows) + (end if final_newline else "")
        # a lone \r stays inside a line, and with newline="" it ends one
        for newline in ("\n", ""):
            _check_reader(text, None, chunk, newline)
            _check_reader(text, TimeScale.of_points(0.0, 1.0), chunk, newline)

    @settings(max_examples=200, deadline=None)
    @given(scales(), st.floats(min_value=0.05, max_value=1.0), st.data())
    def test_sampled_grids_with_faults(self, scale, h, data):
        pts = reference_discretize(scale, h)[0]
        vals = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(pts), max_size=len(pts)))
        fmt = data.draw(st.sampled_from(["{!r},{!r}", "{:.17g},{:.17g}", " {} , {} "]))
        lines = [fmt.format(t, v) for t, v in zip(pts, vals)]
        fault = data.draw(st.sampled_from(
            ["none", "blank", "junk", "drop", "swap", "stray", "nan"]))
        i = data.draw(st.integers(0, len(lines) - 1))
        if fault == "blank":
            lines.insert(i, "  ")
        elif fault == "junk":
            lines[i] = data.draw(ROWS)
        elif fault == "drop":
            del lines[i]
        elif fault == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif fault == "stray":
            lines.insert(i, f"{scale.b + 0.5!r},0")
        elif fault == "nan":
            lines[i] = data.draw(st.sampled_from([f"{pts[i]!r},nan", f"nan,{vals[i]!r}"]))
        text = "t,value\n" + "\n".join(lines) + "\n"
        chunk = data.draw(st.sampled_from([1, 2, 3, 8192]))
        _check_reader(text, None, chunk)
        _check_reader(text, scale, chunk)


# the corners of %.17g: signed zero, the least subnormal, the greatest float
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, -3.0]


def _columns(k: int, n: int, as_array: bool) -> list:
    cols = [[EDGE_VALUES[(q + 2 * r) % len(EDGE_VALUES)] for r in range(n)] for q in range(k)]
    return [np.array(c) for c in cols] if as_array else cols


class TestWriteMatchesRows:
    """The writers against one `%` per row, the form they replaced. Each case
    runs with the cell threshold at 0, where every chunk takes g17's numpy
    path, and at its default, where chunks this small take `%`."""

    THRESHOLDS = [0, g17._MIN_CELLS]

    @pytest.mark.parametrize("chunk", [1, 2, 3, calculus.CSV_CHUNK])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("as_array", [True, False])
    def test_write_rows(self, chunk, k, as_array):
        n = 11
        cols = _columns(k, n, as_array)
        fmt = ",".join(["%.17g"] * k) + "\n"
        rows = list(zip(*[c.tolist() if as_array else c for c in cols]))
        for threshold in self.THRESHOLDS:
            for start, stop in [(0, n), (0, 0), (3, 4), (2, 9), (n, n)]:
                buf = io.StringIO()
                with mock.patch.object(calculus, "CSV_CHUNK", chunk), \
                        mock.patch.object(g17, "_MIN_CELLS", threshold):
                    calculus.write_rows(buf, [c[start:stop] for c in cols],
                                        [","] * (k - 1) + ["\n"])
                assert buf.getvalue() == "".join(fmt % row for row in rows[start:stop])

    # chunks on either side of g17._MIN_CELLS for one to three columns, then
    # 3-column chunks of 255 and 256 rows, and a 171-row chunk after a full
    # one, with nothing patched
    @pytest.mark.parametrize("k, n", [
        (k, n) for k in (1, 2, 3) for n in range(g17._MIN_CELLS // k - 1, g17._MIN_CELLS // k + 2)
    ] + [(3, 255), (3, 256), (3, calculus.CSV_CHUNK + 171)])
    def test_either_side_of_the_cell_threshold(self, k, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n * k) * 10.0 ** rng.integers(-32, 19, n * k)
        # cells that the numpy path hands to `%`, in the first and last rows
        values[:4] = values[-4:] = [-0.0, math.inf, math.nan, 5e-324]
        cols = [values[q::k] for q in range(k)]
        fmt = ",".join(["%.17g"] * k) + "\n"
        buf = io.StringIO()
        calculus.write_rows(buf, cols, [","] * (k - 1) + ["\n"])
        # as lists of rows, which pytest compares quickly when they differ
        assert buf.getvalue().splitlines(keepends=True) == [
            fmt % row for row in zip(*(c.tolist() for c in cols))]

    @pytest.mark.parametrize("chunk", [1, 2, 3, calculus.CSV_CHUNK])
    @pytest.mark.parametrize("k", [1, 2])
    # up to 6 rows, where the empty edge rows meet; 10 rows take every value
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10])
    def test_with_residual(self, chunk, k, n):
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308]
        col = [None if r < 2 or r >= n - 2 else special[r - 2] for r in range(n)]
        for threshold in self.THRESHOLDS:
            for as_array in (True, False):
                cols = _columns(k, n, as_array)
                # the writer takes the residual on rows 2..n-3 alone
                interior = col[2:n - 2]
                buf = io.StringIO()
                with mock.patch.object(calculus, "CSV_CHUNK", chunk), \
                        mock.patch.object(g17, "_MIN_CELLS", threshold):
                    cli._write_with_residual(buf, cols,
                                             np.array(interior) if as_array else interior)
                want = "".join(
                    "".join("%.17g," % c[r] for c in cols)
                    + ("" if x is None else "%.17g" % x) + "\n"
                    for r, x in enumerate(col))
                assert buf.getvalue() == want


class TestReadOnlyArrays:
    def setup_method(self):
        self.grid = TimeScale.interval(0.0, 1.0).discretize(0.25)
        self.f = GridFunction.sample(self.grid, math.sin)

    def test_dtypes(self):
        assert self.grid.points.dtype == np.float64
        assert self.grid.dense_flags.dtype == np.bool_
        assert self.f.values.dtype == np.float64

    @pytest.mark.parametrize("field", ["points", "dense_flags", "values"])
    def test_assignment_raises(self, field):
        arr = getattr(self.f if field == "values" else self.grid, field)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = arr[::-1]

    def test_in_place_arithmetic_raises(self):
        pts = self.grid.points
        with pytest.raises(ValueError, match="read-only"):
            pts += 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(self.f.values, 2.0, out=self.f.values)
        assert self.grid.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_arguments_are_copied(self):
        pts = np.array([0.0, 1.0, 2.0])
        flags = np.array([False, True, False])
        vals = np.array([3.0, 4.0, 5.0])
        f = GridFunction(SampleGrid(pts, flags), vals)
        pts[0], flags[1], vals[2] = -1.0, False, 9.0
        assert f.grid.points.tolist() == [0.0, 1.0, 2.0]
        assert f.grid.dense_flags.tolist() == [False, True, False]
        assert f.values.tolist() == [3.0, 4.0, 5.0]
        assert pts.flags.writeable  # the caller's arrays stay theirs

    def test_equality(self):
        same = TimeScale.interval(0.0, 1.0).discretize(0.25)
        assert self.grid == same and not self.grid != same
        assert self.grid != TimeScale.interval(0.0, 1.0).discretize(0.5)
        assert self.grid != SampleGrid(self.grid.points, [True] * 5)
        assert self.grid != "grid" and self.f != self.grid
        assert self.f == GridFunction.sample(same, math.sin)
        assert self.f != GridFunction.sample(same, math.cos)
        assert self.f != GridFunction(SampleGrid(self.grid.points, [False] * 5), self.f.values)

    def test_unhashable(self):
        for obj in (self.grid, self.f):
            with pytest.raises(TypeError, match="unhashable type"):
                hash(obj)
            with pytest.raises(TypeError, match="unhashable type"):
                {obj}

    def test_messages_show_python_floats(self):
        with pytest.raises(ParameterError, match=r"^grid points must be finite, got inf$"):
            SampleGrid(np.array([0.0, np.inf]), [False, False])
        with pytest.raises(ParameterError, match=r"^grid values must be finite, got nan$"):
            GridFunction(self.grid, np.array([0.0, 1.0, np.float64("nan"), 2.0, np.inf]))


def test_reader_memory_stays_bounded(tmp_path):
    """Reading a 200,001-row CSV from a file peaks well under the size of its
    whole text in Python objects; a whole-file read would exceed the bound."""
    grid = TimeScale.interval(0.0, 2.0).discretize(1e-5)
    path = tmp_path / "y.csv"
    with open(path, "w") as fh:
        write_grid_csv(GridFunction(grid, np.cos(grid.points)), fh)
    del grid
    tracemalloc.start()
    try:
        with open(path) as fh:
            f = read_grid_csv(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f) == 200_001
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_writer_memory_stays_bounded(tmp_path):
    """Writing a 200,001-row CSV (6.9 MB) to a file peaks well under the size
    of its text in Python objects; a writer that held the whole text, or the
    cells of every row at once, would exceed the bound."""
    grid = TimeScale.interval(0.0, 2.0).discretize(1e-5)
    f = GridFunction(grid, np.cos(grid.points))
    path = tmp_path / "y.csv"
    with open(path, "w") as fh:
        tracemalloc.start()
        try:
            write_grid_csv(f, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.stat().st_size > 6 * 2**20
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
