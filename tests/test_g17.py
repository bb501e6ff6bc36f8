"""g17.format_rows against Python's `%`, whose text it must match byte for
byte. The cells go through calculus.write_rows with the cell threshold at 0,
so every chunk takes the numpy path and `%` gets only the cells that path
hands it."""

from __future__ import annotations

import ast
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvar
from tsvar import calculus, g17

SUBNORMALS = [5e-324, 1e-323, 2.2250738585072009e-308, 1e-310]
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan] + SUBNORMALS + [-v for v in SUBNORMALS]


@pytest.fixture(autouse=True)
def every_chunk_exact(monkeypatch):
    monkeypatch.setattr(g17, "_MIN_CELLS", 0)


def _check(values, k: int = 1) -> None:
    """values, k to a row, as the writer formats them and as `%` does."""
    values = [float(v) for v in values]
    values += [1.0] * (-len(values) % k)
    cols = [values[q::k] for q in range(k)]
    fmt = ",".join(["%.17g"] * k) + "\n"
    buf = io.StringIO()
    calculus.write_rows(buf, [np.array(c) for c in cols], [","] * (k - 1) + ["\n"])
    assert buf.getvalue().splitlines() == [fmt[:-1] % row for row in zip(*cols)]


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def _with_signs(values) -> list[float]:
    return [s * v for v in values for s in (1.0, -1.0)]


# the exponent field of the doubles in [2^-97, 2^54), which hold the range
# [1e-29, 1e16) that the numpy path formats
FAST_EXPONENTS = st.integers(1023 - 97, 1023 + 53)


def _double(sign: int, exponent: int, mantissa: int) -> float:
    return float(np.array(sign << 63 | exponent << 52 | mantissa, dtype=np.uint64)
                 .view(np.float64))


class TestBitPatterns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
           st.integers(1, 3))
    def test_any_bits(self, bits, k):
        _check(np.array(bits, dtype=np.uint64).view(np.float64), k)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), FAST_EXPONENTS, st.integers(0, 2**52 - 1)),
                    min_size=1, max_size=40),
           st.integers(1, 3))
    def test_bits_in_the_fast_range(self, fields, k):
        _check([_double(*f) for f in fields], k)


class TestEdgeClasses:
    def test_powers_of_ten(self):
        _check(_with_signs(v for e in range(-29, 17) for v in _neighbours(float(f"1e{e}"))))

    def test_below_a_power_of_ten_by_less_than_half_a_digit(self):
        # 1e-12 is below 10^-12, within half a unit of its 16th decimal
        _check([1e-12, -1e-12])

    def test_range_ends(self):
        _check(_with_signs(_neighbours(1e16) + _neighbours(1e-29)))

    def test_specials(self):
        _check(SPECIALS, k=1)
        _check(SPECIALS + [1.5, -2.5e-7], k=3)

    def test_exact_halves(self):
        # x = j / 2^(17 - E) with j odd lies halfway between two 17-digit
        # decimals: x 10^(16 - E) = j 5^(16 - E) / 2
        rng = np.random.default_rng(20101007)
        values = [1234567890123456.75, 0.5, 0.125, 2.5]
        for e in range(-4, 16):
            scale = 2.0 ** (17 - e)
            lo, hi = 10.0**e * scale, min(10.0 ** (e + 1) * scale, 2.0**53)
            for j in rng.integers(int(lo), int(hi), 20):
                x = (int(j) | 1) / scale
                values += _neighbours(x)
        _check(_with_signs(values))

    def test_where_five_to_the_k_stops_being_a_double(self):
        # 1e-6 has k = 22 and 5^22 is a double; below it k = 23 and 5^23 is not
        rng = np.random.default_rng(1)
        _check(_with_signs(_neighbours(1e-6) + list(rng.uniform(0.9e-6, 1.1e-6, 2000))))

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(20000) * 10.0 ** rng.integers(-32, 19, 20000)
        _check(values, k=2)

    def test_grid_and_samples(self):
        t = np.linspace(0.0, 2.0, 2001)
        _check(np.column_stack([t, np.cos(t), t * t - 1.0]).ravel(), k=3)


class TestRowFormats:
    @pytest.mark.parametrize("seps", [[","], [",", "\n"], ["\t", ";", "\r\n"], ["é\n"]])
    def test_separators(self, seps):
        fmt = "".join("%.17g" + s for s in seps)
        cols = [np.array([0.1 * (q + 1), -0.0, 1e-7, 3.0]) for q in range(len(seps))]
        buf = io.StringIO()
        calculus.write_rows(buf, cols, seps)
        assert buf.getvalue() == "".join(fmt % row for row in zip(*cols))

    def test_lists_and_non_float_columns(self):
        cols = [[0.25, 1e-9, -3.0], np.array([1, 2, 3])]
        buf = io.StringIO()
        calculus.write_rows(buf, cols, [",", "\n"])
        assert buf.getvalue() == "".join("%.17g,%.17g\n" % row for row in zip(*cols))

    def test_non_numbers_raise_as_percent_does(self):
        with pytest.raises(TypeError):
            calculus.write_rows(io.StringIO(), [["1.5"]], ["\n"])


def test_imports_only_numpy():
    tree = ast.parse((Path(tsvar.__file__).parent / "g17.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules == {"__future__", "numpy"}
