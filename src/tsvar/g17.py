"""`%.17g` text for float64 columns, byte for byte as Python's `%` writes
it, computed with numpy alone.

Python's `%` takes the 17 correctly rounded significant digits of a double
from Gay's dtoa ("Correctly rounded binary-decimal and decimal-binary
conversions", 1990), at about 430 ns a value. For |x| in [1e-29, 1e16) the
same digits are D = round(|x| 10^(16 - E)), with E the decimal exponent,
and here they are computed exactly: 10^k = 5^k 2^k, 5^k (k <= 46) is the sum
of two doubles, and Dekker's TwoProduct (Numer. Math. 18, 1971) gives
|x| 5^k as a double and its exact rounding error. Scaling by 2^k is exact,
so |x| 10^k is known to within 1e-13, which decides E and D unless the
fraction lies within 1e-9 of a half. Those cells, and ±0.0, inf, nan and
every |x| outside the range, are written by `%` itself.

The text is laid out one cell per column of a byte matrix, with 0 where a
byte is empty, so that every step is a long vectorized one; the matrix is
then transposed to one cell per row and its nonzero bytes taken in order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

# The fewest cells that the numpy path formats. It costs about 0.1 ms a
# call and 150 ns a cell, `%` about 430 ns a cell, so they break even near
# 350 cells, for one, two or three cells to a row; 512 is 256 rows of two
# columns, the `t,value` files.
_MIN_CELLS = 512

# 5^k = hi + lo exactly for k = 0..46: 5^46 has 107 bits, so what is left
# after its leading 53 fits in 53 more (5^47 would need 57). The rows are
# hi, its two halves of 26 bits (Veltkamp), which multiply without
# rounding, and lo.
_SPLIT = 134217729.0  # 2^27 + 1
_HI = np.array([float(5**k) for k in range(47)])
_HI_TOP = _HI * _SPLIT - (_HI * _SPLIT - _HI)
_FIVES = np.array([_HI, _HI_TOP, _HI - _HI_TOP,
                   [float(5**k - int(float(5**k))) for k in range(47)]])

# a cell whose exponent estimate leaves [_E_MIN, _E_MAX] falls back to `%`;
# the fast range needs only -30..15
_E_MIN, _E_MAX = -30, 16

# The rows of the byte matrix, one column per cell; each part runs from its
# first row to the next part's:
_SIGN = 0  # '-' or empty
_ZEROS = 1  # "0." and up to three zeros, when -4 <= E < 0
# the 17 digits and the point, which follows the digit E (fixed form) or the
# first digit (exponent form)
_DIGITS = 6
_EXPONENT = 24  # "e-" and two digits of -E, when E < -4
_WIDTH = 28  # then the separator that follows the cell in the row format
_FALLBACK = 24  # the longest %.17g text, '-2.2250738585072014e-308'


def _times_ten_to(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^k as big + tail, where big = fl(a 5^k) 2^k and the tail is
    within 2^-104 big of the rest."""
    hi, top, low, lo = np.take(_FIVES, k, axis=1)
    # Veltkamp's split: a = a_top + a_low, halves of 26 bits
    a_top = a * _SPLIT
    a_top -= a_top - a
    a_low = a - a_top
    p = a * hi
    err = ((a_top * top - p) + a_top * low + a_low * top) + a_low * low  # p + err = a hi
    err += a * lo
    return np.ldexp(p, k, out=p), np.ldexp(err, k, out=err)


def _below(big: np.ndarray, tail: np.ndarray, bound: float) -> np.ndarray:
    """Whether big + tail < bound, for bound 1e16 or 1e17: big - bound is
    exact wherever it is near 0 (Sterbenz), and a rounded sum has the sign
    of the exact one."""
    return (big - bound) + tail < 0.0


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which cells the exact path proves, and their decimal exponents E and
    17 digits D, as integers in [10^16, 10^17)."""
    a = np.abs(x)
    ok = (a >= 1e-29) & (a < 1e16)  # False for nan
    a[~ok] = 1.0
    # int32 exponents, which ldexp takes without a cast
    e = np.floor(np.log10(a)).astype(np.intc)
    big, tail = _times_ten_to(a, 16 - e)
    # log10 may be off by one near a power of ten, and the exact product,
    # not the rounded D, tells: 1e-12 is below 10^-12 but rounds up to it
    low = _below(big, tail, 1e16)
    high = ~_below(big, tail, 1e17)
    moved = np.flatnonzero(low | high)
    if moved.size:
        e[moved] = np.clip(e[moved] + high[moved] - low[moved], _E_MIN, _E_MAX)
        big[moved], tail[moved] = b, t = _times_ten_to(a[moved], 16 - e[moved])
        ok[moved] &= ~_below(b, t, 1e16) & _below(b, t, 1e17)
    rounded = np.rint(tail)
    ok &= np.abs(tail - rounded) < 0.5 - 1e-9  # not within 1e-9 of a tie
    # big is an integer from 10^16 up; a D of 10^17 changes E, and is left
    # to `%`
    d = big.astype(np.int64) + rounded.astype(np.int64)
    ok &= d < 10**17
    return ok, e, d


def _digit_rows(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each D, one row per place."""
    high = d // 10**8
    lead = high // 10**8
    halves = np.array([high - lead * 10**8, d - high * 10**8], dtype=np.intc)
    out = np.empty((17, d.size), dtype=np.uint8)
    out[0] = lead
    # the digit j of the half h is the digit 1 + 8h + j of D
    for j in range(7):
        unit = 10 ** (7 - j)
        q = halves // unit
        out[1 + j::8] = q
        halves -= q * unit
    out[8::8] = halves
    return out


def _bytes(mask: np.ndarray) -> np.ndarray:
    """255 where mask holds, else 0."""
    return np.negative(mask.view(np.uint8))


def _layout(x: np.ndarray, e: np.ndarray, d: np.ndarray, seps: list[str]) -> np.ndarray:
    """The byte matrix of the cells x, with exponents E and digits D, each
    followed by the separator of its column."""
    n = x.size
    digits = _digit_rows(d)
    e = e.astype(np.int8)
    place = np.arange(18, dtype=np.int8)[:, None]
    last = ((digits != 0).view(np.uint8) * place[:17].view(np.uint8)).max(axis=0).view(np.int8)
    # the digit the point follows: E in fixed form, 0 in exponent form and,
    # when "0." leads, none: after all 17
    point = np.where(e >= 0, e, np.where(e < -4, 0, 16).astype(np.int8))

    sep_bytes = [s.encode() for s in seps]
    m = np.zeros((_WIDTH + max(map(len, sep_bytes)), n), dtype=np.uint8)
    m[_SIGN] = np.signbit(x) * ord("-")
    zeros = (e < 0) & (e >= -4)
    m[_ZEROS] = zeros * ord("0")
    m[_ZEROS + 1] = zeros * ord(".")
    m[_ZEROS + 2:_DIGITS] = (zeros & (e <= -place[2:5])) * ord("0")
    # the digits between two empty rows, without the trailing zeros of the
    # fraction; those after the point shift down one row, and the point
    # goes where no digit follows it
    chars = np.zeros((19, n), dtype=np.uint8)
    np.bitwise_and(digits + ord("0"), _bytes(place[:17] <= np.maximum(last, e)), out=chars[1:18])
    before, after = chars[1:], chars[:-1]
    m[_DIGITS:_EXPONENT] = after ^ ((after ^ before) & _bytes(place <= point))
    m[_DIGITS + 1 + point, np.arange(n)] = (last > point) * ord(".")
    small = e < -4
    m[_EXPONENT] = small * ord("e")
    m[_EXPONENT + 1] = small * ord("-")
    m[_EXPONENT + 2] = small * (ord("0") + -e // 10)
    m[_EXPONENT + 3] = small * (ord("0") + -e % 10)
    by_column = m.reshape(len(m), -1, len(seps))
    for q, s in enumerate(sep_bytes):
        by_column[_WIDTH:_WIDTH + len(s), :, q] = np.frombuffer(s, dtype=np.uint8)[:, None]
    return m


def format_rows(cells: np.ndarray, seps: list[str]) -> str:
    """The text of `fmt % row` for each row of cells, a float64 array of
    shape (rows, k), where fmt is "%.17g" + seps[0] + ... + "%.17g" +
    seps[k - 1] and no separator holds '%' or NUL. Fewer than _MIN_CELLS
    cells are formatted by one `%` over them all, and more by numpy."""
    x = cells.ravel()
    if x.size < _MIN_CELLS:
        return ("".join("%.17g" + s for s in seps) * len(cells)) % tuple(x.tolist())
    ok, e, d = _digits(x)
    rows = np.ascontiguousarray(_layout(x, e, d, seps).T)
    bad = np.flatnonzero(~ok)
    if bad.size:
        # `%` left-justified in _FALLBACK columns
        text = ("%%-%d.17g" % _FALLBACK * bad.size % tuple(x[bad].tolist())).encode()
        cell = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FALLBACK)
        rows[bad, :_WIDTH] = 0
        rows[bad, :_FALLBACK] = np.where(cell == ord(" "), 0, cell)
    return rows.tobytes().translate(None, b"\0").decode()
