"""Symmetric tridiagonal solves, and solves of such a matrix bordered by
one row and column, for the Newton step.

numpy has no banded solver, and scipy.linalg.solve_banded is kept out on
purpose: importing scipy.linalg costs 0.26-0.4 s and about 27 MB of RSS,
far more than a whole small solve. A definite system with at least
_CR_MIN_UNKNOWNS unknowns is solved by cyclic reduction, log2(m / 64)
levels of numpy slicing and a scalar sweep over the rest; anything else
by the pivoting loop, a Python loop over floats that is O(m) and stays
the fallback for indefinite or singular systems.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

__all__ = ["solve_tridiagonal", "bordered_step"]

_SINGULAR = "Newton matrix is singular at the current iterate"

# Cyclic reduction costs mostly a fixed overhead per level, so below about
# 100 to 150 unknowns the loop is faster (CHANGES.md has the timings). The
# threshold stays well above that crossover, which moves with the machine,
# so that problems of a few hundred points keep the loop's results.
_CR_MIN_UNKNOWNS = 512

# Cyclic reduction stops once at most this many unknowns are left and
# factors the rest by a scalar sweep: a level on fewer unknowns costs more
# in numpy call overhead than the sweep's Python loop. Tails of 15 to 127
# unknowns time within about 10% of each other, 63 the fastest
# (CHANGES.md has the timings).
_CR_TAIL = 63


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray,
                      rhs: tuple[np.ndarray, ...]) -> np.ndarray | None:
    """Solve T x = r for each r in rhs by odd-even cyclic reduction, with T
    the symmetric tridiagonal matrix with the given bands; one row of the
    result per right-hand side.

    Each level eliminates the even-numbered unknowns, which do not couple
    to each other, and leaves a tridiagonal system in the odd-numbered
    ones. Once at most _CR_TAIL unknowns are left, that system is factored
    L D L^T by a scalar sweep. Together this factors P T P^T = L D L^T
    without pivoting, which is stable for a definite T (Buzbee, Golub &
    Nielson 1970; Golub & Van Loan ch. 4), and by Sylvester's law T is
    definite iff every pivot has the sign of T[0, 0]. So it returns None,
    and leaves the system to the pivoting loop, when there are fewer than
    _CR_MIN_UNKNOWNS unknowns or when some pivot lacks that sign. T is
    padded with identity rows to the fewest rows that k levels can halve.
    """
    m = diag.size
    if m < _CR_MIN_UNKNOWNS or not diag[0] != 0.0:
        return None
    # k levels halve n = (t + 1) 2^k - 1 rows, whose count stays odd, down
    # to t <= _CR_TAIL; k and then t are the least that hold m rows
    k = (-(-(m + 1) // (_CR_TAIL + 1)) - 1).bit_length()
    n = (-(-(m + 1) >> k) << k) - 1
    # row i reads e[i] x[i - 1] + d[i] x[i] + e[i + 1] x[i + 1], with
    # e[0] = e[n] = 0
    d = np.ones(n)
    e = np.zeros(n + 1)
    out = np.zeros((len(rhs), n))
    d[:m], e[1:m], out[:, :m] = diag, off, rhs
    if diag[0] < 0.0:  # reduce -T when T is negative definite
        d[:m] *= -1.0
        e[1:m] *= -1.0
        out *= -1.0
    # one right-hand side runs on 1-D slices, which are cheaper; the
    # solution overwrites the right-hand side, level by level
    x = r = out[0] if len(rhs) == 1 else out
    levels = []
    with np.errstate(all="ignore"):  # a non-finite result is the caller's check
        for _ in range(k):
            piv = d[0::2]
            left, right = e[1:-1:2], e[2::2]  # odd rows' even neighbours
            a, c = left / piv[:-1], right / piv[1:]
            levels.append((piv, a, c, r[..., 0::2]))
            d = d[1::2] - a * left - c * right
            r = r[..., 1::2] - a * r[..., :-1:2] - c * r[..., 2::2]
            e = -(e[0::2] * e[1::2]) / piv
        if levels and not np.concatenate([lv[0] for lv in levels]).min() > 0.0:
            return None
        top = (1 << k) - 1  # level j's unknowns are x[2^j - 1::2^j]
        tail = _ldl_sweep(d.tolist(), e.tolist(), r.reshape(-1, d.size).tolist())
        if tail is None:
            return None
        x[..., top::top + 1] = tail[0] if len(rhs) == 1 else tail
        for j in range(k - 1, -1, -1):
            piv, a, c, r_even = levels[j]
            here = x[..., (1 << j) - 1::1 << j]
            x_even, x_odd = here[..., 0::2], here[..., 1::2]
            np.divide(r_even, piv, out=x_even)
            x_even[..., :-1] -= a * x_odd
            x_even[..., 1:] -= c * x_odd
    return out[:, :m]


def _ldl_sweep(d: list[float], e: list[float],
               rhs: list[list[float]]) -> list[list[float]] | None:
    """Solve the tridiagonal system left after cyclic reduction, with row i
    reading e[i] x[i - 1] + d[i] x[i] + e[i + 1] x[i + 1], by factoring it
    L D L^T; None when a pivot of D is not positive."""
    piv, low = [], []  # D, and the subdiagonal of L (low[0] = 0)
    p = 1.0
    for di, ei in zip(d, e):
        f = ei / p
        p = di - f * ei
        if not p > 0.0:
            return None
        piv.append(p)
        low.append(f)
    out = []
    for b in rhs:
        z, zs = 0.0, []
        for bi, f in zip(b, low):
            z = bi - f * z
            zs.append(z)
        x, xs = 0.0, []
        for zi, p, f in zip(reversed(zs), reversed(piv), reversed(low[1:] + [0.0])):
            x = zi / p - f * x
            xs.append(x)
        out.append(xs[::-1])
    return out


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs, where T is the symmetric tridiagonal matrix with the
    given bands: by cyclic reduction when it applies, else by the pivoting
    loop."""
    x = _cyclic_reduction(diag, off, (rhs,))
    return x[0] if x is not None else _solve_pivoting(diag, off, rhs)


def _solve_pivoting(diag: np.ndarray, off: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs by Gaussian elimination with partial pivoting in the
    row order of LAPACK gtsv: a row interchange fills in a second
    superdiagonal. A zero pivot raises SingularSystemError.
    """
    d = diag.tolist()
    dl = off.tolist()  # the subdiagonal; read only
    du = dl + [0.0]  # the superdiagonal, padded so row n - 1 needs no case
    n = len(d)
    du2 = [0.0] * n
    swapped = [False] * n
    fact = [0.0] * n
    for i in range(n - 1):
        if abs(dl[i]) > abs(d[i]):
            swapped[i] = True
            f = d[i] / dl[i]
            d[i] = dl[i]
            below = d[i + 1]
            d[i + 1] = du[i] - f * below
            du2[i] = du[i + 1]
            du[i + 1] = -f * du2[i]
            du[i] = below
        else:
            if d[i] == 0.0:
                raise SingularSystemError(_SINGULAR)
            f = dl[i] / d[i]
            d[i + 1] -= f * du[i]
        fact[i] = f
    if d[n - 1] == 0.0:
        raise SingularSystemError(_SINGULAR)
    b = rhs.tolist() + [0.0, 0.0]
    for i in range(n - 1):
        if swapped[i]:
            b[i], b[i + 1] = b[i + 1], b[i] - fact[i] * b[i + 1]
        else:
            b[i + 1] -= fact[i] * b[i]
    for i in range(n - 1, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return np.array(b[:n])


def bordered_step(diag: np.ndarray, off: np.ndarray, gg: np.ndarray,
                  phi: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step (dy, dlam) of the bordered system
    [[H, -gg], [gg^T, 0]] (dy, dlam) = -phi, with H tridiagonal.

    When cyclic reduction solves H a = -phi_y and H b = gg (a definite H),
    the step is their Schur complement combination: dlam from
    gg^T (a + dlam b) = -phi_K, and dy = a + dlam b; for gg = 0 the
    multiplier stays put. Otherwise the bordered system is eliminated as a
    whole, which also works for a singular H.

    When H = 0 the bordered matrix has rank 2, and the step is its
    minimum-norm least-squares solution.
    """
    m = diag.size
    if not (diag.any() or off.any()):
        gn = float(gg @ gg)
        if gn == 0.0:
            raise SingularSystemError(_SINGULAR)
        return -float(phi[m]) / gn * gg, float(gg @ phi[:m]) / gn
    ab = _cyclic_reduction(diag, off, (-phi[:m], gg))
    if ab is None:
        return _bordered_elimination(diag, off, gg, phi)
    a, b = ab
    gb = float(gg @ b)
    dlam = (-float(phi[m]) - float(gg @ a)) / gb if gb != 0.0 else 0.0
    return a + dlam * b, dlam


def _bordered_elimination(diag: np.ndarray, off: np.ndarray, gg: np.ndarray,
                          phi: np.ndarray) -> tuple[np.ndarray, float]:
    """The bordered step by elimination of the (m + 1)-system as a whole,
    so H itself may be singular, as it is for an integrand linear in (y, v)
    at lam = 0. H must not be zero.

    Gaussian elimination with partial pivoting runs over the dy columns:
    the candidates for column k are the two rows left over from column
    k - 1 and row k + 1 of H, and the border row gg^T starts as a leftover.
    A working row is kept as its entries in columns k, k + 1 and k + 2, a
    multiple c of gg in the columns past them, its dlam entry and its
    right-hand side; only the border row and the rows combined with it have
    c != 0. So each column costs O(1), and the dense border costs a running
    sum of gg_j dy_j in the back substitution.

    When the last pivot vanishes, as it does for gg = 0 (a constant or
    abnormal constraint), the multiplier stays put and dy solves
    H dy = -phi_y. A zero pivot in a dy column raises SingularSystemError.
    """
    m = diag.size
    d = diag.tolist()
    o = off.tolist() + [0.0]
    g = gg.tolist() + [0.0, 0.0, 0.0]
    r = (-phi).tolist()
    # [column k, column k + 1, column k + 2, c, dlam column, right-hand side]
    rows = [[d[0], o[0], 0.0, 0.0, -g[0], r[0]],
            [g[0], g[1], g[2], 1.0, 0.0, r[m]]]
    pivots = []
    for k in range(m):
        if k + 1 < m:
            rows.append([o[k], d[k + 1], o[k + 1], 0.0, -g[k + 1], r[k + 1]])
        p = rows.pop(max(range(len(rows)), key=lambda i: abs(rows[i][0])))
        if p[0] == 0.0:
            raise SingularSystemError(_SINGULAR)
        pivots.append(p)
        nxt = g[k + 3]
        for row in rows:
            f = row[0] / p[0]
            c = row[3] - f * p[3]
            row[:] = (row[1] - f * p[1], row[2] - f * p[2], c * nxt, c,
                      row[4] - f * p[4], row[5] - f * p[5])
    [last] = rows
    dlam = last[5] / last[4] if last[4] != 0.0 else 0.0
    x = [0.0] * (m + 2)
    tail = 0.0  # sum of g[j] * x[j] over j >= k + 3
    for k in range(m - 1, -1, -1):
        e0, e1, e2, c, el, rhs = pivots[k]
        x[k] = (rhs - e1 * x[k + 1] - e2 * x[k + 2] - c * tail - el * dlam) / e0
        tail += g[k + 2] * x[k + 2]
    return np.array(x[:m]), dlam
