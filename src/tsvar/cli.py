"""Command-line front end: solve, residual, epideriv and calc commands.

Exit codes: 0 success, 1 usage error, 2 malformed input (an InputError, an
OSError or an input file that is not UTF-8 text), 3 numerical failure (a
NumericalError or running out of memory).
Errors go to stderr only; CSV output goes to --out or stdout. When the CSV
goes to stdout, the solve summary moves to stderr so stdout stays machine
readable.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from functools import cache
from pathlib import Path
from typing import TextIO

from .calculus import (
    delta_deriv,
    delta_integral,
    nabla_deriv,
    nabla_integral,
    read_grid_csv,
    write_grid_csv,
    write_rows,
)
from .epiderivative import (
    epiderivative_closed,
    epiderivative_liminf,
    extend,
    liminf_params,
)
from .errors import (
    ExpressionError,
    GridMismatchError,
    InputError,
    InputFormatError,
    NumericalError,
)
from .lagrangian import Lagrangian
from .timescale import TimeScale, numbered_lines, parse_timescale, scale_from_lines
from .variational import (
    IsoProblem,
    Problem,
    Solution,
    residual_column,
    solve,
    solve_iso,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".17g")


# -- problem files ---------------------------------------------------------------

_PROBLEM_KEYS = ("u", "L", "alpha", "beta", "h")
_CONSTRAINT_KEYS = ("w", "G", "K")


def _split_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, line in numbered_lines(text):
        if line.startswith("["):
            if not line.endswith("]"):
                raise InputFormatError(
                    f"line {lineno}: malformed section header {line!r}", line=lineno)
            name = line[1:-1].strip()
            if name not in ("timescale", "problem", "constraint"):
                raise InputFormatError(
                    f"line {lineno}: unknown section [{name}]", line=lineno)
            if name in sections:
                raise InputFormatError(
                    f"line {lineno}: duplicate section [{name}]", line=lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise InputFormatError(
                f"line {lineno}: content outside any section", line=lineno)
        current.append((lineno, line))
    return sections


def _parse_keys(rows: list[tuple[int, str]], allowed: tuple[str, ...],
                section: str) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in rows:
        if "=" not in line:
            raise InputFormatError(
                f"line {lineno}: expected 'key = value' in [{section}]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise InputFormatError(
                f"line {lineno}: unknown key {key!r} in [{section}]", line=lineno)
        if key in out:
            raise InputFormatError(
                f"line {lineno}: duplicate key {key!r} in [{section}]", line=lineno)
        out[key] = (lineno, value)
    return out


def _need(keys: dict[str, tuple[int, str]], name: str, section: str) -> tuple[int, str]:
    if name not in keys:
        raise InputFormatError(f"missing key {name!r} in [{section}]")
    return keys[name]


def _parse_float(lineno: int, text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputFormatError(
            f"line {lineno}: value of {key!r} is not a number: {text!r}",
            line=lineno) from None
    if not math.isfinite(value):
        raise InputFormatError(
            f"line {lineno}: value of {key!r} is not a finite number: {text!r}",
            line=lineno)
    return value


def _parse_expression(lineno: int, text: str, key: str) -> Lagrangian:
    try:
        return Lagrangian.from_text(text)
    except ExpressionError as exc:
        raise InputFormatError(f"line {lineno}: bad expression for {key!r}: {exc}",
                               line=lineno) from exc


def parse_problem_file(text: str, h_override: float | None = None) -> Problem:
    """Parse a problem file into a Problem or, with a [constraint], IsoProblem."""
    sections = _split_sections(text)
    if "timescale" not in sections:
        raise InputFormatError("missing [timescale] section")
    if "problem" not in sections:
        raise InputFormatError("missing [problem] section")
    scale = scale_from_lines(sections["timescale"], "[timescale] section is empty")
    keys = _parse_keys(sections["problem"], _PROBLEM_KEYS, "problem")
    lineno, raw_u = _need(keys, "u", "problem")
    u = _parse_float(lineno, raw_u, "u")
    if u == 0:
        raise InputFormatError(
            f"line {lineno}: u = 0 makes the problem trivial: every admissible "
            "trajectory gives the same value, so there is nothing to extremize",
            line=lineno)
    lag = _parse_expression(*_need(keys, "L", "problem"), key="L")
    alpha = _parse_float(*_need(keys, "alpha", "problem"), key="alpha")
    beta = _parse_float(*_need(keys, "beta", "problem"), key="beta")
    if h_override is not None:
        h = h_override
    else:
        h = _parse_float(*keys["h"], key="h") if "h" in keys else Problem.h
    if not 0 < h < math.inf:
        raise InputFormatError(f"step h must be positive and finite, got {h!r}")

    if "constraint" not in sections:
        return Problem(scale=scale, u=u, L=lag, alpha=alpha, beta=beta, h=h)

    ckeys = _parse_keys(sections["constraint"], _CONSTRAINT_KEYS, "constraint")
    lineno, raw_w = _need(ckeys, "w", "constraint")
    w = _parse_float(lineno, raw_w, "w")
    if w == 0:
        raise InputFormatError(
            f"line {lineno}: w = 0 makes the constraint trivial", line=lineno)
    g = _parse_expression(*_need(ckeys, "G", "constraint"), key="G")
    k = _parse_float(*_need(ckeys, "K", "constraint"), key="K")
    return IsoProblem(scale=scale, u=u, L=lag, alpha=alpha, beta=beta, h=h,
                      G=g, w=w, K=k)


def _load_scale(arg: str) -> TimeScale:
    """A scale argument is a file path or an inline literal (';' separates lines)."""
    path = Path(arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        if "[" in text:
            sections = _split_sections(text)
            if "timescale" not in sections:
                raise InputFormatError("file has sections but no [timescale]")
            return scale_from_lines(sections["timescale"],
                                    "[timescale] section is empty")
        return parse_timescale(text)
    return parse_timescale(arg)


# -- output helpers ----------------------------------------------------------------

def _write_with_residual(out: TextIO, columns: list, col: list[float | None]) -> None:
    """One row per grid point: the columns, then the residual column col,
    which is empty where it is None, on the first and the last two rows."""
    n = len(col)
    lo = min(2, n)
    hi = max(lo, n - 2)  # col holds floats on rows lo..hi-1
    edge = "%.17g," * len(columns) + "\n"
    write_rows(out, edge, columns, 0, lo)
    write_rows(out, edge[:-1] + "%.17g\n", columns + [col], lo, hi)
    write_rows(out, edge, columns, hi, n)


def _write_solution_csv(problem: Problem, sol: Solution, out: TextIO) -> None:
    col = residual_column(problem, sol.y, lam0=sol.lam0, lam=sol.lam)
    out.write("t,y,residual\n")
    _write_with_residual(out, [sol.y.grid.points, sol.y.values], col)


def _summary(sol: Solution) -> str:
    lines = [
        f"functional_value = {_fmt(sol.functional_value)}",
        f"residual_max = {_fmt(sol.residual_max)}",
        f"iterations = {sol.iterations}",
    ]
    if sol.lam is not None:
        lines.append(f"lambda0 = {_fmt(sol.lam0)}")
        lines.append(f"lambda = {_fmt(sol.lam)}")
        lines.append(f"normal = {'true' if sol.normal_flag else 'false'}")
    return "\n".join(lines) + "\n"


def _csv_out(out: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """The --out file, or stdout. Rows are written as they are formatted, so
    the whole CSV text of a fine grid is never held in memory."""
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


# -- command handlers ------------------------------------------------------------------

def _cmd_solve(ns: argparse.Namespace) -> int:
    problem = parse_problem_file(Path(ns.file).read_text(encoding="utf-8"),
                                 h_override=ns.h)
    if isinstance(problem, IsoProblem):
        sol = solve_iso(problem, tol=ns.tol, max_iter=ns.max_iter)
    else:
        sol = solve(problem, tol=ns.tol, max_iter=ns.max_iter)
    with _csv_out(ns.out) as fh:
        _write_solution_csv(problem, sol, fh)
    # stdout stays machine readable when the CSV goes there
    (sys.stdout if ns.out else sys.stderr).write(_summary(sol))
    return 0


def _cmd_residual(ns: argparse.Namespace) -> int:
    problem = parse_problem_file(Path(ns.file).read_text(encoding="utf-8"),
                                 h_override=ns.h)
    # the trajectory is read inline so that its copy of the grid is freed
    # before the output is formatted; the problem keeps the grid it checked
    with open(ns.y, encoding="utf-8") as fh:
        try:
            col = residual_column(problem, read_grid_csv(fh), enforce_boundaries=False)
        except GridMismatchError as err:
            raise GridMismatchError(
                f"trajectory CSV has {err.points} points but the discretized "
                f"grid has {err.grid_points}; t columns must match the grid "
                "exactly") from None
    with _csv_out(ns.out) as fh:
        fh.write("t,residual\n")
        _write_with_residual(fh, [problem.discretized().points], col)
    return 0


def _cmd_epideriv(ns: argparse.Namespace) -> int:
    scale = _load_scale(ns.scale)
    with open(ns.f, encoding="utf-8") as fh:
        f = read_grid_csv(fh, scale=scale)
    fbar = extend(f)
    closed = epiderivative_closed(fbar, ns.t, ns.u)
    h0, kmax = liminf_params(fbar, ns.t, ns.u, h0=ns.h0)
    if ns.kmax is not None:
        kmax = ns.kmax
    estimate = epiderivative_liminf(fbar, ns.t, ns.u, h0, kmax)
    sys.stdout.write("closed,liminf\n")
    sys.stdout.write(f"{_fmt(closed)},{_fmt(estimate)}\n")
    return 0


def _cmd_calc(ns: argparse.Namespace) -> int:
    scale = _load_scale(ns.scale)
    with open(ns.f, encoding="utf-8") as fh:
        f = read_grid_csv(fh, scale=scale)
    if ns.op in ("deriv", "nabla"):
        result = delta_deriv(f) if ns.op == "deriv" else nabla_deriv(f)
        with _csv_out(ns.out) as fh:
            write_grid_csv(result, fh)
        return 0
    lo, hi = f.grid.a, f.grid.b
    if ns.op == "int":
        value = delta_integral(f, lo, hi)
    else:
        value = nabla_integral(f, lo, hi)
    sys.stdout.write(f"{_fmt(value)}\n")
    return 0


# -- entry point -------------------------------------------------------------------------

# built once per process: a build costs more than a small command
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tsvar",
                     description="Variational calculus on time scales.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the problem in a file")
    p_solve.add_argument("file")
    p_solve.add_argument("--h", type=float, default=None,
                         help="discretization step (overrides the file)")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iter", type=int, default=100)
    p_solve.add_argument("--out", default=None, help="CSV output path")
    p_solve.set_defaults(handler=_cmd_solve)

    p_res = sub.add_parser("residual", help="stationarity residual of a trajectory")
    p_res.add_argument("file")
    p_res.add_argument("--y", required=True, help="trajectory CSV (t,value)")
    p_res.add_argument("--h", type=float, default=None)
    p_res.add_argument("--out", default=None)
    p_res.set_defaults(handler=_cmd_residual)

    p_epi = sub.add_parser("epideriv",
                           help="contingent epiderivative of an extended sample")
    p_epi.add_argument("scale", help="scale file or inline literal")
    p_epi.add_argument("--f", required=True, help="sample CSV (t,value)")
    p_epi.add_argument("--t", type=float, required=True)
    p_epi.add_argument("--u", type=float, required=True)
    p_epi.add_argument("--h0", type=float, default=None)
    p_epi.add_argument("--kmax", type=int, default=None)
    p_epi.set_defaults(handler=_cmd_epideriv)

    p_calc = sub.add_parser("calc", help="derivatives and integrals of a sample")
    p_calc.add_argument("op", choices=("deriv", "nabla", "int", "nint"))
    p_calc.add_argument("scale", help="scale file or inline literal")
    p_calc.add_argument("--f", required=True, help="sample CSV (t,value)")
    p_calc.add_argument("--out", default=None)
    p_calc.set_defaults(handler=_cmd_calc)

    return parser


# argparse takes only plain decimals such as -0.5 as negative values and
# reads "-1e-05" after an option as another option
def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--t -1e-05" as "--t=-1e-05". Every option takes a value, so a
    number after any long option is that option's value."""
    out: list[str] = []
    for tok in argv:
        opt = out[-1] if out else ""
        if (opt.startswith("--") and len(opt) > 2 and "=" not in opt
                and tok.startswith("-")):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(_join_negative_values(args))
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return ns.handler(ns)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        # its byte position counts from the decoder's buffer, not the file
        print(f"error: an input file is not UTF-8 text ({err.reason})", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        detail = " ".join(str(err).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
