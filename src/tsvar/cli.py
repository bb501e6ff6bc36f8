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
    interior_residual,
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

# each section's keys in the order their values are read, and how each value
# is read: a finite number (float) or an expression (Lagrangian.from_text)
_KEYS = {
    "problem": {"u": float, "L": Lagrangian.from_text, "alpha": float, "beta": float,
                "h": float},
    "constraint": {"w": float, "G": Lagrangian.from_text, "K": float},
}
_DEFAULTS = {"h": Problem.h}  # the keys that may be left out
_NONZERO = {  # the numbers that must not be zero, and why
    "u": "u = 0 makes the problem trivial: every admissible trajectory gives the "
         "same value, so there is nothing to extremize",
    "w": "w = 0 makes the constraint trivial",
}


def _read_sections(text: str, missing: dict[str, str]) -> tuple[TimeScale, dict]:
    """The time scale of a sectioned text and its sections, as numbered
    lines by name; a section named in missing must be there, or
    InputFormatError says missing[name]."""
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
    for name, message in missing.items():
        if name not in sections:
            raise InputFormatError(message)
    return scale_from_lines(sections["timescale"], "[timescale] section is empty"), sections


def _read_keys(rows: list[tuple[int, str]], section: str, given: dict) -> list:
    """The values of a section's `key = value` lines, in _KEYS order. A key
    in given takes that value, and the value on its line is not read."""
    kinds = _KEYS[section]
    found: dict[str, tuple[int, str]] = {}
    for lineno, line in rows:
        key, eq, text = line.partition("=")
        key = key.strip()
        if not eq:
            raise InputFormatError(
                f"line {lineno}: expected 'key = value' in [{section}]", line=lineno)
        if key not in kinds:
            raise InputFormatError(
                f"line {lineno}: unknown key {key!r} in [{section}]", line=lineno)
        if key in found:
            raise InputFormatError(
                f"line {lineno}: duplicate key {key!r} in [{section}]", line=lineno)
        found[key] = (lineno, text.strip())
    values = []
    for key, kind in kinds.items():
        if key in given:
            values.append(given[key])
        elif key in found:
            values.append(_read_value(key, kind, *found[key]))
        elif key in _DEFAULTS:
            values.append(_DEFAULTS[key])
        else:
            raise InputFormatError(f"missing key {key!r} in [{section}]")
    return values


def _read_value(key: str, kind, lineno: int, text: str):
    try:
        value = kind(text)
    except ExpressionError as exc:
        raise InputFormatError(f"line {lineno}: bad expression for {key!r}: {exc}",
                               line=lineno) from exc
    except ValueError:
        raise InputFormatError(f"line {lineno}: value of {key!r} is not a number: "
                               f"{text!r}", line=lineno) from None
    if kind is float and not math.isfinite(value):
        raise InputFormatError(f"line {lineno}: value of {key!r} is not a finite "
                               f"number: {text!r}", line=lineno)
    if key in _NONZERO and value == 0:
        raise InputFormatError(f"line {lineno}: {_NONZERO[key]}", line=lineno)
    return value


def parse_problem_file(text: str, h_override: float | None = None) -> Problem:
    """Parse a problem file into a Problem or, with a [constraint], IsoProblem.
    With h_override, the file's h value is not read."""
    scale, sections = _read_sections(text, {"timescale": "missing [timescale] section",
                                            "problem": "missing [problem] section"})
    given = {} if h_override is None else {"h": h_override}
    u, lag, alpha, beta, h = _read_keys(sections["problem"], "problem", given)
    if not 0 < h < math.inf:
        raise InputFormatError(f"step h must be positive and finite, got {h!r}")
    if "constraint" not in sections:
        return Problem(scale=scale, u=u, L=lag, alpha=alpha, beta=beta, h=h)
    w, g, k = _read_keys(sections["constraint"], "constraint", {})
    return IsoProblem(scale=scale, u=u, L=lag, alpha=alpha, beta=beta, h=h,
                      G=g, w=w, K=k)


def _load_scale(arg: str) -> TimeScale:
    """A scale argument is a file path or an inline literal (';' separates lines).
    Only a regular file is read: an empty argument is an empty literal. A
    file with a section header line gives its [timescale]; in a plain file,
    ';' separates items of a line that is not a comment, and each item keeps
    its line's number."""
    path = Path(arg)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        lines = numbered_lines(text)
        if any(line.startswith("[") for _, line in lines):
            return _read_sections(
                text, {"timescale": "file has sections but no [timescale]"})[0]
        items = [(lineno, item) for lineno, line in lines
                 for _, item in numbered_lines(line.replace(";", "\n"))]
        return scale_from_lines(items, "time scale description is empty")
    return parse_timescale(arg)


# -- output helpers ----------------------------------------------------------------

def _write_with_residual(out: TextIO, columns: list, res) -> None:
    """One row per grid point: the columns, then the residual res on the
    rows 2..n-3, as interior_residual gives it; the residual cell is empty
    on the first and the last two rows. The columns and res are float
    arrays."""
    n = len(columns[0])
    lo = min(2, n)
    hi = max(lo, n - 2)
    edge = [","] * (len(columns) - 1) + [",\n"]
    write_rows(out, [c[:lo] for c in columns], edge)
    write_rows(out, [c[lo:hi] for c in columns] + [res], [","] * len(columns) + ["\n"])
    write_rows(out, [c[hi:] for c in columns], edge)


def _write_solution_csv(problem: Problem, sol: Solution, out: TextIO) -> None:
    res = interior_residual(problem, sol.y, lam0=sol.lam0, lam=sol.lam)
    out.write("t,y,residual\n")
    _write_with_residual(out, [sol.y.grid.points, sol.y.values], res)


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
            res = interior_residual(problem, read_grid_csv(fh), enforce_boundaries=False)
        except GridMismatchError as err:
            raise GridMismatchError(
                f"trajectory CSV has {err.points} points but the discretized "
                f"grid has {err.grid_points}; t columns must match the grid "
                "exactly") from None
    with _csv_out(ns.out) as fh:
        fh.write("t,residual\n")
        _write_with_residual(fh, [problem.discretized().points], res)
    return 0


def _cmd_epideriv(ns: argparse.Namespace) -> int:
    scale = _load_scale(ns.scale)
    with open(ns.f, encoding="utf-8") as fh:
        f = read_grid_csv(fh, scale=scale)
    fbar = extend(f)
    closed = epiderivative_closed(fbar, ns.t, ns.u)
    h0, kmax = liminf_params(fbar, ns.t, ns.u, h0=ns.h0)
    estimate = epiderivative_liminf(fbar, ns.t, ns.u, h0,
                                    kmax if ns.kmax is None else ns.kmax)
    sys.stdout.write(f"closed,liminf\n{_fmt(closed)},{_fmt(estimate)}\n")
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
    integral = delta_integral if ns.op == "int" else nabla_integral
    value = integral(f, f.grid.a, f.grid.b)
    with _csv_out(ns.out) as fh:
        fh.write(f"{_fmt(value)}\n")
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
