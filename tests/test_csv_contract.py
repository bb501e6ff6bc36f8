"""Malformed-CSV contract of the commands that read a `t,value` file.

`tsvar residual`, `tsvar calc deriv` and `tsvar epideriv` must each exit 2
with exactly one stderr line on a malformed trajectory or sample, and the
line is pinned here word for word. Some files run past the reader's first
chunk, so line numbers are checked across chunk boundaries. The inputs the
reader must still accept (blank lines, CRLF endings, spaces around cells)
must give the same output as the clean file.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from tsvar import cli

PROBLEM = """\
[timescale]
interval 0 1

[problem]
u = 1
L = v^2 + y^2
alpha = 0
beta = 1
h = 0.25
"""

SCALE = "interval 0 1"
# the grid of PROBLEM: h = 0.25 on [0, 1]
TS = (0.0, 0.25, 0.5, 0.75, 1.0)
# a long file: the grid of [0, 1] at h = 1e-5, i.e. 100,001 rows after the header
LONG_N = 100_000


def _row(t: float, v: float) -> str:
    return f"{t!r},{v!r}\n"


def _clean(ts=TS) -> str:
    return "t,value\n" + "".join(_row(t, t * t) for t in ts)


def _long(bad_line: int, bad_row: str) -> str:
    """The long file with line bad_line (the header is line 1) replaced."""
    rows = [_row(k / LONG_N, 0.5) for k in range(LONG_N + 1)]
    rows[bad_line - 2] = bad_row
    return "t,value\n" + "".join(rows)


def _argv(command: str, problem: str, path: str, long: bool) -> list[str]:
    if command == "residual":
        extra = ["--h", "1e-5"] if long else []
        return ["residual", problem, "--y", path, *extra]
    if command == "calc":
        return ["calc", "deriv", SCALE, "--f", path]
    return ["epideriv", SCALE, "--f", path, "--t", "0.5", "--u", "1"]


def _run(tmp_path, command: str, text: str, long: bool = False) -> tuple[int, str, str]:
    problem = tmp_path / "problem.txt"
    problem.write_text(PROBLEM)
    path = tmp_path / "y.csv"
    path.write_bytes(text.encode())
    argv = _argv(command, str(problem), str(path), long)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


COMMANDS = ("residual", "calc", "epideriv")

ENDPOINT = "grid must contain every segment endpoint; [0.0, 1.0] is not fully represented"

# name -> (file text, {command: message}); a single message applies to all three
CASES = {
    "empty": ("", "empty CSV: expected a `t,value` header"),
    "wrong_header": ("time,value\n0,0\n1,1\n",
                     "bad CSV header 'time,value': expected 't,value'"),
    "header_only": ("t,value\n", "CSV contains a header but no rows"),
    "header_and_blank_lines": ("t,value\n\n  \n", "CSV contains a header but no rows"),
    "one_field": ("t,value\n0,0\n0.25\n0.5,0.25\n",
                  "line 3: expected two comma-separated fields"),
    "three_fields": ("t,value\n0,0\n0.25,0.0625,1\n",
                     "line 3: expected two comma-separated fields"),
    "trailing_comma": ("t,value\n0,0\n0.25,0.0625,\n",
                       "line 3: expected two comma-separated fields"),
    "not_a_number": ("t,value\n0,0\n0.25,x\n", "line 3: not a number in '0.25,x'"),
    # float() rejects a separator \x1c-\x1f that numpy would strip
    "separator": ("t,value\n0,1\n1\x1d,2\n", "line 3: not a number in '1\\x1d,2'"),
    # the first error in line order wins, whatever its kind
    "number_before_fields": ("t,value\n0,0\n0.25,x\n0.5\n",
                             "line 3: not a number in '0.25,x'"),
    "fields_before_number": ("t,value\n0,0\n0.25\n0.5,x\n",
                             "line 3: expected two comma-separated fields"),
    "nan_value": ("t,value\n0,0\n0.25,nan\n0.5,0.25\n0.75,0.5\n1,1\n",
                  "grid values must be finite, got nan"),
    "inf_value": ("t,value\n0,0\n0.25,-1e400\n0.5,0.25\n0.75,0.5\n1,1\n",
                  "grid values must be finite, got -inf"),
    "non_increasing": ("t,value\n0,0\n0.5,0\n0.5,0\n0.75,0\n1,1\n",
                       "grid points must be strictly increasing"),
    "off_the_scale": ("t,value\n0,0\n0.25,0\n0.5,0\n1,1\n1.5,0\n", {
        "residual": "trajectory CSV has 5 points but the discretized grid has 5; "
                    "t columns must match the grid exactly",
        "calc": "grid point 1.5 does not belong to the time scale",
        "epideriv": "grid point 1.5 does not belong to the time scale",
    }),
    "missing_endpoint": ("t,value\n0,0\n0.25,0\n0.5,0\n0.75,0\n", {
        "residual": "trajectory CSV has 4 points but the discretized grid has 5; "
                    "t columns must match the grid exactly",
        "calc": ENDPOINT,
        "epideriv": ENDPOINT,
    }),
    "nan_t": ("t,value\n0,0\nnan,0\n0.5,0\n0.75,0\n1,1\n", {
        "residual": "grid points must be finite, got nan",
        "calc": "grid point nan does not belong to the time scale",
        "epideriv": "grid point nan does not belong to the time scale",
    }),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_exits_2_with_one_line(tmp_path, command, case):
    text, message = CASES[case]
    if isinstance(message, dict):
        message = message[command]
    rc, out, err = _run(tmp_path, command, text)
    assert (rc, err) == (2, f"error: {message}\n")
    assert out == ""


# (line number, replacement row, message): lines in the first, second and a
# later chunk of any chunk size that is a power of two up to 32k, and lines
# around the power-of-two boundaries themselves
LONG_CASES = [
    (70_001, "abc,0.5\n", "line 70001: not a number in 'abc,0.5'"),
    (8_193, "0.08191,0.5,1\n", "line 8193: expected two comma-separated fields"),
    (8_194, "0.08192\n", "line 8194: expected two comma-separated fields"),
    (16_385, "0.16383,zz\n", "line 16385: not a number in '0.16383,zz'"),
    (100_002, "1,\n", "line 100002: not a number in '1,'"),
]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("line,row,message", LONG_CASES)
def test_line_numbers_past_the_first_chunk(tmp_path, command, line, row, message):
    rc, out, err = _run(tmp_path, command, _long(line, row), long=True)
    assert (rc, err) == (2, f"error: {message}\n")
    assert out == ""


ACCEPTED = {
    "blank_lines": "t,value\n\n0,0\n\n\n0.25,0.0625\n  \n0.5,0.25\n0.75,0.5625\n\t\n1,1\n\n",
    "crlf": _clean().replace("\n", "\r\n"),
    "spaces_around_cells": "t,value\n 0 ,0\n0.25, 0.0625 \n\t0.5\t,\t0.25\t\n"
                           "  0.75,0.5625\n1 , 1  \n",
    "header_with_spaces": " t,value \n" + _clean()[len("t,value\n"):],
    "no_final_newline": _clean().rstrip("\n"),
    "underscore_digits": "t,value\n0,0\n0.2_5,0.0_625\n0.5,0.25\n0.75,0.5625\n1,1\n",
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_accepted_variants_match_the_clean_file(tmp_path, command, case):
    clean = _run(tmp_path, command, _clean())
    assert clean[0] == 0 and clean[2] == ""
    assert _run(tmp_path, command, ACCEPTED[case]) == clean


@pytest.mark.parametrize("command", COMMANDS)
def test_long_file_with_blank_lines_and_crlf(tmp_path, command):
    clean = "t,value\n" + "".join(_row(k / LONG_N, 0.5) for k in range(LONG_N + 1))
    # a blank line before every 997th row and every 5th row ending in CRLF, so
    # every chunk holds both, and blank lines fall on chunk boundaries too
    rows = ["t,value\n"]
    for k in range(LONG_N + 1):
        rows.append("\n" if k % 997 == 0 or k in (8_190, 8_191, 16_382) else "")
        rows.append(_row(k / LONG_N, 0.5).replace("\n", "\r\n" if k % 5 == 0 else "\n"))
    expected = _run(tmp_path, command, clean, long=True)
    assert expected[0] == 0 and expected[2] == ""
    assert _run(tmp_path, command, "".join(rows), long=True) == expected
