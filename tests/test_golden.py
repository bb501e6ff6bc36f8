"""Byte-for-byte CLI behaviour on a fixed corpus.

Each case runs `cli.main` in-process from `tests/golden/inputs` and compares
stdout, stderr and the exit code with the files under `tests/golden/expected`.
Integrands use only `+ - * / ^` and `sqrt`, which IEEE 754 rounds correctly,
so the expected bytes do not depend on the CPU's vectorized `exp`/`log`/`sin`.

The expected files record the behaviour of the code they were generated
with; regenerate them only on purpose, with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from tsvar import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "solve_delta": ["solve", "delta.prob"],
    "solve_nabla_mixed": ["solve", "nabla_mixed.prob"],
    "solve_iso_normal": ["solve", "iso_normal.prob"],
    "solve_iso_abnormal": ["solve", "iso_abnormal.prob"],
    "residual": ["residual", "residual.prob", "--y", "trajectory.csv"],
    # malformed: the t column does not match the discretized grid
    "residual_t_mismatch": ["residual", "residual.prob", "--y", "trajectory_short.csv"],
    "epideriv": ["epideriv", "interval 0 2; points 4", "--f", "chord.csv",
                 "--t", "2", "--u", "0.5"],
    "calc_deriv": ["calc", "deriv", "points 0 0.5 1; interval 2 4", "--f", "square.csv"],
    "calc_nabla": ["calc", "nabla", "points 0 0.5 1; interval 2 4", "--f", "square.csv"],
    "calc_int": ["calc", "int", "points 0 0.5 1; interval 2 4", "--f", "square.csv"],
    "calc_nint": ["calc", "nint", "points 0 0.5 1; interval 2 4", "--f", "square.csv"],
    # malformed: a syntax error in the integrand
    "solve_bad_expression": ["solve", "bad_expression.prob"],
    # the fast paths: cyclic reduction over several Newton steps, the Schur
    # bordered step, and the CSV reader past its first chunk
    "solve_delta_large": ["solve", "solve_delta_large.prob"],
    "solve_nabla_mixed_large": ["solve", "solve_nabla_mixed_large.prob"],
    "solve_iso_bump": ["solve", "solve_iso_bump.prob"],
    "residual_large": ["residual", "residual_large.prob", "--y", "trajectory_large.csv"],
    # a problem file as the SCALE argument: its [timescale] section is read
    "calc_int_problem_file": ["calc", "int", "residual.prob", "--f", "trajectory.csv"],
}


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN / "inputs")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue(), err.getvalue(), code


def _expected(name: str) -> tuple[str, str, int]:
    base = GOLDEN / "expected" / name
    return (base.with_suffix(".stdout").read_bytes().decode(),
            base.with_suffix(".stderr").read_bytes().decode(),
            int(base.with_suffix(".exit").read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name: str):
    stdout, stderr, code = _run(CASES[name])
    want_out, want_err, want_code = _expected(name)
    assert code == want_code
    assert stderr == want_err
    assert stdout == want_out


def _regenerate() -> None:
    target = GOLDEN / "expected"
    target.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        stdout, stderr, code = _run(argv)
        base = target / name
        base.with_suffix(".stdout").write_bytes(stdout.encode())
        base.with_suffix(".stderr").write_bytes(stderr.encode())
        base.with_suffix(".exit").write_text(f"{code}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    _regenerate()
