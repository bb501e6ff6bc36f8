"""Byte-for-byte CLI behaviour on a fixed corpus.

Each case runs `cli.main` in-process from `tests/golden/inputs` and compares
stdout, stderr and the exit code with the files under `tests/golden/expected`.
Integrands use only `+ - * / ^` and `sqrt`, which IEEE 754 rounds correctly,
so the expected bytes do not depend on the CPU's vectorized `exp`/`log`/`sin`.

The expected files record the behaviour of the code they were generated
with. To pin a new case, add it to CASES and run

    PYTHONPATH=src python tests/test_golden.py --regenerate

which writes the files of every case that has none and leaves the others
alone. To re-pin a case on purpose, delete its files first.
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
    # products that overflow with both signs, and a partial sum that does
    "calc_int_overflow_cancel": ["calc", "int", "points 0 2 4", "--f",
                                 "overflow_cancel.csv"],
    "calc_int_overflow_partial": ["calc", "int", "points 0 1 2 3", "--f",
                                  "overflow_partial.csv"],
    # nabla at |u| != 1, and a nabla constraint (w < 0) through the Schur
    # step; the u_neg_ inputs sort after the others, which keeps the ids of
    # the tests that parametrize over the input files in sorted order
    "solve_nabla_mixed_steep": ["solve", "u_neg_mixed.prob"],
    "residual_nabla": ["residual", "u_neg_residual.prob", "--y", "trajectory.csv"],
    "solve_iso_bump_nabla": ["solve", "u_neg_iso_bump.prob"],
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


def test_regenerate_writes_only_missing_cases(tmp_path, monkeypatch, capsys):
    here = sys.modules[__name__]
    monkeypatch.setattr(here, "GOLDEN", tmp_path)
    monkeypatch.setattr(here, "CASES", {"pinned": ["a"], "new": ["b"]})
    monkeypatch.setattr(here, "_run", lambda argv: (f"out {argv[0]}\n", "", 0))
    (tmp_path / "expected").mkdir()
    (tmp_path / "expected" / "pinned.stdout").write_text("old\n")
    _regenerate()
    assert capsys.readouterr().out == "pinned new\n"
    assert sorted(p.name for p in (tmp_path / "expected").iterdir()) == [
        "new.exit", "new.stderr", "new.stdout", "pinned.stdout"]
    assert (tmp_path / "expected" / "pinned.stdout").read_text() == "old\n"
    assert (tmp_path / "expected" / "new.stdout").read_text() == "out b\n"


def _regenerate() -> None:
    target = GOLDEN / "expected"
    target.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        base = target / name
        if any(base.with_suffix(s).exists() for s in (".stdout", ".stderr", ".exit")):
            continue
        stdout, stderr, code = _run(argv)
        print(f"pinned {name}")
        base.with_suffix(".stdout").write_bytes(stdout.encode())
        base.with_suffix(".stderr").write_bytes(stderr.encode())
        base.with_suffix(".exit").write_text(f"{code}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    _regenerate()
