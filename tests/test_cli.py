import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

CLASSIC = """\
[timescale]
interval 0 1

[problem]
u = 1
L = v^2
alpha = 0
beta = 1
h = 1e-3
"""

ISO = """\
[timescale]
interval 0 1

[problem]
u = 1
L = v^2
alpha = 0
beta = 0

[constraint]
w = 1
G = y
K = 0.16666666666666666
"""


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "tsvar", *args],
                          capture_output=True, text=True, env=child_env(),
                          **kwargs)


def read_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSolve:
    def test_classical_writes_linear_solution(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        out = tmp_path / "sol.csv"
        cp = run_cli("solve", str(prob), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert "functional_value = 1" in cp.stdout
        header, rows = read_csv(out.read_text())
        assert header == ["t", "y", "residual"]
        for t_txt, y_txt, _ in rows:
            assert abs(float(y_txt) - float(t_txt)) <= 1e-6

    def test_summary_goes_to_stderr_when_csv_on_stdout(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 0
        assert cp.stdout.startswith("t,y,residual\n")
        assert "functional_value" in cp.stderr

    def test_zero_direction_is_input_error(self, tmp_path: Path):
        prob = tmp_path / "bad.prob"
        prob.write_text(CLASSIC.replace("u = 1", "u = 0"))
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 2
        assert "nothing to extremize" in cp.stderr
        assert cp.stdout == ""

    def test_isoperimetric_prints_multiplier(self, tmp_path: Path):
        prob = tmp_path / "iso.prob"
        prob.write_text(ISO)
        out = tmp_path / "sol.csv"
        cp = run_cli("solve", str(prob), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = dict(line.split(" = ") for line in cp.stdout.strip().splitlines()
                     if " = " in line)
        assert float(lines["lambda"]) == pytest.approx(4.0, abs=1e-2)
        assert lines["lambda0"] == "1"
        assert "normal = true" in cp.stdout

    def test_singular_integrand_exits_3(self, tmp_path: Path):
        # the affine start passes through y = 0 at t = 0.5, where log(y)
        # and its partials are singular
        prob = tmp_path / "log.prob"
        prob.write_text(CLASSIC.replace("L = v^2", "L = log(y)")
                        .replace("alpha = 0", "alpha = -1").replace("1e-3", "0.125"))
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1, cp.stderr
        assert cp.stderr.startswith("error: cannot evaluate expression at t=")

    def test_overflowing_line_search_writes_one_line(self, tmp_path: Path):
        # the line search's trials overflow before the iteration limit
        prob = tmp_path / "stall.prob"
        prob.write_text(ISO.replace("L = v^2", "L = sqrt(1+v^2)*exp(y/4)")
                        .replace("alpha = 0", "alpha = 0.3")
                        .replace("beta = 0", "beta = 1.2\nh = 0.0033333333333333335")
                        .replace("w = 1", "w = -0.6").replace("G = y", "G = y + 0.1*y^3")
                        .replace("K = 0.16666666666666666", "K = -0.5"))
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 3
        assert len(cp.stderr.splitlines()) == 1, cp.stderr
        assert cp.stderr.startswith("error: no convergence after 100 Newton steps")

    def test_nan_constraint_value_exits_3(self, tmp_path: Path):
        # the constraint's terms overflow to inf of both signs, so its value
        # is nan, which does not pass as converged
        prob = tmp_path / "nan.prob"
        prob.write_text(ISO.replace("interval 0 1", "interval 0 8")
                        .replace("beta = 0", "beta = 1\nh = 0.5")
                        .replace("G = y", "G = 1.7e308*cos(1.2566*t) + v^2")
                        .replace("K = 0.16666666666666666", "K = 0"))
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert cp.stderr == "error: line search stalled before reaching the tolerance\n"

    def test_overflowing_functional_is_inf(self, tmp_path: Path, capsys):
        # in process, where the test settings make a leaked warning an error
        from tsvar import cli

        prob = tmp_path / "p.prob"
        prob.write_text(CLASSIC.replace("interval 0 1", "interval 0 4")
                        .replace("L = v^2", "L = 1e308 + v^2").replace("1e-3", "0.5"))
        out = tmp_path / "y.csv"
        assert cli.main(["solve", str(prob), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "functional_value = inf\n" in captured.out

    def test_missing_file_is_input_error(self):
        cp = run_cli("solve", "/nonexistent/problem.prob")
        assert cp.returncode == 2

    def test_parse_error_reports_line(self, tmp_path: Path):
        prob = tmp_path / "bad.prob"
        prob.write_text("[timescale]\ninterval 0 1\n\n[problem]\nu = 1\nL = v^\nalpha = 0\nbeta = 1\n")
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 2
        assert "line 6" in cp.stderr

    def test_h_flag_overrides_file(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        cp = run_cli("solve", str(prob), "--h", "0.25")
        assert cp.returncode == 0
        header, rows = read_csv(cp.stdout)
        assert len(rows) == 5

    def test_fine_step_solves_in_linear_memory(self, tmp_path: Path):
        # 100,001 points: a dense Newton matrix would need about 75 GiB
        prob = tmp_path / "fine.prob"
        prob.write_text(CLASSIC.replace("L = v^2", "L = v^2 + y^2"))
        out = tmp_path / "sol.csv"
        cp = run_cli("solve", str(prob), "--h", "1e-5", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert "iterations = 1" in cp.stdout
        assert len(out.read_text().splitlines()) == 100_002

    def test_too_fine_step_is_input_error(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        cp = run_cli("solve", str(prob), "--h", "1e-12", timeout=60)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == ("error: step h=1e-12 needs more than 10000000 "
                             "grid points; use a larger step\n")

    def test_deterministic_output(self, tmp_path: Path):
        prob = tmp_path / "iso.prob"
        prob.write_text(ISO)
        first = run_cli("solve", str(prob))
        second = run_cli("solve", str(prob))
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


class TestResidual:
    def test_extremal_residuals_are_small(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC.replace("1e-3", "0.05"))
        sol = tmp_path / "sol.csv"
        run_cli("solve", str(prob), "--out", str(sol))
        ycsv = tmp_path / "y.csv"
        ycsv.write_text("t,value\n" + "\n".join(
            ",".join(row[:2]) for row in read_csv(sol.read_text())[1]) + "\n")
        cp = run_cli("residual", str(prob), "--y", str(ycsv))
        assert cp.returncode == 0, cp.stderr
        _, rows = read_csv(cp.stdout)
        values = [float(r) for _, r in rows if r != ""]
        assert values and all(abs(v) <= 1e-9 for v in values)

    def test_perturbed_residuals_are_visible(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC.replace("1e-3", "0.05"))
        sol = tmp_path / "sol.csv"
        run_cli("solve", str(prob), "--out", str(sol))
        rows = []
        for t_txt, _, _ in read_csv(sol.read_text())[1]:
            t = float(t_txt)
            rows.append(f"{t_txt},{t + 0.1 * t * (1 - t):.17g}")
        ycsv = tmp_path / "y.csv"
        ycsv.write_text("t,value\n" + "\n".join(rows) + "\n")
        cp = run_cli("residual", str(prob), "--y", str(ycsv))
        assert cp.returncode == 0, cp.stderr
        _, out_rows = read_csv(cp.stdout)
        values = [abs(float(r)) for _, r in out_rows if r != ""]
        assert max(values) > 1e-3

    def test_wrong_length_is_input_error(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC.replace("1e-3", "0.05"))
        ycsv = tmp_path / "y.csv"
        ycsv.write_text("t,value\n0,0\n1,1\n")
        cp = run_cli("residual", str(prob), "--y", str(ycsv))
        assert cp.returncode == 2
        assert cp.stdout == ""


class TestEpideriv:
    def test_chord_slope_both_columns(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,2\n")
        cp = run_cli("epideriv", "points 0 1", "--f", str(fcsv),
                     "--t", "0", "--u", "1")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "closed,liminf\n2,2\n"

    def test_zero_direction(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,2\n")
        cp = run_cli("epideriv", "points 0 1", "--f", str(fcsv),
                     "--t", "0.5", "--u", "0")
        assert cp.stdout == "closed,liminf\n0,0\n"

    def test_empty_direction_prints_inf(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,2\n")
        cp = run_cli("epideriv", "points 0 1", "--f", str(fcsv),
                     "--t", "0", "--u", "-1")
        assert cp.returncode == 0
        assert cp.stdout == "closed,liminf\ninf,inf\n"

    def test_outside_domain_is_input_error(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,2\n")
        cp = run_cli("epideriv", "points 0 1", "--f", str(fcsv),
                     "--t", "3", "--u", "1")
        assert cp.returncode == 2

    def test_refining_past_the_first_piece_keeps_the_slope(self, tmp_path: Path):
        # the quotient is exact once the step lies inside the first linear
        # piece; further halving used to lose digits and, at 1100 halvings,
        # divide by a zero step
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,1\n1,2\n")
        args = ("epideriv", "points 0 1", "--f", str(fcsv), "--t", "0", "--u", "1")
        default = run_cli(*args)
        assert default.returncode == 0, default.stderr
        for kmax in ("40", "52", "53", "60", "1100"):
            cp = run_cli(*args, "--kmax", kmax)
            assert cp.returncode == 0, (kmax, cp.stderr)
            assert cp.stdout == default.stdout, kmax
            closed, liminf = (float(x) for x in cp.stdout.splitlines()[1].split(","))
            assert closed == 1.0
            assert liminf == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_negative_exponent_value_after_flag(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n-1,1\n1,-3\n")
        base = ("epideriv", "interval -1 1", "--f", str(fcsv))
        spaced = run_cli(*base, "--t", "-1e-05", "--u", "-2.5e-1")
        joined = run_cli(*base, "--t=-1e-05", "--u=-2.5e-1")
        assert spaced.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout
        assert spaced.stdout == "closed,liminf\n0.5,0.5\n"

    def test_negative_value_joined_after_any_long_option(self):
        from tsvar.cli import _join_negative_values

        argv = ["solve", "p.txt", "--out", "-1e5", "--max-iter", "-3",
                "--tol=1e-8", "-2", "--", "-1", "--h", "-x"]
        assert _join_negative_values(argv) == [
            "solve", "p.txt", "--out=-1e5", "--max-iter=-3",
            "--tol=1e-8", "-2", "--", "-1", "--h", "-x"]

    def test_non_finite_direction_is_input_error(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,1\n1,2\n")
        for u in ("nan", "inf", "-inf"):
            cp = run_cli("epideriv", "points 0 1", "--f", str(fcsv),
                         "--t", "0", f"--u={u}")
            assert cp.returncode == 2, u
            assert cp.stdout == ""
            assert cp.stderr == f"error: direction u must be finite, got {u}\n"

    def test_scale_from_file(self, tmp_path: Path):
        scale = tmp_path / "scale.ts"
        scale.write_text("interval 0 1\npoints 2\n")
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n0.5,1\n1,0\n2,3\n")
        cp = run_cli("epideriv", str(scale), "--f", str(fcsv),
                     "--t", "1", "--u", "1")
        assert cp.returncode == 0
        closed, liminf = (float(x) for x in cp.stdout.splitlines()[1].split(","))
        assert closed == 3.0
        assert liminf == pytest.approx(3.0, abs=1e-12)


class TestCalc:
    def test_delta_derivative_of_square(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n" + "\n".join(f"{k},{k * k}" for k in range(5)) + "\n")
        cp = run_cli("calc", "deriv", "points 0 1 2 3 4", "--f", str(fcsv))
        assert cp.returncode == 0, cp.stderr
        _, rows = read_csv(cp.stdout)
        assert [float(v) for _, v in rows] == [1.0, 3.0, 5.0, 7.0]

    def test_delta_integral_of_one(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,1\n1,1\n2,1\n3,1\n")
        cp = run_cli("calc", "int", "points 0 1 2 3", "--f", str(fcsv))
        assert cp.stdout == "3\n"

    def test_nabla_integral_right_sum(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,1\n2,2\n3,3\n")
        cp = run_cli("calc", "nint", "points 0 1 2 3", "--f", str(fcsv))
        assert cp.stdout == "6\n"

    def test_nabla_derivative(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,1\n2,4\n")
        cp = run_cli("calc", "nabla", "points 0 1 2", "--f", str(fcsv))
        _, rows = read_csv(cp.stdout)
        assert [float(v) for _, v in rows] == [1.0, 3.0]

    def test_sample_not_on_scale_is_input_error(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n0.5,1\n1,1\n")
        cp = run_cli("calc", "deriv", "points 0 1", "--f", str(fcsv))
        assert cp.returncode == 2


class TestOutFile:
    """--out receives the CSV that goes to stdout without it; only the solve
    summary is left on stdout."""

    def _same_csv(self, tmp_path: Path, *args: str):
        """Run args with and without --out; return both runs."""
        plain = run_cli(*args)
        assert plain.returncode == 0, plain.stderr
        out = tmp_path / "out.csv"
        cp = run_cli(*args, "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert out.read_bytes() == plain.stdout.encode()
        assert cp.stderr == ""
        return cp, plain

    def test_solve(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC.replace("1e-3", "0.05"))
        cp, plain = self._same_csv(tmp_path, "solve", str(prob))
        assert cp.stdout == plain.stderr
        assert cp.stdout.startswith("functional_value = ")

    def test_residual(self, tmp_path: Path):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC.replace("1e-3", "0.25"))
        ycsv = tmp_path / "y.csv"
        ycsv.write_text("t,value\n0,0\n0.25,0.0625\n0.5,0.25\n0.75,0.5625\n1,1\n")
        cp, _ = self._same_csv(tmp_path, "residual", str(prob), "--y", str(ycsv))
        assert cp.stdout == ""

    def test_calc_deriv(self, tmp_path: Path):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n" + "\n".join(f"{k},{k * k}" for k in range(5)) + "\n")
        cp, _ = self._same_csv(tmp_path, "calc", "deriv", "points 0 1 2 3 4",
                               "--f", str(fcsv))
        assert cp.stdout == ""


class TestNonFiniteProblemValues:
    """nan, inf and overflowing literals are malformed input (exit 2), not a
    numerical failure; one test per family of problem-file keys."""

    def check(self, tmp_path: Path, text: str, key: str) -> None:
        from tsvar.cli import parse_problem_file
        from tsvar.errors import InputFormatError

        for bad in ("nan", "inf", "-inf", "1e309"):
            with pytest.raises(InputFormatError, match=key):
                parse_problem_file(text.replace("@", bad))
        prob = tmp_path / "bad.prob"
        prob.write_text(text.replace("@", "1e309"))
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1, cp.stderr
        assert "finite" in cp.stderr

    def test_directions(self, tmp_path: Path):
        self.check(tmp_path, CLASSIC.replace("u = 1", "u = @"), "'u'")
        self.check(tmp_path, ISO.replace("w = 1", "w = @"), "'w'")

    def test_boundary_values(self, tmp_path: Path):
        self.check(tmp_path, CLASSIC.replace("alpha = 0", "alpha = @"), "'alpha'")
        self.check(tmp_path, CLASSIC.replace("beta = 1", "beta = @"), "'beta'")

    def test_constraint_target(self, tmp_path: Path):
        self.check(tmp_path, ISO.replace("K = 0.16666666666666666", "K = @"), "'K'")

    def test_step(self, tmp_path: Path):
        self.check(tmp_path, CLASSIC.replace("h = 1e-3", "h = @"), "'h'")
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        cp = run_cli("solve", str(prob), "--h", "inf")
        assert cp.returncode == 2
        assert len(cp.stderr.splitlines()) == 1, cp.stderr


class TestUsage:
    def test_no_command(self):
        cp = run_cli()
        assert cp.returncode == 1
        assert cp.stdout == ""

    def test_unknown_flag(self, tmp_path: Path):
        prob = tmp_path / "p.prob"
        prob.write_text(CLASSIC)
        cp = run_cli("solve", str(prob), "--frobnicate")
        assert cp.returncode == 1

    def test_bad_subcommand(self):
        cp = run_cli("calc", "curl", "points 0 1", "--f", "x.csv")
        assert cp.returncode == 1

    def test_help_exits_cleanly(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "solve" in cp.stdout


class TestOutOfMemory:
    """Running out of memory is a numerical failure: exit 3 and one stderr
    line, no traceback."""

    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory\n"),
        ("Unable to allocate 74.5 GiB\nfor an array",
         "error: out of memory: Unable to allocate 74.5 GiB for an array\n"),
    ])
    def test_solve_exits_3(self, tmp_path: Path, monkeypatch, capsys, message, line):
        from tsvar import cli

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "solve", exhausted)
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        assert cli.main(["solve", str(prob)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line


class TestNonUtf8Input:
    """An input file that is not UTF-8 text is malformed input: exit 2 and
    one stderr line, no traceback; one test per command family."""

    def check(self, capsys, argv: list[str]) -> None:
        from tsvar import cli

        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: an input file is not UTF-8 text (invalid start byte)\n")

    def bad_csv(self, tmp_path: Path) -> str:
        fcsv = tmp_path / "f.csv"
        fcsv.write_bytes(b"t,value\n0,1\n\xff1,2\n")
        return str(fcsv)

    def test_solve(self, tmp_path: Path, capsys):
        prob = tmp_path / "bad.prob"
        prob.write_bytes(CLASSIC.encode() + b"# \xff\n")
        self.check(capsys, ["solve", str(prob)])

    def test_residual(self, tmp_path: Path, capsys):
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        self.check(capsys, ["residual", str(prob), "--y", self.bad_csv(tmp_path)])

    def test_calc(self, tmp_path: Path, capsys):
        self.check(capsys, ["calc", "deriv", "points 0 1", "--f", self.bad_csv(tmp_path)])

    def test_epideriv_scale_file(self, tmp_path: Path, capsys):
        scale = tmp_path / "scale.ts"
        scale.write_bytes(b"points 0 1 \xff\n")
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,1\n1,2\n")
        self.check(capsys, ["epideriv", str(scale), "--f", str(fcsv),
                            "--t", "0", "--u", "1"])


class TestParserBuiltOnce:
    def test_one_build_across_calls(self, tmp_path: Path, monkeypatch, capsys):
        from tsvar import cli

        builds = []

        class Spy(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.prog == "tsvar":
                    builds.append(self)

        monkeypatch.setattr(cli, "_Parser", Spy)
        cli._build_parser.cache_clear()
        try:
            fcsv = tmp_path / "f.csv"
            fcsv.write_text("t,value\n0,1\n1,2\n")
            for _ in range(3):
                assert cli.main(["calc", "int", "points 0 1", "--f", str(fcsv)]) == 0
            assert cli.main(["calc", "curl"]) == 1
        finally:
            cli._build_parser.cache_clear()
        assert len(builds) == 1
        assert capsys.readouterr().out == "1\n1\n1\n"

    def test_nothing_leaks_between_calls(self, tmp_path: Path, capsys):
        from tsvar import cli

        fcsv = tmp_path / "f.csv"
        fcsv.write_text("t,value\n0,0\n1,1\n2,4\n")
        args = ["calc", "deriv", "points 0 1 2", "--f", str(fcsv)]
        out = tmp_path / "out.csv"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(args) == 0
        assert capsys.readouterr().out == out.read_text()
        assert out.read_text() == "t,value\n0,1\n1,3\n"


class TestDeepExpression:
    @pytest.mark.parametrize("L", [
        " + ".join(["y"] * 10**4),
        "(" * 10**4 + "v^2" + ")" * 10**4,
        "-" * 10**4 + "v^2",
    ], ids=["sum", "parentheses", "unary minus"])
    def test_exits_2_with_one_line(self, tmp_path: Path, L):
        from tsvar.lagrangian import MAX_DEPTH

        prob = tmp_path / "deep.prob"
        prob.write_text(CLASSIC.replace("L = v^2", f"L = {L}"))
        cp = run_cli("solve", str(prob))
        assert cp.returncode == 2
        assert len(cp.stderr.splitlines()) == 1, cp.stderr[:2000]
        assert cp.stderr.startswith(
            f"error: line 6: bad expression for 'L': expression nests more "
            f"than {MAX_DEPTH} levels")


class TestErrorFamilies:
    def test_every_error_is_in_one_family(self):
        import inspect

        from tsvar import errors

        families = (errors.TsvarError, errors.InputError, errors.NumericalError)
        classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                   if issubclass(c, errors.TsvarError) and c not in families]
        assert len(classes) >= 12
        for c in classes:
            assert issubclass(c, errors.InputError) != issubclass(
                c, errors.NumericalError), c

    @pytest.mark.parametrize("family, code", [("InputError", 2), ("NumericalError", 3)])
    def test_family_picks_exit_code(self, tmp_path: Path, monkeypatch, capsys,
                                    family, code):
        from tsvar import cli, errors

        class NewError(getattr(errors, family)):
            pass

        def fail(*args, **kwargs):
            raise NewError("new failure")

        monkeypatch.setattr(cli, "solve", fail)
        prob = tmp_path / "classic.prob"
        prob.write_text(CLASSIC)
        assert cli.main(["solve", str(prob)]) == code
        assert capsys.readouterr().err == "error: new failure\n"


class TestOneStderrLine:
    """Failures found by hand that once left a traceback or numpy warnings
    on stderr; each now exits with its code and one stderr line. Run in
    process, where the test settings make a leaked warning an error."""

    def run(self, tmp_path: Path, capsys, text: str, *extra: str) -> tuple[int, str]:
        from tsvar import cli

        prob = tmp_path / "p.prob"
        prob.write_text(text, encoding="utf-8")
        command = "residual" if "--y" in extra else "solve"
        code = cli.main([command, str(prob), *extra])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        return code, captured.err

    def test_superscript_digit_exits_2(self, tmp_path: Path, capsys):
        text = CLASSIC.replace("L = v^2", "L = v^2 + y*²")
        assert self.run(tmp_path, capsys, text) == (
            2, "error: line 6: bad expression for 'L': "
               "unexpected character '²' at offset 8\n")

    @pytest.mark.parametrize("edits", [
        [("alpha = 0\nbeta = 1", "alpha = 1e308\nbeta = -1e308"), ("1e-3", "0.125")],
        [("interval 0 1\n", "interval 0 1e-320\n"), ("h = 1e-3", "h = 1e-322")],
    ], ids=["huge boundary values", "subnormal scale"])
    def test_overflowing_start_exits_3(self, tmp_path: Path, capsys, edits):
        text = CLASSIC.replace("L = v^2", "L = v^2 + y^2")
        for old, new in edits:
            text = text.replace(old, new)
        code, err = self.run(tmp_path, capsys, text)
        assert code == 3
        assert err.startswith("error: cannot evaluate expression at t=0.0")

    @pytest.mark.parametrize("u, inner", [
        ("1", "1e308,-1e308,1e308"),  # the slopes overflow
        ("2", "1e308,1e308,1e308"),  # the direction's scaling overflows
    ])
    def test_overflowing_trajectory_exits_3(self, tmp_path: Path, capsys, u, inner):
        traj = tmp_path / "y.csv"
        values = ["0", *inner.split(","), "0"]
        traj.write_text("t,value\n" + "".join(
            f"{t},{y}\n" for t, y in zip((0, 0.25, 0.5, 0.75, 1), values)))
        text = (CLASSIC.replace("L = v^2", "L = v^2 + y^2").replace("1e-3", "0.25")
                .replace("u = 1", f"u = {u}"))
        code, err = self.run(tmp_path, capsys, text, "--y", str(traj))
        assert code == 3
        assert err.startswith("error: cannot evaluate expression at t=0.0, y=")


class TestProblemFileParsing:
    def parse(self, text, **kwargs):
        from tsvar.cli import parse_problem_file

        return parse_problem_file(text, **kwargs)

    def err(self, text):
        from tsvar.errors import InputFormatError

        with pytest.raises(InputFormatError) as excinfo:
            self.parse(text)
        return excinfo.value

    def test_round_trip(self):
        p = self.parse(CLASSIC)
        assert p.u == 1.0 and p.alpha == 0.0 and p.beta == 1.0 and p.h == 1e-3

    def test_constraint_returns_iso_problem(self):
        from tsvar import IsoProblem

        p = self.parse(ISO)
        assert isinstance(p, IsoProblem)
        assert p.w == 1.0 and p.K == pytest.approx(1 / 6)

    def test_h_override_wins_over_file(self):
        p = self.parse(CLASSIC, h_override=0.25)
        assert p.h == 0.25

    def test_missing_sections(self):
        assert "timescale" in str(self.err("[problem]\nu = 1\nL = v\nalpha = 0\nbeta = 1\n"))
        assert "problem" in str(self.err("[timescale]\ninterval 0 1\n"))

    def test_duplicate_section(self):
        text = CLASSIC + "\n[problem]\nu = 2\n"
        assert "duplicate section" in str(self.err(text))

    def test_duplicate_key(self):
        text = CLASSIC + "u = 2\n"
        assert "duplicate key" in str(self.err(text))

    def test_unknown_key(self):
        text = CLASSIC + "gamma = 2\n"
        assert "unknown key" in str(self.err(text))

    def test_missing_required_key(self):
        text = CLASSIC.replace("beta = 1\n", "")
        assert "beta" in str(self.err(text))

    def test_content_outside_section(self):
        assert "outside" in str(self.err("u = 1\n" + CLASSIC))

    def test_zero_constraint_direction(self):
        text = ISO.replace("w = 1", "w = 0")
        assert "w = 0" in str(self.err(text))

    def test_expression_error_carries_line(self):
        text = CLASSIC.replace("L = v^2", "L = v^2 +")
        assert self.err(text).line == 6

    def test_too_deep_expression_is_an_input_error(self):
        from tsvar.lagrangian import MAX_DEPTH

        err = self.err(CLASSIC.replace("L = v^2", "L = " + "-" * 10**4 + "v^2"))
        assert err.line == 6
        assert f"more than {MAX_DEPTH} levels" in str(err)
