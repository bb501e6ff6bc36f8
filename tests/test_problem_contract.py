"""Malformed-input contract of problem files and scale literals.

`tsvar solve` must exit 2 with exactly one stderr line and nothing on
stdout on a malformed problem file, and so must `tsvar calc int` on a
malformed SCALE argument, whether it is an inline literal or a file. The
line is pinned here word for word, and so is the order in which a file with
several faults reports them:

1. section structure, in line order;
2. a missing [timescale], then a missing [problem];
3. the [timescale] lines;
4. the [problem] lines, in line order;
5. the values in the order u, L, alpha, beta, h, with u = 0 right after u;
6. the range of h;
7. the [constraint] lines, then w (with w = 0), G and K;
8. the checks of Problem and IsoProblem themselves.
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

# lines 10 to 14 of an isoperimetric file
CONSTRAINT = """
[constraint]
w = 1
G = y
K = 0.1
"""

ISO = PROBLEM + CONSTRAINT

# the grid of PROBLEM's scale at h = 0.25
SAMPLE = "t,value\n0,0\n0.25,1\n0.5,1\n0.75,1\n1,1\n"


def _edit(text: str, *pairs: tuple[str, str]) -> str:
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new)
    return text


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _solve(tmp_path, text: str, *extra: str) -> tuple[int, str, str]:
    path = tmp_path / "problem.prob"
    path.write_text(text)
    return _run(["solve", str(path), *extra])


def _calc_int(tmp_path, scale: str) -> tuple[int, str, str]:
    sample = tmp_path / "sample.csv"
    sample.write_text(SAMPLE)
    return _run(["calc", "int", scale, "--f", str(sample)])


NOTHING = ("u = 0 makes the problem trivial: every admissible trajectory gives "
           "the same value, so there is nothing to extremize")

# name -> (problem file text, message without the "error: " prefix)
PROBLEM_CASES = {
    # section structure
    "malformed_header": (_edit(PROBLEM, ("[problem]", "[problem")),
                         "line 4: malformed section header '[problem'"),
    "unknown_section": (_edit(PROBLEM, ("[problem]", "[solver]")),
                        "line 4: unknown section [solver]"),
    "duplicate_section": (PROBLEM + "[timescale]\ninterval 2 3\n",
                          "line 10: duplicate section [timescale]"),
    "content_outside": ("u = 1\n" + PROBLEM, "line 1: content outside any section"),
    "no_timescale": (_edit(PROBLEM, ("[timescale]\ninterval 0 1\n", "")),
                     "missing [timescale] section"),
    "no_problem": (PROBLEM.split("[problem]")[0], "missing [problem] section"),
    "empty_timescale": (_edit(PROBLEM, ("interval 0 1\n", "")),
                        "[timescale] section is empty"),
    # [problem] lines
    "no_equals": (_edit(PROBLEM, ("u = 1", "u 1")),
                  "line 5: expected 'key = value' in [problem]"),
    "unknown_key": (_edit(PROBLEM, ("h = 0.25", "step = 0.25")),
                    "line 9: unknown key 'step' in [problem]"),
    "duplicate_key": (_edit(PROBLEM, ("h = 0.25", "alpha = 0")),
                      "line 9: duplicate key 'alpha' in [problem]"),
    # [problem] values
    "missing_u": (_edit(PROBLEM, ("u = 1\n", "")), "missing key 'u' in [problem]"),
    "missing_L": (_edit(PROBLEM, ("L = v^2 + y^2\n", "")),
                  "missing key 'L' in [problem]"),
    "missing_beta": (_edit(PROBLEM, ("beta = 1\n", "")),
                     "missing key 'beta' in [problem]"),
    "u_not_a_number": (_edit(PROBLEM, ("u = 1", "u = one")),
                       "line 5: value of 'u' is not a number: 'one'"),
    "alpha_not_a_number": (_edit(PROBLEM, ("alpha = 0", "alpha = x")),
                           "line 7: value of 'alpha' is not a number: 'x'"),
    "alpha_overflows": (_edit(PROBLEM, ("alpha = 0", "alpha = 1e309")),
                        "line 7: value of 'alpha' is not a finite number: '1e309'"),
    "beta_nan": (_edit(PROBLEM, ("beta = 1", "beta = nan")),
                 "line 8: value of 'beta' is not a finite number: 'nan'"),
    "h_not_a_number": (_edit(PROBLEM, ("h = 0.25", "h = fine")),
                       "line 9: value of 'h' is not a number: 'fine'"),
    "u_zero": (_edit(PROBLEM, ("u = 1", "u = 0")), f"line 5: {NOTHING}"),
    "u_negative_zero": (_edit(PROBLEM, ("u = 1", "u = -0.0")), f"line 5: {NOTHING}"),
    "bad_L": (_edit(PROBLEM, ("L = v^2 + y^2", "L = v^")),
              "line 6: bad expression for 'L': expected a number, variable, "
              "function or '(', found end of input at offset 2"),
    "empty_L": (_edit(PROBLEM, ("L = v^2 + y^2", "L =")),
                "line 6: bad expression for 'L': expected a number, variable, "
                "function or '(', found end of input at offset 0"),
    "h_zero": (_edit(PROBLEM, ("h = 0.25", "h = 0")),
               "step h must be positive and finite, got 0.0"),
    "h_negative": (_edit(PROBLEM, ("h = 0.25", "h = -0.5")),
                   "step h must be positive and finite, got -0.5"),
    # [constraint]
    "constraint_no_equals": (_edit(ISO, ("w = 1", "w 1")),
                             "line 12: expected 'key = value' in [constraint]"),
    "constraint_unknown_key": (_edit(ISO, ("K = 0.1", "u = 1")),
                               "line 14: unknown key 'u' in [constraint]"),
    "constraint_duplicate_key": (_edit(ISO, ("K = 0.1", "G = y")),
                                 "line 14: duplicate key 'G' in [constraint]"),
    "missing_w": (_edit(ISO, ("w = 1\n", "")), "missing key 'w' in [constraint]"),
    "missing_G": (_edit(ISO, ("G = y\n", "")), "missing key 'G' in [constraint]"),
    "missing_K": (_edit(ISO, ("K = 0.1\n", "")), "missing key 'K' in [constraint]"),
    "w_zero": (_edit(ISO, ("w = 1", "w = 0")),
               "line 12: w = 0 makes the constraint trivial"),
    "bad_G": (_edit(ISO, ("G = y", "G = y +")),
              "line 13: bad expression for 'G': expected a number, variable, "
              "function or '(', found end of input at offset 3"),
    "K_overflows": (_edit(ISO, ("K = 0.1", "K = -1e400")),
                    "line 14: value of 'K' is not a finite number: '-1e400'"),
    # the problem's own checks
    "one_point_scale": (_edit(PROBLEM, ("interval 0 1", "points 1")),
                        "variational problems need a scale with a < b"),
}

# two faults in one file: the message is the one the order above puts first
ORDER_CASES = {
    # a structure fault after a line fault
    "structure_before_lines": (_edit(PROBLEM, ("u = 1", "u 1")) + "[solver]\n",
                               "line 10: unknown section [solver]"),
    # a bad [timescale] line in a file without [problem]
    "missing_problem_before_scale_lines": (
        _edit(PROBLEM.split("[problem]")[0], ("interval 0 1", "interval 1 0")),
        "missing [problem] section"),
    "scale_lines_before_problem_lines": (
        _edit(PROBLEM, ("interval 0 1", "interval 1 0"), ("u = 1", "u 1")),
        "line 2: interval endpoints out of order: 'interval 1 0'"),
    "problem_lines_in_line_order": (
        _edit(PROBLEM, ("alpha = 0", "alpha 0"), ("h = 0.25", "h = 0.25 = 1\nh = 1")),
        "line 7: expected 'key = value' in [problem]"),
    "lines_before_values": (
        _edit(PROBLEM, ("u = 1", "u = 0"), ("h = 0.25", "step = 0.25")),
        "line 9: unknown key 'step' in [problem]"),
    # values in key order, not line order
    "u_before_an_earlier_line": (
        "[timescale]\ninterval 0 1\n[problem]\nbeta = x\nL = v^\nalpha = 0\nu = 0\n",
        f"line 7: {NOTHING}"),
    "L_before_alpha": (_edit(PROBLEM, ("alpha = 0", "alpha = x"),
                             ("L = v^2 + y^2", "L = (")),
                       "line 6: bad expression for 'L': expected a number, variable, "
                       "function or '(', found end of input at offset 1"),
    "alpha_before_missing_beta": (
        _edit(PROBLEM, ("alpha = 0", "alpha = x"), ("beta = 1\n", "")),
        "line 7: value of 'alpha' is not a number: 'x'"),
    "beta_before_h_range": (_edit(PROBLEM, ("beta = 1", "beta = inf"), ("h = 0.25", "h = 0")),
                            "line 8: value of 'beta' is not a finite number: 'inf'"),
    "h_range_before_constraint": (_edit(ISO, ("h = 0.25", "h = 0"), ("w = 1", "w 1")),
                                  "step h must be positive and finite, got 0.0"),
    "constraint_lines_before_values": (
        _edit(ISO, ("w = 1", "w = 0"), ("K = 0.1", "K 0.1")),
        "line 14: expected 'key = value' in [constraint]"),
    "w_zero_before_G": (_edit(ISO, ("w = 1", "w = 0"), ("G = y", "G = (")),
                        "line 12: w = 0 makes the constraint trivial"),
    "G_before_K": (_edit(ISO, ("K = 0.1", "K = x"), ("G = y\n", "")),
                   "missing key 'G' in [constraint]"),
    "constraint_before_problem_checks": (
        _edit(ISO, ("interval 0 1", "points 1"), ("K = 0.1", "K = x")),
        "line 14: value of 'K' is not a number: 'x'"),
}


@pytest.mark.parametrize("case", sorted(PROBLEM_CASES))
def test_malformed_problem_exits_2_with_one_line(tmp_path, case):
    text, message = PROBLEM_CASES[case]
    assert _solve(tmp_path, text) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_first_fault_in_contract_order(tmp_path, case):
    text, message = ORDER_CASES[case]
    assert _solve(tmp_path, text) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("h", ["0", "-1", "inf"])
def test_h_option_range(tmp_path, h):
    expected = f"error: step h must be positive and finite, got {float(h)!r}\n"
    assert _solve(tmp_path, PROBLEM, "--h", h) == (2, "", expected)


def test_h_option_leaves_the_file_value_unread(tmp_path):
    # only the option's value is checked; the key itself must still be well formed
    text = _edit(PROBLEM, ("h = 0.25", "h = fine"))
    assert _solve(tmp_path, text, "--h", "0.25") == _solve(tmp_path, PROBLEM)


# scale literal -> message, as an inline SCALE (line 1) and as the [timescale]
# line of a problem file (line 2)
SCALE_CASES = {
    "segment 0 1": "line {n}: unknown directive 'segment' (expected 'interval' or 'points')",
    "interval 0": "line {n}: 'interval' takes exactly two numbers",
    "interval 0 1 2": "line {n}: 'interval' takes exactly two numbers",
    "interval 1 0": "line {n}: interval endpoints out of order: 'interval 1 0'",
    "points": "line {n}: 'points' needs at least one number",
    "interval 0 x": "line {n}: not a number: 'x'",
    "interval 0 1e309": "line {n}: numbers must be finite: '1e309'",
    "points 0 nan": "line {n}: numbers must be finite: 'nan'",
}


@pytest.mark.parametrize("literal", sorted(SCALE_CASES))
def test_malformed_scale_literal(tmp_path, literal):
    message = SCALE_CASES[literal].format(n=1)
    assert _calc_int(tmp_path, literal) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("literal", sorted(SCALE_CASES))
def test_malformed_timescale_line(tmp_path, literal):
    message = SCALE_CASES[literal].format(n=2)
    text = _edit(PROBLEM, ("interval 0 1", literal))
    assert _solve(tmp_path, text) == (2, "", f"error: {message}\n")


# SCALE argument -> message; a "file:" prefix names a file with that text
SCALE_ARG_CASES = {
    "empty": ("", "time scale description is empty"),
    "blank": ("  ", "time scale description is empty"),
    "separators_only": (" ; ;", "time scale description is empty"),
    "second_literal_line": ("interval 0 1; points x", "line 2: not a number: 'x'"),
    "empty_file": ("file:", "time scale description is empty"),
    "scale_file": ("file:interval 0 1\n# note\npoints 2 y\n", "line 3: not a number: 'y'"),
    # a file's items keep their own line's number, also after a ';'
    "scale_file_item_after_separator": ("file:interval 0 1\n# c\npoints 2; points x\n",
                                        "line 3: not a number: 'x'"),
    "sections_without_timescale": ("file:[problem]\nu = 1\n",
                                   "file has sections but no [timescale]"),
    "sectioned_file_structure": ("file:" + _edit(PROBLEM, ("[problem]", "[solver]")),
                                 "line 4: unknown section [solver]"),
    "sectioned_file_scale_line": ("file:" + _edit(PROBLEM, ("interval 0 1", "points")),
                                  "line 2: 'points' needs at least one number"),
    "sectioned_file_empty_timescale": ("file:" + _edit(PROBLEM, ("interval 0 1\n", "")),
                                       "[timescale] section is empty"),
}


@pytest.mark.parametrize("case", sorted(SCALE_ARG_CASES))
def test_malformed_scale_argument(tmp_path, case):
    arg, message = SCALE_ARG_CASES[case]
    if arg.startswith("file:"):
        path = tmp_path / "scale.txt"
        path.write_text(arg[len("file:"):])
        arg = str(path)
    assert _calc_int(tmp_path, arg) == (2, "", f"error: {message}\n")


def test_plain_scale_file_with_a_bracket_in_a_comment(tmp_path):
    # only a line that starts with '[' makes a file sectioned; comments are
    # not read for that
    expected = _calc_int(tmp_path, "interval 0 1")
    path = tmp_path / "scale.txt"
    path.write_text("# unit interval [0, 1]\ninterval 0 1\n")
    assert _calc_int(tmp_path, str(path)) == expected == (0, "0.75\n", "")


@pytest.mark.parametrize("text", ["# unit interval; closed\ninterval 0 1\n",
                                  "interval 0 1; # note\n"])
def test_plain_scale_file_semicolon_in_a_comment(tmp_path, text):
    # in a plain scale file ';' separates items but does not end a comment:
    # a comment line is dropped whole, and so is an item that starts with '#'
    expected = _calc_int(tmp_path, "interval 0 1")
    path = tmp_path / "scale.txt"
    path.write_text(text)
    assert _calc_int(tmp_path, str(path)) == expected == (0, "0.75\n", "")


def test_scale_file_reads_only_its_timescale(tmp_path):
    # as a SCALE, a problem file gives its [timescale]; its other sections
    # are checked for structure only
    expected = _calc_int(tmp_path, "interval 0 1")
    assert expected == (0, "0.75\n", "")
    path = tmp_path / "scale.prob"
    path.write_text(_edit(ISO, ("u = 1", "u = 0"), ("G = y", "G = (")))
    assert _calc_int(tmp_path, str(path)) == expected
