import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EXPRESSION_SUITE, central_diff
from tsvar import Lagrangian, differentiate, evaluate, to_text
from tsvar.errors import (
    EvaluationError,
    ExpressionSyntaxError,
    ParameterError,
    UnknownIdentifierError,
)
from tsvar.lagrangian import (
    MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    evaluate_array,
    parse,
)


class TestParse:
    def test_power_node(self):
        e = parse("v^2")
        assert e == BinOp("^", Var("v"), Num(2.0))

    def test_sum_of_power_and_product(self):
        e = parse("v^2 + t*y")
        assert e == BinOp("+", BinOp("^", Var("v"), Num(2.0)),
                          BinOp("*", Var("t"), Var("y")))

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("sin(t*")
        assert err.value.offset == 6
        assert "expected" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("v^2 + x")
        assert err.value.offset == 6

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("tan(t)")

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("t )")

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("t % 2")
        assert err.value.offset == 2

    @pytest.mark.parametrize("text, offset", [("1²", 1), ("y^¹", 2), ("y*²", 2)])
    def test_superscript_digit_is_a_bad_character(self, text, offset):
        # float() reads decimal digits only, so '²' is no digit
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_other_decimal_digits_are_numbers(self):
        assert parse("y*٣") == parse("y*3")

    def test_precedence(self):
        assert evaluate(parse("1 + 2*3^2"), 0, 0, 0) == 19.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0, 0, 0) == 512.0

    def test_left_associative_subtraction(self):
        assert evaluate(parse("8 - 3 - 2"), 0, 0, 0) == 3.0

    def test_unary_minus_binds_before_power(self):
        # the grammar reads -t^2 as (-t)^2
        assert evaluate(parse("-2^2"), 0, 0, 0) == 4.0

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5E2"), 0, 0, 0) == pytest.approx(250.001)

    def test_variable_exponent_rewritten(self):
        # y^v evaluates as exp(v * log(y)) for positive y
        e = parse("y^v")
        assert evaluate(e, 0.0, 2.0, 3.0) == pytest.approx(8.0, rel=1e-12)

    def test_constant_folding(self):
        assert parse("2*3 + 1") == Num(7.0)
        assert parse("sin(0)") == Num(0.0)


def _value(e) -> float | None:
    """The value of e at y = 1, or None when it is singular. Finite values
    compare bit for bit with ==, but for the sign of zero, which the
    simplification 0*y -> 0 does not keep."""
    try:
        return evaluate(e, 0.0, 1.0, 0.0)
    except EvaluationError:
        return None


CONSTANTS = st.one_of(st.floats(min_value=-20.0, max_value=20.0),
                      st.floats(allow_nan=False, allow_infinity=False))


class TestFolding:
    """A constant folded at parse time is the value the evaluator gives the
    tree as written."""

    @pytest.mark.parametrize("func", ["sin", "cos", "exp", "log", "sqrt"])
    @settings(max_examples=300)
    @given(c=CONSTANTS)
    @example(c=1.5257325287711296)  # math.exp and np.exp differ here
    def test_call_folds_to_the_evaluated_value(self, func, c):
        written = BinOp("*", Call(func, Num(c)), Var("y"))
        assert _value(parse(f"{func}({c!r})*y")) == _value(written)

    @settings(max_examples=300)
    @given(base=CONSTANTS, exponent=st.one_of(
        st.integers(-6, 6).map(float), st.floats(min_value=-4.0, max_value=4.0),
        st.floats(allow_nan=False, allow_infinity=False)))
    @example(base=4140292120531529.0, exponent=1.2653429940260468)  # math.pow differs
    def test_power_folds_to_the_evaluated_value(self, base, exponent):
        written = BinOp("*", BinOp("^", Num(base), Num(exponent)), Var("y"))
        assert _value(parse(f"({base!r})^({exponent!r})*y")) == _value(written)

    @pytest.mark.parametrize(
        "text", ["1/0", "log(0)", "sqrt(-1)", "0^-1", "exp(1000)", "(-8)^(1/3)"])
    def test_singular_constant_stays_unfolded(self, text):
        e = parse(text)
        assert not isinstance(e, Num)
        with pytest.raises(EvaluationError):
            evaluate(e, 0.0, 0.0, 0.0)


class TestNestingLimit:
    """Expressions that nest deeper than MAX_DEPTH are refused at parse
    time, before a recursive walk can exhaust Python's stack."""

    # each shape nesting n levels deep
    SHAPES = {
        "sum": lambda n: " + ".join(["y"] * (n + 1)),
        "parentheses": lambda n: "(" * n + "y*v" + ")" * n,
        "unary minus": lambda n: "-" * n + "y*v",
        # the deepest second partials per level that CHANGES.md records
        "quotients": lambda n: "/".join(["(1+y)"] * n),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_the_limit_every_walk_works(self, shape):
        # under the default recursion limit, which pytest keeps
        lag = Lagrangian.from_text(self.SHAPES[shape](MAX_DEPTH))
        t = np.linspace(0.1, 0.9, 5)
        for e in (lag.L, lag.dL_dy, lag.dL_dv, *lag.second_partials):
            assert np.isfinite(evaluate_array(e, t, t, t)).all()
            assert to_text(e)
        if shape == "sum":
            assert evaluate(lag.L, 0.0, 0.5, 0.0) == 0.5 * (MAX_DEPTH + 1)

    @pytest.mark.parametrize("shape", ["sum", "parentheses", "unary minus"])
    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 10**4])
    def test_deeper_is_refused(self, shape, levels):
        with pytest.raises(ExpressionSyntaxError,
                           match=f"nests more than {MAX_DEPTH} levels"):
            parse(self.SHAPES[shape](levels))


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("v^2"), "v")
        assert d == BinOp("*", Num(2.0), Var("v"))

    def test_product_partial(self):
        d = differentiate(parse("t*y"), "y")
        assert evaluate(d, 3.0, 100.0, 0.0) == 3.0

    def test_chain_rule_sin(self):
        d = differentiate(parse("sin(t)*v"), "t")
        for t in (0.0, 0.7, 2.0):
            assert evaluate(d, t, 0.0, 4.0) == pytest.approx(math.cos(t) * 4.0, rel=1e-12)

    def test_quotient_rule(self):
        d = differentiate(parse("y/(1 + t^2)"), "t")
        fn = lambda t: 2.0 / (1 + t * t)
        for t in (0.2, 1.0, 1.5):
            assert evaluate(d, t, 2.0, 0.0) == pytest.approx(central_diff(fn, t), abs=1e-8)

    def test_variable_exponent_derivative(self):
        d = differentiate(parse("y^v"), "v")
        fn = lambda v: 2.0 ** v
        assert evaluate(d, 0.0, 2.0, 1.5) == pytest.approx(central_diff(fn, 1.5), abs=1e-8)

    def test_bad_variable(self):
        with pytest.raises(ParameterError):
            differentiate(parse("t"), "x")


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("v^2"), 0.0, 0.0, 3.0) == 9.0

    def test_product(self):
        assert evaluate(parse("t*y"), 2.0, 5.0, 0.0) == 10.0

    def test_log_negative_is_error(self):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("log(y)"), 0.0, -1.0, 0.0)
        assert err.value.y == -1.0

    def test_sqrt_negative_is_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(v)"), 0.0, 0.0, -4.0)

    def test_division_by_zero_is_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/t"), 0.0, 0.0, 0.0)

    def test_array_evaluation_matches_scalar(self):
        import numpy as np

        e = parse("sin(t)*v + exp(y/3)")
        ts = np.linspace(-1, 1, 7)
        ys = np.linspace(-2, 2, 7)
        vs = np.linspace(0.5, 3, 7)
        arr = evaluate_array(e, ts, ys, vs)
        for i in range(7):
            assert arr[i] == pytest.approx(
                evaluate(e, float(ts[i]), float(ys[i]), float(vs[i])), rel=1e-14)

    def test_array_evaluation_is_silent_on_singularities(self):
        import numpy as np

        e = parse("log(y)")
        arr = evaluate_array(e, np.zeros(2), np.array([-1.0, 1.0]), np.zeros(2))
        assert math.isnan(arr[0]) and arr[1] == 0.0


class TestSingularValues:
    """One rule: a value is singular when it is nan or infinite. evaluate
    raises EvaluationError at the first singular point; evaluate_array
    returns the non-finite value."""

    SINGULAR = [
        ("log(y)", (0.0, -1.0, 0.0)),
        ("sqrt(v)", (0.0, 0.0, -4.0)),
        ("1/t", (0.0, 0.0, 0.0)),
        ("exp(y)", (0.0, 1000.0, 0.0)),
        ("y*y*1e300", (0.0, 1e10, 0.0)),
    ]

    @pytest.mark.parametrize("text, point", [
        ("sin(t)*v + exp(y/3)", (0.3, -1.2, 2.5)),
        ("sqrt(1 + v^2)*exp(y/4)", (0.0, 1.5, -0.75)),
        ("log(y)/t - cos(v)^3", (2.0, 0.5, 1.25)),
        ("y^t + t^2.5", (1.5, 3.0, 0.0)),
        ("1/(1/t)", (0.0, 0.0, 0.0)),
        ("-(t - y)/(v*v + 1)", (1e-300, -1e300, 1e150)),
    ])
    def test_scalar_and_array_agree(self, text, point):
        e = parse(text)
        value = evaluate(e, *point)
        assert type(value) is float
        arr = evaluate_array(e, *(np.full(3, x) for x in point))
        assert arr.tolist() == [value] * 3

    def test_reciprocal_of_reciprocal_at_zero_is_zero(self):
        assert evaluate(parse("1/(1/t)"), 0.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("text, point", SINGULAR)
    def test_singular_point(self, text, point):
        e = parse(text)
        with pytest.raises(EvaluationError) as err:
            evaluate(e, *point)
        assert (err.value.t, err.value.y, err.value.v) == point
        t, y, v = point
        assert str(err.value).startswith(
            f"cannot evaluate expression at t={t!r}, y={y!r}, v={v!r}: the value is ")
        assert not np.isfinite(evaluate_array(e, *point))

    def test_arrays_name_the_first_singular_point(self):
        ts = np.array([0.5, 1.0, 1.5, 2.0])
        ys = np.array([1.0, -2.0, -3.0, 4.0])
        vs = np.array([0.0, 0.25, 0.5, 0.75])
        e = parse("t*log(y) + v")
        with pytest.raises(EvaluationError) as err:
            evaluate(e, ts, ys, vs)
        assert (err.value.t, err.value.y, err.value.v) == (1.0, -2.0, 0.25)
        assert all(type(x) is float for x in (err.value.t, err.value.y, err.value.v))
        assert str(err.value) == (
            "cannot evaluate expression at t=1.0, y=-2.0, v=0.25: the value is nan")
        good = evaluate(e, ts, np.abs(ys), vs)
        assert good.tolist() == evaluate_array(e, ts, np.abs(ys), vs).tolist()

    def test_constant_takes_the_argument_shape(self):
        ts = np.linspace(0.0, 1.0, 5)
        for text in ("2.5", "sin(1) + 2"):
            arr = evaluate_array(parse(text), ts, ts, ts)
            assert arr.dtype == np.float64 and arr.shape == (5,)
            assert evaluate(parse(text), ts, ts, ts).tolist() == arr.tolist()
        arr = evaluate_array(parse("y"), ts, 2.0, ts)
        assert arr.shape == (5,) and arr.tolist() == [2.0] * 5
        point = evaluate_array(parse("3"), 0.0, 0.0, 0.0)
        assert isinstance(point, np.ndarray) and point.shape == ()


def test_symbolic_partials_match_finite_differences():
    rng = random.Random(99)
    for text in EXPRESSION_SUITE:
        e = parse(text)
        partials = {var: differentiate(e, var) for var in ("t", "y", "v")}
        for _ in range(25):
            t = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            v = rng.uniform(-2, 2)
            for var, d in partials.items():
                step = 1e-5
                args = {"t": t, "y": y, "v": v}
                lo, hi = dict(args), dict(args)
                lo[var] -= step
                hi[var] += step
                fd = (evaluate(e, hi["t"], hi["y"], hi["v"])
                      - evaluate(e, lo["t"], lo["y"], lo["v"])) / (2 * step)
                sym = evaluate(d, t, y, v)
                assert abs(sym - fd) <= 1e-6 * (1 + abs(sym)), (text, var, t, y, v)


def random_expr(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(-3, 3), 3))
        return Var(rng.choice(("t", "y", "v")))
    if roll < 0.45:
        return Neg(random_expr(rng, depth + 1))
    if roll < 0.6:
        func = rng.choice(("sin", "cos", "exp"))
        return Call(func, random_expr(rng, depth + 1))
    op = rng.choice(("+", "-", "*", "/"))
    return BinOp(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))


def test_print_parse_round_trip():
    rng = random.Random(4242)
    done = 0
    while done < 120:
        e = random_expr(rng)
        back = parse(to_text(e))
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            expected = evaluate(e, *point)
        except EvaluationError:
            continue
        if not math.isfinite(expected):
            continue
        assert evaluate(back, *point) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        done += 1


class TestLagrangian:
    def test_from_text_builds_partials(self):
        lag = Lagrangian.from_text("v^2 + t*y")
        assert evaluate(lag.dL_dv, 0.0, 0.0, 3.0) == 6.0
        assert evaluate(lag.dL_dy, 2.0, 0.0, 0.0) == 2.0
        assert evaluate(lag.L, 1.0, 2.0, 3.0) == 11.0

    def test_partials_are_exact_trees(self):
        lag = Lagrangian.from_text("v^2")
        assert to_text(lag.dL_dv) == "(2 * v)"
        assert lag.dL_dy == Num(0.0)

    def test_hessian_partials_are_exact_and_kept(self):
        lag = Lagrangian.from_text("v^2*y + exp(y)")
        L_yy, L_yv, L_vv = lag.second_partials
        assert [evaluate(e, 0.0, 0.0, 3.0) for e in (L_yy, L_yv, L_vv)] == [1.0, 6.0, 0.0]
        assert lag.second_partials[0] is L_yy


# -- programs ----------------------------------------------------------------------

def _text(inner):
    """One more level of the grammar around inner expressions."""
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), inner).map(
            lambda p: f"{p[0]}({p[1]})"),
        inner.map(lambda s: f"-({s})"),
    )


# expressions of the grammar, with numbers that fold to 0, -0, a subnormal,
# the largest floats and inf
GRAMMAR = st.recursive(
    st.sampled_from(["t", "y", "v", "0", "1", "2", "0.5", "3.25", "1e308", "1e999",
                     "5e-324", "1e-310"]),
    _text, max_leaves=10)
SPECIAL = [0.0, -0.0, 1.0, -1.5, 0.3, 2.0, 5e-324, 1e308, -1e308,
           math.inf, -math.inf, math.nan]


class TestProgram:
    """A Lagrangian's two programs give the tree walker's values bit for bit,
    and run each distinct subexpression once."""

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    @settings(max_examples=300, deadline=None)
    @given(text=GRAMMAR, points=st.lists(st.tuples(*[st.sampled_from(SPECIAL)] * 3),
                                         min_size=1, max_size=6))
    @example(text="3", points=[(0.0, 0.0, 0.0)])  # a constant
    @example(text="-0 + 0*y", points=[(0.0, 0.0, 0.0)])  # -0.0
    @example(text="1/0 + log(0)*v", points=[(1.0, 2.0, 3.0)])  # nan, inf, -inf
    @example(text="sqrt(-1) + y/t", points=[(0.0, -0.0, 1.0), (-0.0, 1.0, 2.0)])
    def test_programs_are_the_tree_walker(self, text, points):
        from tsvar.lagrangian import _ev_arr

        lag = Lagrangian.from_text(text)
        t, y, v = (np.array(column) for column in zip(*points))
        for program, exprs in ((lag.first_order, (lag.L, lag.dL_dy, lag.dL_dv)),
                               (lag.second_order, lag.second_partials)):
            with np.errstate(all="ignore"):
                got = program(t, y, v)
                want = [_ev_arr(e, t, y, v) for e in exprs]
            for g, w in zip(got, want):
                # a constant stays a scalar, as in the tree walk
                assert isinstance(g, np.ndarray) == isinstance(w, np.ndarray)
                assert np.array_equal(self.bits(g), self.bits(w))

    def test_quotient_chain_runs_each_distinct_subexpression_once(self):
        from tsvar.lagrangian import _ev_arr

        lag = Lagrangian.from_text("/".join(["(1+y)"] * MAX_DEPTH))
        # value numbering: a node's number is that of its operation and its
        # operands' numbers, so equal subexpressions share one
        numbers = {}
        memo = {}

        def number(e):
            if id(e) not in memo:
                if isinstance(e, BinOp):
                    key = (e.op, number(e.left), number(e.right))
                elif isinstance(e, (Call, Neg)):
                    key = (getattr(e, "func", "neg"), number(e.arg))
                else:  # a leaf, which takes no operation
                    key = ("leaf", repr(e), math.copysign(1.0, getattr(e, "value", 1.0)))
                memo[id(e)] = numbers.setdefault(key, len(numbers))
            return memo[id(e)]

        for e in lag.second_partials:
            number(e)
        operations = sum(key[0] != "leaf" for key in numbers)
        assert len(lag.second_order) <= operations
        ts = np.linspace(0.1, 0.9, 7)
        with np.errstate(all="ignore"):
            got = lag.second_order(ts, ts, ts)
            want = [_ev_arr(e, ts, ts, ts) for e in lag.second_partials]
        for g, w in zip(got, want):
            assert np.array_equal(self.bits(g), self.bits(w))
