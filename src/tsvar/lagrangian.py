"""Parsing, symbolic differentiation and evaluation of integrand expressions.

Expressions are built over the variables t, y, v with + - * / ^, unary minus
and the functions sin, cos, exp, log, sqrt. Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := number | var | func '(' expr ')' | '(' expr ')' | '-' base

'^' is right associative. A power with a non-constant exponent is rewritten
through exp/log at parse time so symbolic derivatives stay exact. Nesting is
bounded by MAX_DEPTH, so that every recursive walk over a tree stays within
Python's default recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Union

import numpy as np

from .errors import (
    EvaluationError,
    ExpressionSyntaxError,
    ParameterError,
    UnknownIdentifierError,
)

__all__ = [
    "Num", "Var", "Neg", "BinOp", "Call", "Expr",
    "parse", "differentiate", "evaluate", "evaluate_array", "to_text",
    "Lagrangian",
]

VARIABLES = ("t", "y", "v")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

# The most levels an expression may nest: parentheses, calls, unary minus
# signs and powers open at once while parsing, and levels below the root of
# the parsed tree, where each operator of a chain such as y + y + y adds one.
# Every walk over a tree recurses, and a second partial can be six times as
# deep as its integrand (a chain of quotients); at this depth every walk
# keeps 400 of Python's default 1000 frames spare (CHANGES.md has the
# measurements).
MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_NUMPY = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}


# -- tokenizer ---------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r} at offset {i}",
                                    offset=i)
    tokens.append(("end", "", n))
    return tokens


# -- folding constructors ------------------------------------------------------

def _neg(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


_APPLY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _make(op: str, left: Expr, right: Expr) -> Expr:
    lv = left.value if isinstance(left, Num) else None
    rv = right.value if isinstance(right, Num) else None
    if lv is not None and rv is not None:
        try:
            folded = _APPLY[op](lv, rv)
        except ZeroDivisionError:
            folded = math.nan
        if math.isfinite(folded):
            return Num(folded)
    if op == "+":
        if lv == 0.0:
            return right
        if rv == 0.0:
            return left
    elif op == "-":
        if rv == 0.0:
            return left
        if lv == 0.0:
            return _neg(right)
    elif op == "*":
        if lv == 0.0 or rv == 0.0:
            return Num(0.0)
        if lv == 1.0:
            return right
        if rv == 1.0:
            return left
    elif op == "/":
        if lv == 0.0:
            return Num(0.0)
        if rv == 1.0:
            return left
    return BinOp(op, left, right)


def _call(func: str, arg: Expr) -> Expr:
    if isinstance(arg, Num):
        with np.errstate(all="ignore"):
            folded = float(_NUMPY[func](arg.value))
        if math.isfinite(folded):
            return Num(folded)
    return Call(func, arg)


def _pow(base: Expr, exponent: Expr) -> Expr:
    if isinstance(exponent, Num):
        c = exponent.value
        if isinstance(base, Num):
            with np.errstate(all="ignore"):
                folded = float(np.power(base.value, c))
            if math.isfinite(folded):
                return Num(folded)
        if c == 1.0:
            return base
        if c == 0.0:
            return Num(1.0)
        return BinOp("^", base, exponent)
    # variable exponent: rewrite b^e as exp(e * log(b))
    return _call("exp", _make("*", exponent, _call("log", base)))


# -- parser ---------------------------------------------------------------------

def _too_deep(offset: int | None = None) -> ExpressionSyntaxError:
    where = f" at offset {offset}" if offset is not None else ""
    return ExpressionSyntaxError(
        f"expression nests more than {MAX_DEPTH} levels deep{where}; each "
        "operator, parenthesis and function call adds a level", offset=offset)


def _deeper_than_limit(e: Expr) -> bool:
    """Whether e's tree has more than MAX_DEPTH levels below its root,
    found level by level rather than by recursion."""
    level = [e]
    for _ in range(MAX_DEPTH + 1):
        level = [c for n in level
                 for c in ((n.arg,) if isinstance(n, (Neg, Call))
                           else (n.left, n.right) if isinstance(n, BinOp) else ())]
        if not level:
            return False
    return True


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses, calls, unary minus signs and powers open

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            found = repr(tok[1]) if tok[0] != "end" else "end of input"
            raise ExpressionSyntaxError(
                f"expected {what}, found {found} at offset {tok[2]}", offset=tok[2])
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {tok[1]!r} at offset {tok[2]}",
                offset=tok[2])
        if _deeper_than_limit(e):
            raise _too_deep()
        return e

    def nested(self, parse_inner: Callable[[], Expr]) -> Expr:
        """parse_inner() one level further in."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.peek()[2])
        e = parse_inner()
        self.depth -= 1
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = _make(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            e = _make(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        b = self.base()
        if self.peek()[0] == "^":
            self.take()
            return _pow(b, self.nested(self.factor))
        return b

    def base(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.take()
            return Num(float(text))
        if kind == "name":
            self.take()
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.nested(self.expr)
                self.expect(")", "')'")
                return _call(text, arg)
            raise UnknownIdentifierError(
                f"unknown identifier {text!r} at offset {offset}", offset=offset)
        if kind == "(":
            self.take()
            e = self.nested(self.expr)
            self.expect(")", "')'")
            return e
        if kind == "-":
            self.take()
            return _neg(self.nested(self.base))
        found = repr(text) if kind != "end" else "end of input"
        raise ExpressionSyntaxError(
            f"expected a number, variable, function or '(', found {found} "
            f"at offset {offset}", offset=offset)


def parse(text: str) -> Expr:
    """Parse expression text into a syntax tree."""
    return _Parser(text).parse()


# -- differentiation --------------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with constant folding of literal subtrees."""
    if var not in VARIABLES:
        raise ParameterError(f"cannot differentiate with respect to {var!r}")
    return _d(e, var)


def _d(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(_d(e.arg, var))
    if isinstance(e, Call):
        da = _d(e.arg, var)
        if e.func == "sin":
            return _make("*", _call("cos", e.arg), da)
        if e.func == "cos":
            return _make("*", _neg(_call("sin", e.arg)), da)
        if e.func == "exp":
            return _make("*", _call("exp", e.arg), da)
        if e.func == "log":
            return _make("/", da, e.arg)
        if e.func == "sqrt":
            return _make("/", da, _make("*", Num(2.0), _call("sqrt", e.arg)))
        raise ParameterError(f"unknown function {e.func!r}")
    da, db = _d(e.left, var), _d(e.right, var)
    if e.op == "+":
        return _make("+", da, db)
    if e.op == "-":
        return _make("-", da, db)
    if e.op == "*":
        return _make("+", _make("*", da, e.right), _make("*", e.left, db))
    if e.op == "/":
        num = _make("-", _make("*", da, e.right), _make("*", e.left, db))
        return _make("/", num, _make("*", e.right, e.right))
    # '^' always has a constant exponent after parsing
    c = e.right.value  # type: ignore[union-attr]
    return _make("*", _make("*", Num(c), _pow(e.left, Num(c - 1.0))), da)


# -- evaluation ---------------------------------------------------------------------

def evaluate(e: Expr, t: Any, y: Any, v: Any) -> float | np.ndarray:
    """Value of e at a point (a float) or at arrays of points (an array).

    A value is singular when it is nan or infinite; EvaluationError names
    the first singular point.
    """
    out = raise_if_singular(evaluate_array(e, t, y, v), t, y, v)
    return float(out) if out.ndim == 0 else out


def raise_if_singular(out: np.ndarray, t: Any, y: Any, v: Any) -> np.ndarray:
    """out, the values of an expression at (t, y, v), once none is singular;
    else EvaluationError names the first singular point."""
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        t, y, v = (float(np.broadcast_to(a, out.shape).flat[i]) for a in (t, y, v))
        raise EvaluationError(
            f"cannot evaluate expression at t={t!r}, y={y!r}, v={v!r}: "
            f"the value is {float(out.flat[i])!r}", t=t, y=y, v=v)
    return out


def evaluate_array(e: Expr, t: Any, y: Any, v: Any) -> np.ndarray:
    """Vectorized numpy evaluation; singular points yield nan or inf silently.

    The result is a float64 array with the broadcast shape of the arguments.
    """
    with np.errstate(all="ignore"):
        out = _ev_arr(e, t, y, v)
    if not isinstance(out, np.ndarray) or not out.ndim:  # a constant, or a point
        return np.full(np.broadcast(t, y, v).shape, out)
    return out


def _ev_arr(e: Expr, t: Any, y: Any, v: Any) -> Any:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else (y if e.name == "y" else v)
    if isinstance(e, Neg):
        return -_ev_arr(e.arg, t, y, v)
    if isinstance(e, Call):
        return _NUMPY[e.func](_ev_arr(e.arg, t, y, v))
    lv = _ev_arr(e.left, t, y, v)
    rv = _ev_arr(e.right, t, y, v)
    if e.op == "+":
        return lv + rv
    if e.op == "-":
        return lv - rv
    if e.op == "*":
        return lv * rv
    if e.op == "/":
        return np.divide(lv, rv)
    return np.power(lv, rv)


# -- printing ------------------------------------------------------------------------

def to_text(e: Expr) -> str:
    """Render a tree back to parseable text (fully parenthesized)."""
    if isinstance(e, Num):
        return f"{e.value:.17g}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_text(e.arg)})"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    return f"({to_text(e.left)} {e.op} {to_text(e.right)})"


# -- Lagrangians ------------------------------------------------------------------------

@dataclass(frozen=True)
class Lagrangian:
    """An integrand L(t, y, v) with exact symbolic partials in y and v, and
    the second partials (L_yy, L_yv, L_vv), built on first use and kept."""

    L: Expr
    dL_dy: Expr
    dL_dv: Expr

    @cached_property
    def second_partials(self) -> tuple[Expr, Expr, Expr]:
        return (differentiate(self.dL_dy, "y"),
                differentiate(self.dL_dy, "v"),
                differentiate(self.dL_dv, "v"))

    @classmethod
    def from_expr(cls, L: Expr) -> "Lagrangian":
        return cls(L, differentiate(L, "y"), differentiate(L, "v"))

    @classmethod
    def from_text(cls, text: str) -> "Lagrangian":
        return cls.from_expr(parse(text))
