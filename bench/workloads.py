"""The benchmark's workloads: seeded inputs, timed operations, checks, replays.

Each workload is built in two steps. `*_inputs(seed)` is the benchmark's own
side: numbers drawn from the seed, problem texts and trajectories computed
with numpy. `prepare(inputs, workdir)` is the program's side of the set-up:
the calls into tsvar a user makes before the first operation (parsing
problems, discretizing, writing input CSVs). It returns the pass: a fixed
list of operations. Each operation has

- `run(tr)`: the calls into tsvar that are timed, with spans around them;
- `check(out)`: the comparison of their outputs with computations made
  apart from tsvar (oracle.py), raising CheckFailed;
- `replay(tr, out)`: traced runs only, after the timing: the public calls
  that make up the same operation, one by one, for per-layer figures.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from oracle import CheckFailed, Integrand, expect

from tsvar import (
    GridFunction,
    IsoProblem,
    delta_deriv,
    delta_integral,
    epiderivative_closed,
    epiderivative_liminf,
    extend,
    liminf_params,
    parse_timescale,
    read_grid_csv,
    residual_column,
    solve,
    solve_iso,
    verify,
    write_grid_csv,
)
from tsvar import cli
from tsvar.lagrangian import Lagrangian, evaluate_array

__all__ = ["CheckFailed", "Op", "WORKLOADS", "probe"]

# The solvers stop when the gradient is below 1e-10; the gradient is the
# residual times |u| and a step of at least 1e-4, so 1e-6 bounds the
# residual of every converged solution in these workloads.
RES_TOL = 1e-6
VERIFY_TOL = 1e-6


@dataclass
class Op:
    name: str
    points: int
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    replay: Callable[[Any, Any], None]
    known_fault: str | None = None


@dataclass
class Pass:
    ops: list[Op]
    warmup: int
    check_setup: Callable[[], None] = lambda: None


# -- problems ---------------------------------------------------------------------

MIXED = ((0.0, 1.0), (1.5, 1.5), (2.0, 2.0), (3.0, 4.0))  # intervals and points

@dataclass(frozen=True)
class Spec:
    """One variational problem, as the benchmark knows it."""

    family: str
    segments: tuple
    u: float
    f: Integrand
    alpha: float
    beta: float
    h: float
    G: Integrand | None = None
    w: float = 1.0
    K: float = 0.0
    c: float = 1.0  # bump height: the isoperimetric solution is c*t*(1-t)

    @property
    def scale_text(self) -> str:
        return "\n".join(oracle.scale_lines(self.segments))

    @property
    def text(self) -> str:
        out = (f"[timescale]\n{self.scale_text}\n[problem]\nu = {self.u!r}\n"
               f"L = {self.f.text}\nalpha = {self.alpha!r}\nbeta = {self.beta!r}\n"
               f"h = {self.h!r}\n")
        if self.G is not None:
            out += f"[constraint]\nw = {self.w!r}\nG = {self.G.text}\nK = {self.K!r}\n"
        return out

    @property
    def discrete(self) -> bool:
        return all(l == r for l, r in self.segments)


def bump(c: float, h: float) -> Spec:
    return Spec("bump", ((0.0, 1.0),), 1.0, oracle.V2, 0.0, 0.0, h,
                G=Integrand("y"), w=1.0, K=c / 6.0, c=c)


def _nodes(e) -> int:
    return 1 + sum(_nodes(getattr(e, f.name)) for f in fields(e)
                   if is_dataclass(getattr(e, f.name)))


def _replay_from_text(tr, text: str) -> None:
    with tr.span("lagrangian.from_text") as a:
        lag = Lagrangian.from_text(text)
    a["nodes"] = _nodes(lag.L) + _nodes(lag.dL_dy) + _nodes(lag.dL_dv)


def _solve(tr, problem, n: int):
    with tr.span("variational.solve", points=n) as a:
        sol = solve_iso(problem) if isinstance(problem, IsoProblem) else solve(problem)
        a["iters"] = sol.iterations
    with tr.span("variational.verify"):
        rep = verify(problem, sol.y, VERIFY_TOL)
    return sol, rep


def check_solution(spec: Spec, sol, rep) -> None:
    ts = oracle.discretize(spec.segments, spec.h)
    expect(np.array_equal(np.asarray(sol.y.grid.points, dtype=float), ts),
           f"{spec.family}: grid differs from the README discretization")
    ys = np.asarray(sol.y.values, dtype=float)
    expect(ys[0] == spec.alpha and ys[-1] == spec.beta,
           f"{spec.family}: boundary values are not met exactly")
    res_l = oracle.residual(spec.f, spec.u, ts, ys)
    res = res_l
    if spec.G is not None:
        expect(sol.normal_flag is True and sol.lam0 == 1.0,
               f"{spec.family}: expected a normal extremizer with lam0 = 1")
        res = res_l - sol.lam * oracle.residual(spec.G, spec.w, ts, ys)
    rmax = float(np.max(np.abs(oracle.interior(res))))
    expect(rmax <= RES_TOL, f"{spec.family}: residual {rmax:.3e} at the solution")
    expect(sol.residual_max <= RES_TOL,
           f"{spec.family}: reported residual {sol.residual_max:.3e}")
    # verify() checks the integrand's own condition, without multipliers
    rmax_l = float(np.max(np.abs(oracle.interior(res_l))))
    expect(abs(rep.residual_max - rmax_l) <= RES_TOL * max(1.0, rmax_l),
           f"{spec.family}: verify residual {rep.residual_max!r} vs {rmax_l!r}")
    expect(rep.boundary_ok and rep.passed == (rmax_l <= VERIFY_TOL),
           f"{spec.family}: verify verdict")
    J = float(oracle.functional(spec.f, spec.u, ts, ys))
    scale = oracle.functional_terms_abs(spec.f, spec.u, ts, ys)
    for got in (sol.functional_value, rep.functional_value):
        expect(abs(got - J) <= 1e-10 * scale + 1e-300,
               f"{spec.family}: functional value {got!r} vs {J!r}")
    if spec.G is not None:
        h = spec.h
        cons = float(oracle.functional(spec.G, spec.w, ts, ys))
        expect(abs(cons - spec.K) <= 1e-9, f"{spec.family}: constraint missed")
        dy = float(np.max(np.abs(ys - spec.c * ts * (1.0 - ts))))
        expect(dy <= spec.c * h, f"{spec.family}: |y - c t(1-t)| = {dy:.3e}")
        expect(abs(sol.lam - 4.0 * spec.c) <= 4.0 * spec.c * h,
               f"{spec.family}: multiplier {sol.lam!r} vs {4.0 * spec.c!r}")
        return
    if spec.f.kind == "quad":
        solver = oracle.brute_el_solve if spec.discrete else oracle.banded_el_solve
        ref = solver(spec.f, spec.u, ts, spec.alpha, spec.beta)
        expect(oracle.close(ys, ref, 1e-7, scale=1.0),
               f"{spec.family}: differs from the linear Euler-Lagrange solve")
    if spec.f.kind == "quad" and spec.f.b == 0.0 and spec.f.c == 0.0:
        a, b = ts[0], ts[-1]
        aff = spec.alpha + (spec.beta - spec.alpha) * (ts - a) / (b - a)
        expect(oracle.close(ys, aff, 1e-9, scale=1.0), f"{spec.family}: not affine")


def replay_problem(tr, spec: Spec, problem, sol, parse: bool) -> None:
    """The calls a solve is made of: parsing, discretizing, sampling,
    the residual column, and expression evaluation at the grid's size."""
    if parse:
        with tr.span("cli.parse_problem"):
            cli.parse_problem_file(spec.text)
    for ig in (spec.f, spec.G):
        if ig is not None:
            _replay_from_text(tr, ig.text)
    with tr.span("timescale.parse"):
        parse_timescale(spec.scale_text)
    n = len(sol.y.values)
    with tr.span("timescale.discretize", points=n):
        grid = problem.discretized()
    with tr.span("calculus.gridfunction"):
        GridFunction(grid, sol.y.values)
    with tr.span("variational.residual_column"):
        residual_column(problem, sol.y, lam0=sol.lam0, lam=sol.lam)
    ts, ys = np.asarray(grid.points), np.asarray(sol.y.values)
    _replay_eval(tr, problem.L, problem.u, ts, ys)


def _replay_eval(tr, lag: Lagrangian, u: float, ts, ys) -> None:
    tA, Y, V, _w = oracle.pack(u, ts, ys)
    with tr.span("lagrangian.eval", points=3 * len(tA)):
        for e in (lag.L, lag.dL_dy, lag.dL_dv):
            evaluate_array(e, tA, Y, V)


# -- the command line, in-process ------------------------------------------------------

def run_cli(tr, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with tr.span("cli.main"), redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _read(tr, path, scale=None):
    with tr.span("calculus.read_csv", bytes=os.path.getsize(path)):
        with open(path) as fh:
            return read_grid_csv(fh, scale=scale)


def replay_epideriv(tr, literal: str, path, t: float, u: float,
                    kmax: int | None = None) -> None:
    with tr.span("cli.replay"):
        with tr.span("timescale.parse"):
            scale = parse_timescale(literal)
        f = _read(tr, path, scale)
        with tr.span("epiderivative.extend"):
            fbar = extend(f)
        with tr.span("epiderivative.query"):
            epiderivative_closed(fbar, t, u)
            h0, k = liminf_params(fbar, t, u)
            epiderivative_liminf(fbar, t, u, h0, k if kmax is None else kmax)


def check_query(rc: int, text: str, ts, vs, t: float, u: float) -> None:
    expect(rc == 0, f"epideriv exited with {rc}")
    lines = text.splitlines()
    expect(len(lines) == 2 and lines[0] == "closed,liminf", "epideriv output format")
    closed, liminf = (float(x) for x in lines[1].split(","))
    ref = u * oracle.chord_slope(ts, vs, t, u)
    expect(oracle.close(closed, ref, 1e-12),
           f"closed epiderivative {closed!r} vs u*slope {ref!r}")
    expect(abs(liminf - closed) <= 1e-6 * max(1.0, abs(closed)),
           f"liminf estimate {liminf!r} vs closed form {closed!r}")


# -- sample files ------------------------------------------------------------------------

@dataclass
class Sample:
    """A sampled function on a discretized scale, written as a `t,value` CSV."""

    segments: tuple
    h: float
    values: np.ndarray
    path: Path = field(default=Path())

    @property
    def literal(self) -> str:
        return oracle.scale_literal(self.segments)

    @property
    def ts(self) -> np.ndarray:
        return oracle.discretize(self.segments, self.h)


def write_sample(s: Sample, path: Path) -> None:
    """Program-side preparation: discretize with tsvar and write the CSV."""
    grid = parse_timescale(s.literal).discretize(s.h)
    with open(path, "w") as fh:
        write_grid_csv(GridFunction(grid, s.values.tolist()), fh)
    s.path = path


def check_sample(s: Sample) -> None:
    """The written CSV holds the README grid and reads back bit for bit."""
    data = oracle.read_csv(s.path, "t,value")
    expect(np.array_equal(data[:, 0], s.ts), f"{s.path.name}: grid differs")
    expect(np.array_equal(data[:, 1], s.values), f"{s.path.name}: values differ")


# -- newton: medium grids, solve and verify ----------------------------------------------

def newton_inputs(seed: int) -> list[Spec]:
    rng = np.random.default_rng(seed)
    U = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    unit = ((0.0, 1.0),)
    return [
        Spec("v2+y2", unit, 1.0, Integrand("quad", 1.0, 1.0), U(-1, 1), U(-1, 1),
             1.0 / 3000),
        Spec("sqrtexp", unit, 1.0, Integrand("sqrtexp"), U(0.25, 0.35), U(1.15, 1.25),
             1.0 / 900),
        Spec("nabla", unit, -U(1.2, 1.8), Integrand("quad", 1.0, 1.0, U(-1, 1)),
             U(-1, 1), U(-1, 1), 1.0 / 2400),
        Spec("mixed", MIXED, 1.0, Integrand("quad", 1.0, 1.0), U(-1, 1), U(-1, 1),
             1.0 / 1000),
        bump(U(0.5, 2.0), 1.0 / 1000),
    ]


def newton_prepare(specs: list[Spec], workdir: Path) -> Pass:
    ops = []
    for spec in specs:
        problem = cli.parse_problem_file(spec.text)
        n = len(oracle.discretize(spec.segments, spec.h))

        def run(tr, problem=problem, n=n):
            return _solve(tr, problem, n)

        def check(out, spec=spec):
            check_solution(spec, *out)

        def replay(tr, out, spec=spec, problem=problem):
            replay_problem(tr, spec, problem, out[0], parse=True)

        ops.append(Op(spec.family, n, run, check, replay))
    return Pass(ops, warmup=len(ops))


# -- fine-grid: 1e5 and 2.5e5 points through the CLI, CSV in and out ----------------------


@dataclass
class FineInputs:
    specs_a: list      # three problems on the mixed scale, all read traj_a
    spec_b: Spec       # one interval, backward, quadratic integrand
    traj_a: Sample
    traj_b: Sample
    poly: Sample       # c0 + c1 t + c2 t^2 on the grid of traj_a
    coef: tuple
    t: float
    u: float


def _wave(rng, ts, alpha, beta):
    a, b = ts[0], ts[-1]
    x = (ts - a) / (b - a)
    ys = alpha + (beta - alpha) * x
    for k in (1, 2, 3):
        ys = ys + float(rng.uniform(-0.3, 0.3)) * np.sin(k * math.pi * x)
    ys[0], ys[-1] = alpha, beta
    return ys


def fine_inputs(seed: int, h_a: float = 2e-5, h_b: float = 2.0 / 200000) -> FineInputs:
    rng = np.random.default_rng(seed)
    U = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    alpha, beta = U(-0.5, 0.5), U(-0.5, 0.5)
    quad = lambda: Integrand("quad", U(0.5, 2), U(0, 2), U(-1, 1))  # noqa: E731
    specs_a = [
        Spec("residual-mixed-sqrtexp", MIXED, U(0.5, 1.5), Integrand("sqrtexp"),
             alpha, beta, h_a),
        Spec("residual-mixed-quad", MIXED, U(0.5, 1.5), quad(), alpha, beta, h_a),
        Spec("residual-mixed-nabla", MIXED, -U(0.5, 1.5), quad(), alpha, beta, h_a),
    ]
    spec_b = Spec("residual-interval", ((0.0, 2.0),), -U(0.5, 1.5), quad(),
                  U(-1, 1), U(-1, 1), h_b)
    ts_a = oracle.discretize(MIXED, h_a)
    ts_b = oracle.discretize(spec_b.segments, h_b)
    traj_a = Sample(MIXED, h_a, _wave(rng, ts_a, alpha, beta))
    traj_b = Sample(spec_b.segments, h_b, _wave(rng, ts_b, spec_b.alpha, spec_b.beta))
    coef = (U(-1, 1), U(-1, 1), U(-1, 1))
    poly = Sample(MIXED, h_a, coef[0] + coef[1] * ts_a + coef[2] * ts_a * ts_a)
    t, u = _query(rng, ts_a)
    return FineInputs(specs_a, spec_b, traj_a, traj_b, poly, coef, t, u)


def fine_prepare(inp: FineInputs, workdir: Path) -> Pass:
    write_sample(inp.traj_a, workdir / "traj_a.csv")
    write_sample(inp.traj_b, workdir / "traj_b.csv")
    write_sample(inp.poly, workdir / "poly.csv")

    def residual_op(spec: Spec, traj: Sample) -> Op:
        problem_path = workdir / f"{spec.family}.txt"
        problem_path.write_text(spec.text)
        out_path = workdir / f"{spec.family}.csv"
        argv = ["residual", str(problem_path), "--y", str(traj.path), "--out", str(out_path)]

        def check(out):
            expect(out[0] == 0, f"residual exited with {out[0]}")
            t, got = oracle.read_residual_csv(out_path)
            ts = traj.ts
            expect(np.array_equal(t, ts), "residual CSV: t column differs")
            ref = oracle.residual(spec.f, spec.u, ts, traj.values)
            expect(oracle.close(got[2:-2], ref[2:-2], 1e-8), "residual CSV: values differ")

        def replay(tr, out):
            with tr.span("cli.replay"):
                with tr.span("cli.parse_problem"):
                    problem = cli.parse_problem_file(spec.text)
                yfn = _read(tr, traj.path)
                with tr.span("timescale.discretize", points=len(yfn.values)):
                    grid = problem.discretized()
                with tr.span("calculus.gridfunction"):
                    yfn = GridFunction(grid, yfn.values)
                with tr.span("variational.residual_column"):
                    residual_column(problem, yfn, enforce_boundaries=False)
            _replay_from_text(tr, spec.f.text)
            with tr.span("timescale.parse"):
                parse_timescale(spec.scale_text)
            _replay_eval(tr, problem.L, spec.u, traj.ts, traj.values)

        return Op(spec.family, len(traj.values), lambda tr: run_cli(tr, argv), check, replay)

    b = inp.traj_b
    deriv_path = workdir / "calc-deriv.csv"
    deriv_argv = ["calc", "deriv", b.literal, "--f", str(b.path), "--out", str(deriv_path)]

    def deriv_check(out):
        expect(out[0] == 0, f"calc deriv exited with {out[0]}")
        data = oracle.read_csv(deriv_path, "t,value")
        ts = b.ts
        expect(np.array_equal(data[:, 0], ts[:-1]), "calc deriv: t column differs")
        expect(oracle.close(data[:, 1], np.diff(b.values) / np.diff(ts), 1e-12),
               "calc deriv: differs from the difference quotients")

    def deriv_replay(tr, out):
        with tr.span("cli.replay"):
            with tr.span("timescale.parse"):
                scale = parse_timescale(b.literal)
            f = _read(tr, b.path, scale)
            with tr.span("calculus.deriv"):
                d = delta_deriv(f)
            buf = io.StringIO()
            with tr.span("calculus.write_csv") as a:
                write_grid_csv(d, buf)
                text = buf.getvalue()
                Path(str(deriv_path) + ".replay").write_text(text)
            a["bytes"] = len(text)

    p = inp.poly
    int_argv = ["calc", "int", p.literal, "--f", str(p.path)]

    def int_check(out):
        expect(out[0] == 0, f"calc int exited with {out[0]}")
        ref = oracle.left_rect_poly(p.segments, p.h, inp.coef)
        ts = p.ts
        scale = float(np.sum(np.abs(p.values[:-1]) * np.diff(ts)))
        expect(oracle.close(float(out[1]), ref, 1e-10, scale=scale),
               f"calc int {out[1].strip()} vs closed form {ref!r}")

    def int_replay(tr, out):
        with tr.span("cli.replay"):
            with tr.span("timescale.parse"):
                scale = parse_timescale(p.literal)
            f = _read(tr, p.path, scale)
            with tr.span("calculus.integral"):
                delta_integral(f, f.grid.points[0], f.grid.points[-1])

    # The three residual commands on the mixed scale are the middle of the
    # pass: two operations take about half their time and two more than
    # twice it, so the median of a run falls among nine or more samples of
    # similar commands, not between two kinds.
    a = inp.traj_a
    epi_argv = ["epideriv", a.literal, "--f", str(a.path), f"--t={inp.t!r}",
                f"--u={inp.u!r}"]
    ops = [residual_op(spec, a) for spec in inp.specs_a] + [
        residual_op(inp.spec_b, inp.traj_b),
        Op("calc-deriv", len(b.values), lambda tr: run_cli(tr, deriv_argv),
           deriv_check, deriv_replay),
        Op("calc-int", len(p.values), lambda tr: run_cli(tr, int_argv),
           int_check, int_replay),
        Op("epideriv", len(a.values), lambda tr: run_cli(tr, epi_argv),
           lambda out: check_query(*out, a.ts, a.values, inp.t, inp.u),
           lambda tr, out: replay_epideriv(tr, a.literal, a.path, inp.t, inp.u)),
    ]

    def check_setup():
        for s in (inp.traj_a, inp.traj_b, inp.poly):
            check_sample(s)

    return Pass(ops, warmup=len(ops), check_setup=check_setup)


# -- many-small: thousands of small seeded problems and queries ---------------------------

# family -> (share of the problems, smallest and largest grid)
FAMILIES = {
    "quad-mixed": (0.40, 8, 300),
    "quad-discrete": (0.15, 5, 40),
    "v2-mixed": (0.15, 8, 300),
    "sqrtexp-mixed": (0.20, 8, 300),
    "bump": (0.10, 10, 300),
}
QUERIES_PER_PROBLEM = 2
DEEP_KMAX = 60
DEEP_SEED = 20101007  # the deep-refinement queries do not depend on --seed


def random_scale(rng, n_int: int, n_pts: int, stretch: float = 1.0) -> tuple:
    """Intervals and isolated points in random order, with random lengths
    and gaps, all multiplied by `stretch`."""
    kinds = ["I"] * n_int + ["P"] * n_pts
    rng.shuffle(kinds)
    x = round(float(rng.uniform(-1, 1)), 3)
    segs = []
    for k in kinds:
        if k == "I":
            r = round(x + stretch * float(rng.uniform(0.3, 1.5)), 3)
            segs.append((x, r))
            x = r
        else:
            segs.append((x, x))
        x = round(x + stretch * float(rng.uniform(0.1, 0.8)), 3)
    return tuple(segs)


def step_for(segments, size: int) -> float:
    """A step that gives the scale about `size` grid points."""
    lengths = [r - l for l, r in segments if l < r]
    n_int, n_pts = len(lengths), len(segments) - len(lengths)
    if not lengths:
        return 1.0
    return sum(lengths) / max(size - n_int - n_pts, n_int)


def _problem(rng, family: str, size: int) -> Spec:
    U = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if family == "bump":
        return bump(U(0.5, 2.0), 1.0 / (size - 1))
    if family == "quad-discrete":
        segs = random_scale(rng, 0, size)
        f = Integrand("quad", U(0.5, 2), U(0, 2), U(-1, 1))
    else:
        # sqrt(1+v^2)*exp(y/4) has no extremal between far-apart ends, as
        # the catenary has none: keep its scales within about two units
        stretch = 0.25 if family == "sqrtexp-mixed" else 1.0
        segs = random_scale(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), stretch)
        f = {"quad-mixed": Integrand("quad", U(0.5, 2), U(0, 2), U(-1, 1)),
             "v2-mixed": oracle.V2,
             "sqrtexp-mixed": Integrand("sqrtexp")}[family]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if family == "sqrtexp-mixed":
        u = sign * U(0.5, 1.5)
        alpha = U(-0.5, 0.5)
        beta = alpha + U(-0.5, 0.5)
    else:
        u = sign * U(0.5, 2.0)
        alpha, beta = U(-1, 1), U(-1, 1)
    return Spec(family, segs, u, f, alpha, beta, step_for(segs, size))


def _sample(rng, n_int: int, n_pts: int, size: int, lo: float, hi: float) -> Sample:
    segs = random_scale(rng, n_int, n_pts)
    h = step_for(segs, size)
    ts = oracle.discretize(segs, h)
    values = (float(rng.uniform(lo, hi)) + float(rng.uniform(-1, 1)) * ts
              + 0.5 * np.sin(float(rng.uniform(1, 6)) * ts + float(rng.uniform(0, 6))))
    return Sample(segs, h, values)


def _query(rng, ts) -> tuple[float, float]:
    """A point and a direction whose one-sided piece exists."""
    u = (1.0 if rng.random() < 0.5 else -1.0) * float(rng.uniform(0.5, 2.0))
    i = int(rng.integers(0, len(ts) - 1)) + (0 if u > 0 else 1)
    if rng.random() < 0.5:
        return float(ts[i]), u
    j = i + 1 if u > 0 else i - 1
    return float((ts[i] + ts[j]) / 2), u


@dataclass
class ManyInputs:
    problems: list[Spec]
    samples: list[Sample]
    queries: list[list[tuple[int, float, float]]]
    deep_samples: list[Sample]
    deep_queries: list[tuple[float, float]]


def many_inputs(seed: int, n_problems: int = 2500, n_samples: int = 64) -> ManyInputs:
    rng = np.random.default_rng(seed)
    problems = []
    for family, (share, lo, hi) in FAMILIES.items():
        count = max(1, round(share * n_problems))
        for k in range(count):
            frac = (k + float(rng.random())) / count
            size = int(round(lo * (hi / lo) ** frac))
            problems.append(_problem(rng, family, size))
    problems = [problems[i] for i in rng.permutation(len(problems))]
    # sample sizes from a ladder, and every sample queried equally often
    samples = [_sample(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                       round(6 + 54 * (k + float(rng.random())) / n_samples), -1.0, 1.0)
               for k in range(n_samples)]
    order = rng.permutation(n_samples)
    queries = []
    for j in range(len(problems)):
        row = []
        for q in range(QUERIES_PER_PROBLEM):
            k = int(order[(QUERIES_PER_PROBLEM * j + q) % n_samples])
            row.append((k, *_query(rng, samples[k].ts)))
        queries.append(row)
    # Deep-refinement queries: |f| >= 1 and nonzero slopes, so refining past
    # the float resolution of f(t) loses every digit of the quotient.
    deep = np.random.default_rng(DEEP_SEED)
    deep_samples = [_sample(deep, 1, 1, int(deep.integers(4, 12)), 2.0, 3.0)
                    for _ in range(8)]
    deep_queries = [_query(deep, s.ts) for s in deep_samples]
    return ManyInputs(problems, samples, queries, deep_samples, deep_queries)


def many_prepare(inp: ManyInputs, workdir: Path) -> Pass:
    for k, s in enumerate(inp.samples):
        write_sample(s, workdir / f"sample_{k:03d}.csv")
    for k, s in enumerate(inp.deep_samples):
        write_sample(s, workdir / f"deep_{k}.csv")

    def epi_argv(s: Sample, t: float, u: float) -> list[str]:
        # --t=VALUE: argparse takes "--t -1e-05" for a missing argument
        return ["epideriv", s.literal, "--f", str(s.path), f"--t={t!r}", f"--u={u!r}"]

    def problem_op(spec: Spec, queries) -> Op:
        text = spec.text
        argvs = [epi_argv(inp.samples[k], t, u) for k, t, u in queries]
        n = len(oracle.discretize(spec.segments, spec.h))

        def run(tr):
            with tr.span("cli.parse_problem"):
                problem = cli.parse_problem_file(text)
            sol, rep = _solve(tr, problem, n)
            return problem, sol, rep, [run_cli(tr, a) for a in argvs]

        def check(out):
            _problem_, sol, rep, answers = out
            check_solution(spec, sol, rep)
            for (k, t, u), (rc, txt) in zip(queries, answers):
                s = inp.samples[k]
                check_query(rc, txt, s.ts, s.values, t, u)

        def replay(tr, out):
            replay_problem(tr, spec, out[0], out[1], parse=False)
            for k, t, u in queries:
                replay_epideriv(tr, inp.samples[k].literal, inp.samples[k].path, t, u)

        points = n + sum(len(inp.samples[k].values) for k, _t, _u in queries)
        return Op(spec.family, points, run, check, replay)

    def deep_op(s: Sample, t: float, u: float) -> Op:
        argv = epi_argv(s, t, u) + ["--kmax", str(DEEP_KMAX)]
        return Op("deep-liminf", len(s.values), lambda tr: run_cli(tr, argv),
                  lambda out: check_query(*out, s.ts, s.values, t, u),
                  lambda tr, out: replay_epideriv(tr, s.literal, s.path, t, u, DEEP_KMAX),
                  known_fault="epiderivative_liminf refines past the float "
                              "resolution of f(t) and returns 0")

    ops = [problem_op(spec, q) for spec, q in zip(inp.problems, inp.queries)]
    step = len(ops) // len(inp.deep_samples)
    for j, (s, (t, u)) in enumerate(zip(inp.deep_samples, inp.deep_queries)):
        ops.insert((j + 1) * step + j, deep_op(s, t, u))

    def check_setup():
        for s in inp.samples + inp.deep_samples:
            check_sample(s)

    return Pass(ops, warmup=min(len(ops), 200), check_setup=check_setup)


WORKLOADS = {
    "newton": (newton_inputs, newton_prepare),
    "fine-grid": (fine_inputs, fine_prepare),
    "many-small": (many_inputs, many_prepare),
}

PROBE_SEED = 1


def probe(workdir: Path) -> list[Op]:
    """Small fixed versions of the fine-grid and many-small passes.

    A traced run takes from these the per-layer figures of layers its own
    workload never calls (CSV and the command line on newton, the solvers
    on fine-grid, derivatives and integrals on many-small).
    """
    fine_dir, many_dir = workdir / "fine", workdir / "many"
    fine_dir.mkdir(parents=True, exist_ok=True)
    many_dir.mkdir(parents=True, exist_ok=True)
    fine = fine_prepare(fine_inputs(PROBE_SEED, 2e-3, 2.0 / 3000), fine_dir)
    many = many_prepare(many_inputs(PROBE_SEED, 20, 8), many_dir)
    fine.check_setup()
    many.check_setup()
    return fine.ops + many.ops
