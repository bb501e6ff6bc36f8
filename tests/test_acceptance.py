"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
on the terminal; `pytest -v` shows one PASSED/FAILED entry per criterion.
"""

import math
import random
import time

import numpy as np

from helpers import EXPRESSION_SUITE, random_increasing, random_pl
from tsvar import (
    GridFunction,
    IsoProblem,
    Lagrangian,
    Problem,
    TimeScale,
    delta_deriv,
    delta_integral,
    el_residual,
    epiderivative_closed,
    epiderivative_liminf,
    extend,
    functional_value,
    liminf_params,
    nabla_deriv,
    nabla_integral,
    shift_rho,
    shift_sigma,
    solve,
    solve_iso,
)
from tsvar.lagrangian import differentiate, evaluate, parse

V2 = Lagrangian.from_text("v^2")
UNIT = TimeScale.interval(0.0, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def max_abs(values) -> float:
    return max(abs(v) for v in values)


def test_criterion_01_classical_reduction():
    started = time.perf_counter()
    problem = Problem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=1e-3)
    sol = solve(problem)
    elapsed = time.perf_counter() - started
    err = max(abs(yv - t) for yv, t in zip(sol.y.values, sol.y.grid.points))
    value_gap = abs(sol.functional_value - 1.0)
    ok = err <= 1e-6 and value_gap <= 1e-3 and elapsed < 5.0
    report(1, ok, f"max|y-t|={err:.2e}, |F-1|={value_gap:.2e}, {elapsed:.2f}s")


def test_criterion_02_nabla_reduction():
    problem = Problem(scale=UNIT, u=-1.0, L=V2, alpha=0.0, beta=1.0, h=1e-3)
    sol = solve(problem)
    err = max(abs(yv - t) for yv, t in zip(sol.y.values, sol.y.grid.points))
    value_gap = abs(sol.functional_value - (-1.0))
    ok = err <= 1e-6 and value_gap <= 1e-3
    report(2, ok, f"max|y-t|={err:.2e}, |F+1|={value_gap:.2e}")


def test_criterion_03_discrete_oracle():
    lag = Lagrangian.from_text("v^2 + y^2")
    problem = Problem(scale=TimeScale.of_points(0, 1, 2, 3, 4), u=1.0, L=lag,
                      alpha=0.0, beta=1.0, h=1.0)
    sol = solve(problem)

    def brute_f(x):  # the exact 4-term sum, written out independently
        y = [0.0, x[0], x[1], x[2], 1.0]
        return sum((y[i + 1] - y[i]) ** 2 + y[i + 1] ** 2 for i in range(4))

    m = 3
    f0 = brute_f([0.0] * m)
    e = np.eye(m)
    Q = np.empty((m, m))
    for j in range(m):
        Q[j, j] = brute_f(2 * e[j]) - 2 * brute_f(e[j]) + f0
        for k in range(j + 1, m):
            Q[j, k] = Q[k, j] = (brute_f(e[j] + e[k]) - brute_f(e[j])
                                 - brute_f(e[k]) + f0)
    c = np.array([brute_f(e[j]) - f0 - Q[j, j] / 2 for j in range(m)])
    oracle = np.linalg.solve(Q, -c)
    gap = float(np.max(np.abs(np.asarray(sol.y.values[1:-1]) - oracle)))
    report(3, gap <= 1e-8, f"max|y-oracle|={gap:.2e}")


def test_criterion_04_isoperimetric_classical():
    iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=0.0, h=1e-3,
                     G=Lagrangian.from_text("y"), w=1.0, K=1 / 6)
    sol = solve_iso(iso)
    mid = sol.y.values[sol.y.grid.points.tolist().index(0.5)]
    ok = abs(mid - 0.25) <= 1e-3 and abs(sol.lam - 4.0) <= 1e-2
    report(4, ok, f"y(0.5)={mid:.6f}, lambda={sol.lam:.6f}")


def test_criterion_05_abnormal_detection():
    tol = 1e-10
    base = Problem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=1e-3)
    K = solve(base, tol=tol).functional_value
    iso = IsoProblem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=1e-3,
                     G=V2, w=1.0, K=K)
    sol = solve_iso(iso, tol=tol)
    g_res = el_residual(iso.constraint_problem(), sol.y)
    g_max = max_abs(g_res.values)
    ok = sol.normal_flag is False and (sol.lam0, sol.lam) == (0.0, 1.0) and g_max <= tol
    report(5, ok, f"normal_flag={sol.normal_flag}, G-side residual={g_max:.2e}")


def test_criterion_06_epiderivative_oracle_agreement():
    rng = random.Random(20260806)
    worst = 0.0
    checked = 0
    while checked < 120:
        fbar = random_pl(rng)
        u = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        if rng.random() < 0.5 and len(fbar.breakpoints) >= 3:
            t = fbar.breakpoints[rng.randint(1, len(fbar.breakpoints) - 2)]
        else:
            i = rng.randint(0, len(fbar.breakpoints) - 2)
            t = fbar.breakpoints[i] + rng.uniform(0.25, 0.75) * (
                fbar.breakpoints[i + 1] - fbar.breakpoints[i])
        h0, k_max = liminf_params(fbar, t, u)
        gap = abs(epiderivative_closed(fbar, t, u)
                  - epiderivative_liminf(fbar, t, u, h0, k_max))
        worst = max(worst, gap)
        checked += 1

    exact = True
    for _ in range(30):
        pts = random_increasing(rng, rng.randint(3, 7))
        grid = TimeScale.of_points(*pts).discretize(1.0)
        f = GridFunction(grid, tuple(rng.uniform(-1, 1) for _ in pts))
        fbar = extend(f)
        dd = delta_deriv(f)
        for i, t in enumerate(dd.grid.points):
            if epiderivative_closed(fbar, t, 1.0) != dd.values[i]:
                exact = False
    ok = worst <= 1e-12 and exact
    report(6, ok, f"{checked} liminf cases, worst gap={worst:.2e}, "
                  f"scattered match exact={exact}")


def test_criterion_07_exact_calculus_identities():
    rng = random.Random(77)
    worst = 0.0

    def track(a, b):
        nonlocal worst
        worst = max(worst, abs(a - b))

    for _ in range(25):
        pts = random_increasing(rng, rng.randint(4, 9))
        grid = TimeScale.of_points(*pts).discretize(1.0)
        n = len(pts)
        f = GridFunction(grid, tuple(rng.uniform(-2, 2) for _ in range(n)))
        g = GridFunction(grid, tuple(rng.uniform(-2, 2) for _ in range(n)))
        fg = GridFunction(grid, tuple(a * b for a, b in zip(f.values, g.values)))

        df, dg, dfg = delta_deriv(f), delta_deriv(g), delta_deriv(fg)
        nf, ng, nfg = nabla_deriv(f), nabla_deriv(g), nabla_deriv(fg)
        fs, gs = shift_sigma(f), shift_sigma(g)
        fr = shift_rho(f)
        for i in range(n - 1):
            track(dfg.values[i], df.values[i] * gs.values[i] + f.values[i] * dg.values[i])
            track(dfg.values[i], df.values[i] * g.values[i] + fs.values[i] * dg.values[i])
            track(nfg.values[i], nf.values[i] * g.values[i + 1] + fr.values[i] * ng.values[i])
            mu = pts[i + 1] - pts[i]
            track(fs.values[i], f.values[i] + mu * df.values[i])
            track(fr.values[i], f.values[i + 1] - mu * nf.values[i])

        # fundamental theorem: API telescoping and the definitional full sum
        track(delta_integral(df, pts[0], pts[-2]), f.values[-2] - f.values[0])
        track(nabla_integral(nf, pts[1], pts[-1]), f.values[-1] - f.values[1])
        full_delta = math.fsum(df.values[i] * (pts[i + 1] - pts[i])
                               for i in range(n - 1))
        full_nabla = math.fsum(nf.values[i] * (pts[i + 1] - pts[i])
                               for i in range(n - 1))
        track(full_delta, f.values[-1] - f.values[0])
        track(full_nabla, f.values[-1] - f.values[0])

        idx = sorted(rng.sample(range(n), 3))
        c, d, e = (pts[i] for i in idx)
        track(delta_integral(f, c, d) + delta_integral(f, d, e),
              delta_integral(f, c, e))
        track(nabla_integral(f, c, d) + nabla_integral(f, d, e),
              nabla_integral(f, c, e))

    report(7, worst <= 1e-12, f"worst identity gap={worst:.2e}")


def test_criterion_08_gradient_residual_proportionality():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(20):
        pts = random_increasing(rng, 6)
        coeffs = [rng.uniform(-0.5, 0.5) for _ in range(6)]
        cubic = rng.uniform(-0.1, 0.1)
        text = (f"{coeffs[0]:.17g}*v^2 + {coeffs[1]:.17g}*y^2 + "
                f"{coeffs[2]:.17g}*y*v + {coeffs[3]:.17g}*t*y + "
                f"{coeffs[4]:.17g}*v + {coeffs[5]:.17g}*y + {cubic:.17g}*y^3")
        problem = Problem(scale=TimeScale.of_points(*pts), u=1.0,
                          L=Lagrangian.from_text(text),
                          alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1),
                          h=1.0)
        grid = problem.discretized()
        vals = [problem.alpha] + [rng.uniform(-1, 1) for _ in range(4)] + [problem.beta]
        y = GridFunction(grid, tuple(vals))
        res = el_residual(problem, y)
        base = list(y.values)
        step = 1e-5
        for j in range(1, 5):
            hi, lo = base.copy(), base.copy()
            hi[j] += step
            lo[j] -= step
            fd = (functional_value(problem, GridFunction(grid, tuple(hi)))
                  - functional_value(problem, GridFunction(grid, tuple(lo)))) / (2 * step)
            mu = pts[j] - pts[j - 1]
            worst = max(worst, abs(fd - (-mu * res.values[j - 1])))
    report(8, worst <= 1e-9, f"20 problems, worst |FD+mu*R|={worst:.2e}")


def test_criterion_09_convergence_order():
    # the classical extremal of L=v^2 is reproduced exactly at every step
    # size, so the measurable order comes from the nearest non-degenerate
    # problem, L = v^2 + y^2, whose continuous extremal is known
    flat_errors = []
    for h in (1e-2, 5e-3):
        sol = solve(Problem(scale=UNIT, u=1.0, L=V2, alpha=0.0, beta=1.0, h=h))
        flat_errors.append(max(abs(yv - t) for yv, t in
                               zip(sol.y.values, sol.y.grid.points)))

    lag = Lagrangian.from_text("v^2 + y^2")
    exact = lambda t: math.sinh(t) / math.sinh(1.0)
    errors = []
    for h in (1e-2, 5e-3):
        sol = solve(Problem(scale=UNIT, u=1.0, L=lag, alpha=0.0, beta=1.0, h=h))
        errors.append(max(abs(yv - exact(t)) for yv, t in
                          zip(sol.y.values, sol.y.grid.points)))
    ratio = errors[0] / errors[1]
    ok = ratio >= 1.8 and max(flat_errors) <= 1e-12
    report(9, ok, f"error {errors[0]:.3e} -> {errors[1]:.3e}, ratio={ratio:.2f}; "
                  f"flat problem stays exact ({max(flat_errors):.1e})")


def test_criterion_10_parser_differentiator():
    rng = random.Random(123)
    worst_rel = 0.0
    for text in EXPRESSION_SUITE:
        expr = parse(text)
        partials = {var: differentiate(expr, var) for var in ("t", "y", "v")}
        for _ in range(100):
            point = {"t": rng.uniform(-2, 2), "y": rng.uniform(-2, 2),
                     "v": rng.uniform(-2, 2)}
            for var, d in partials.items():
                step = 1e-5
                hi, lo = dict(point), dict(point)
                hi[var] += step
                lo[var] -= step
                fd = (evaluate(expr, hi["t"], hi["y"], hi["v"])
                      - evaluate(expr, lo["t"], lo["y"], lo["v"])) / (2 * step)
                sym = evaluate(d, point["t"], point["y"], point["v"])
                worst_rel = max(worst_rel, abs(sym - fd) / (1 + abs(sym)))
    report(10, worst_rel <= 1e-6,
           f"10 expressions x 100 points, worst relative gap={worst_rel:.2e}")
