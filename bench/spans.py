"""Spans recorded by the benchmark around its own calls into tsvar.

A span is a name, a start and an end (perf_counter seconds), the operation
it belongs to, the span that encloses it and a few counts. Spans are kept in
memory and written out as JSON lines when the run ends. Untraced runs use
NULL, whose spans record nothing.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class _Span:
    __slots__ = ("trace", "index", "attrs")

    def __init__(self, trace: "Trace", index: int, attrs: dict):
        self.trace = trace
        self.index = index
        self.attrs = attrs

    def __enter__(self) -> dict:
        self.trace._stack.append(self.index)
        self.attrs["t0"] = perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        self.attrs["t1"] = perf_counter()
        self.trace._stack.pop()


class Trace:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1
        self.group = "workload"

    def span(self, name: str, **attrs) -> _Span:
        attrs.update(id=len(self.spans), name=name, op=self.op, group=self.group,
                     parent=self._stack[-1] if self._stack else None)
        self.spans.append(attrs)
        return _Span(self, attrs["id"], attrs)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _NullSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        pass


class _NullTrace:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


NULL = _NullTrace()


def duration(s: dict) -> float:
    return s["t1"] - s["t0"]


# -- per-layer metrics --------------------------------------------------------------

# metric name -> (span name, unit, scale from seconds)
TIMES = {
    "timescale.parse_ms": ("timescale.parse", "ms", 1e3),
    "timescale.discretize_ms": ("timescale.discretize", "ms", 1e3),
    "lagrangian.from_text_ms": ("lagrangian.from_text", "ms", 1e3),
    "variational.solve_ms": ("variational.solve", "ms", 1e3),
    "variational.residual_column_ms": ("variational.residual_column", "ms", 1e3),
    "variational.verify_ms": ("variational.verify", "ms", 1e3),
    "calculus.gridfunction_ms": ("calculus.gridfunction", "ms", 1e3),
    "calculus.deriv_ms": ("calculus.deriv", "ms", 1e3),
    "calculus.integral_ms": ("calculus.integral", "ms", 1e3),
    "calculus.read_csv_ms": ("calculus.read_csv", "ms", 1e3),
    "calculus.write_csv_ms": ("calculus.write_csv", "ms", 1e3),
    "epiderivative.extend_ms": ("epiderivative.extend", "ms", 1e3),
    "epiderivative.query_us": ("epiderivative.query", "us", 1e6),
    "cli.parse_problem_ms": ("cli.parse_problem", "ms", 1e3),
    "cli.main_ms": ("cli.main", "ms", 1e3),
}

# metric name -> (span name, attribute summed per pass)
COUNTS = {
    "timescale.points": ("timescale.discretize", "points"),
    "lagrangian.nodes": ("lagrangian.from_text", "nodes"),
    "variational.newton_iters": ("variational.solve", "iters"),
}

DERIVED = {
    "variational.iter_ms": "ms",
    "lagrangian.eval_ns_per_point": "ns",
    "calculus.csv_bytes": "bytes",
    "cli.self_ms": "ms",
}


def _median(xs):
    return statistics.median(xs) if xs else None


def _cli_self(spans: list[dict]) -> list[float]:
    """Per cli.main call: its duration minus the public calls that make up
    the same command, replayed under the matching cli.replay span."""
    out = []
    by_op: dict[int, tuple[list[dict], list[int]]] = {}
    replay_ids = set()
    for s in spans:
        mains, replays = by_op.setdefault(s["op"], ([], []))
        if s["name"] == "cli.main":
            mains.append(s)
        elif s["name"] == "cli.replay":
            replays.append(s["id"])
            replay_ids.add(s["id"])
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] in replay_ids:
            children[s["parent"]] = children.get(s["parent"], 0.0) + duration(s)
    for mains, replays in by_op.values():
        for main, rep in zip(mains, replays):
            out.append(duration(main) - children.get(rep, 0.0))
    return out


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer figures from one group of spans covering `passes` whole passes.

    Times are medians per call; counts are totals per pass. A metric whose
    span never occurred is left out.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out: dict[str, float] = {}
    for metric, (name, _unit, scale) in TIMES.items():
        m = _median([duration(s) * scale for s in by_name.get(name, [])])
        if m is not None:
            out[metric] = m
    for metric, (name, attr) in COUNTS.items():
        if name in by_name:
            out[metric] = sum(s[attr] for s in by_name[name]) // passes
    per_iter = [duration(s) * 1e3 / s["iters"]
                for s in by_name.get("variational.solve", []) if s["iters"] > 0]
    if per_iter:
        out["variational.iter_ms"] = statistics.median(per_iter)
    evals = [duration(s) * 1e9 / s["points"] for s in by_name.get("lagrangian.eval", [])]
    if evals:
        out["lagrangian.eval_ns_per_point"] = statistics.median(evals)
    csv = [s for n in ("calculus.read_csv", "calculus.write_csv")
           for s in by_name.get(n, [])]
    if csv:
        out["calculus.csv_bytes"] = sum(s["bytes"] for s in csv) // passes
    selfs = _cli_self(spans)
    if selfs:
        out["cli.self_ms"] = statistics.median(selfs) * 1e3
    return out


def units() -> dict[str, str]:
    u = {m: unit for m, (_n, unit, _s) in TIMES.items()}
    u.update({m: "count" for m in COUNTS})
    u.update(DERIVED)
    return u
