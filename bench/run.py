"""Benchmark for tsvar: three workloads in closed loop, one client each.

    python3 bench/run.py --workload {newton,fine-grid,many-small} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; tsvar is imported from ./src. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (set-up time, median operation time, grid points per
second, peak memory); with --trace 1 they are the per-layer ones, from
spans the benchmark records around its own calls into tsvar. See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# One BLAS thread: the workload runs as one client, and its process CPU time
# should equal its wall time. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
OUT = BENCH / "_out"
SETUP_STARTS = 5     # fresh interpreters timed for setup_s, after one not timed
SETUP_TIMEOUT = 60


def _import_program():
    """Import tsvar from this checkout's sources, and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tsvar
    except ImportError as exc:
        sys.exit(f"bench: cannot import tsvar from {ROOT / 'src'}: {exc}")
    if not Path(tsvar.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        sys.exit(f"bench: tsvar was imported from {tsvar.__file__}, not from ./src")
    import workloads
    return workloads


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("newton", "fine-grid", "many-small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _prepare(wl, name: str, seed: int, workdir: Path):
    """Make the benchmark's inputs, then the program-side set-up.

    Returns the pass and the seconds spent on the benchmark's own side.
    """
    make, prepare = wl.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    inputs = make(seed)
    own = perf_counter() - t0
    return prepare(inputs, workdir), own


def _setup_child(args) -> None:
    wl = _import_program()
    _pass, own = _prepare(wl, args.workload, args.seed,
                          WORK / f"{args.workload}-setup")
    print(json.dumps({"own_s": own}), flush=True)


def _setup_seconds(args) -> list[float]:
    """Time from starting a fresh interpreter until the first operation
    could start: interpreter, `import tsvar`, program-side preparation. The
    benchmark's own input generation inside that window is subtracted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-child"]
    times = []
    for k in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if rc != 0 or not line:
            sys.exit(f"bench: set-up run exited with {rc}")
        if k > 0:
            times.append(t1 - t0 - json.loads(line)["own_s"])
    return times


class Runner:
    """Runs whole passes and keeps per-operation times and outcomes."""

    def __init__(self, wl, ops):
        self.wl = wl
        self.ops = ops
        self.op_id = 0
        self.correct = True
        self.errors: list[str] = []

    def one(self, op, tr):
        """Run, time and check one operation; return (seconds, failed)."""
        tr.op = self.op_id
        self.op_id += 1
        t0 = perf_counter()
        out = op.run(tr)
        dt = perf_counter() - t0
        try:
            op.check(out)
            failed = False
        except self.wl.CheckFailed as exc:
            failed = True
            if op.known_fault is None:
                self.correct = False
                if len(self.errors) < 5:
                    self.errors.append(f"{op.name}: {exc}")
        if tr.enabled:
            op.replay(tr, out)
        return dt, failed

    def passes(self, seconds: float, tr):
        """Whole passes until the next one would end after `seconds`; at least one.

        Throughput is taken over a median pass: each operation's time is its
        median over the passes, so one slow moment weighs little.
        """
        per_op = [[] for _ in self.ops]
        failed, n = 0, 0
        start = perf_counter()
        last = 0.0
        while n == 0 or perf_counter() - start + last <= seconds:
            p0 = perf_counter()
            for op, times in zip(self.ops, per_op):
                dt, bad = self.one(op, tr)
                times.append(dt)
                failed += bad
            last = perf_counter() - p0
            n += 1
        points = sum(op.points for op in self.ops)
        return dict(times=[t for times in per_op for t in times],
                    points_per_s=points / sum(map(statistics.median, per_op)),
                    attempted=n * len(self.ops), failed=failed, passes=n)


def _tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it: the eleventh
    largest time, at percentile 100*(n-10)/n. Below forty samples, the
    median alone."""
    n = len(times)
    if n < 40:
        return 50.0, statistics.median(times) * 1e3, n
    return 100.0 * (n - 10) / n, sorted(times)[n - 11] * 1e3, n


def _calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: a gauge of how fast the
    machine runs at the moment, printed for reference only."""
    def loop():
        t0 = perf_counter()
        s = 0.0
        for i in range(200_000):
            s += i * 0.5
        return perf_counter() - t0
    return statistics.median(loop() for _ in range(5)) * 1e3


def _environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_child:
        _setup_child(args)
        return 0
    wl = _import_program()
    import spans as tracing

    setup = _setup_seconds(args)
    work = WORK / args.workload
    one_pass, _own = _prepare(wl, args.workload, args.seed, work)
    one_pass.check_setup()
    run = Runner(wl, one_pass.ops)
    for op in one_pass.ops[:one_pass.warmup]:
        run.one(op, tracing.NULL)
    gc.collect()

    budget = args.seconds / 2 if args.trace else args.seconds
    calib = _calibration_ms()
    plain = run.passes(budget, tracing.NULL)
    print(f"reference calibration loop: {calib:.3f} ms before the passes, "
          f"{_calibration_ms():.3f} ms after")
    result = dict(attempted=plain["attempted"], failed=plain["failed"])
    op_p50_ms = statistics.median(plain["times"]) * 1e3
    p, tail_ms, n = _tail(plain["times"])
    print(f"reference run.op_tail_ms: p{p:.2f} = {tail_ms:.4f} ms over {n} operations")
    print("env " + json.dumps(_environment()))

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (op_p50_ms, "ms"),
            "points_per_s": (plain["points_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tr = tracing.Trace()
        traced = run.passes(budget, tr)
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        layers = tracing.layer_metrics(tr.spans, traced["passes"])
        units = tracing.units()
        missing = [m for m in units if m not in layers]
        if missing:
            probe_ops = wl.probe(WORK / "probe")
            tr.group = "probe"
            probe_run = Runner(wl, probe_ops)
            for _ in range(3):
                for op in probe_ops:
                    probe_run.one(op, tr)
            run.correct &= probe_run.correct
            run.errors += probe_run.errors
            spans = [s for s in tr.spans if s["group"] == "probe"]
            from_probe = tracing.layer_metrics(spans, 3)
            for m in missing:
                layers[m] = from_probe[m]
            print("reference layers taken from the probe: " + ", ".join(missing))
        traced_p50 = statistics.median(traced["times"]) * 1e3
        metrics = {m: (layers[m], units[m]) for m in units}
        metrics["run.op_tail_ms"] = (tail_ms, "ms")
        metrics["run.trace_overhead_ms"] = (traced_p50 - op_p50_ms, "ms")
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")

    for e in run.errors:
        print(f"check failed: {e}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
