"""Steadiness check: run each workload on several seeds and compare spreads.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a source checkout. For every workload it runs
`bench/run.py` once per seed (seeds first-seed, first-seed+1, ...) with the
run length from BENCHMARK.json, then prints for each end-to-end metric the
median, the first and third quartiles (statistics.quantiles, n=4), and the
quartile distance as a share of the median next to the metric's bound. The
spread must stay below the bound (setup_s excepted) for the benchmark to
tell a regression from noise; below a third of it, to do so reliably. The
share of failed operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()
    status = 0
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: outputs incorrect", file=sys.stderr)
                status = 1
            shares.add((res["failed"] / res["attempted"]))
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            gauge = [ln.split(": ", 1)[1] for ln in proc.stdout.splitlines()
                     if ln.startswith("reference calibration loop")]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in res["metrics"].items())
                + (f" (calibration loop {gauge[0]})" if gauge else ""), flush=True)
        print(f"\n{name}: failed share per run {sorted(shares)}")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("| --- | --- | --- | --- | --- | --- |")
        for metric in spec["end_to_end"]:
            xs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            print(f"| {metric['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} | {metric['bound']} |")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
