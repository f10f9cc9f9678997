"""Steadiness mode: run one workload repeatedly and summarize every metric.

    python3 perfbench/steady.py --workload cli_session --runs 10 --first-seed 1

Each run is a fresh ``run.py`` process with the next seed.  For every metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median are printed next to the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged, since such
a metric cannot tell a regression of the bound's size from noise.  The
share of failed operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        shares.add((result["failed"], result["attempted"], result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  WIDE" if spread <= bound else "  OVER BOUND"
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6s}{flag}")
    print("failed shares:", sorted({s[2] for s in shares}), "all correct:", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
