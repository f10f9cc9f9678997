"""Benchmark of the taxicab-ca command line, one workload per process.

    python3 perfbench/run.py --workload exact_enum --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory.  The workload is a closed loop with one client: whole rounds of
in-process ``taxicab_ca.cli.run(argv)`` calls on input files written during
set-up, until the calls have taken ``--seconds``.  The first round's reports
are checked against computations made here (see checks.py); later rounds
must write byte-identical reports.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the spans
(see spans.py), plus the traced minus untraced round time as the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread, set before numpy loads: with two threads on a two-CPU
# machine one norm_exact call on a 60x22 table ranged 0.97-2.18 s over five
# calls, against 1.08-1.16 s with one.  Child processes inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# Set-up is repeated in this many fresh processes, spread over the timed run
# between rounds, so that setup_s (the median) samples the same stretch of
# time as the loop rather than the few seconds before it.
SETUP_PROBES = 8
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("heuristic_delta_ratio", "ratio"),
]


class SetupError(Exception):
    """The program cannot be loaded or warmed up from this checkout."""


def load_program():
    """Import taxicab_ca from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "taxicab_ca" / "__init__.py").is_file():
        raise SetupError(f"no taxicab_ca package under {src}")
    sys.path.insert(0, str(src))
    import taxicab_ca
    import taxicab_ca.cli

    if Path(taxicab_ca.__file__).resolve().parent != (src / "taxicab_ca").resolve():
        raise SetupError(f"taxicab_ca was imported from {taxicab_ca.__file__}")
    return taxicab_ca.cli


def environment(seed: int) -> dict:
    """Versions and settings printed with every run."""
    import ctypes
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "taxicab_ca").rglob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = str(get())
        except (OSError, AttributeError):
            pass
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_runtime": threads,
    }


class Loop:
    """Runs rounds of calls and keeps latencies, failures and first outputs."""

    def __init__(self, cli, workload, tracer=None):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.round_times: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, tuple[bytes, bytes | None]] = {}
        self.values: dict[str, float | None] = {}
        self.check_s = 0.0

    def round(self, traced: bool) -> float:
        if traced:
            self.tracer.install()
        busy = 0.0
        results = []
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for op in self.workload.ops:
                    sink.seek(0)
                    sink.truncate()
                    start = time.perf_counter()
                    try:
                        code = self.cli.run(op.argv)
                    except Exception:  # a crash is one failed operation; the loop goes on
                        code, message = -1, traceback.format_exc(limit=3)
                    else:
                        message = sink.getvalue()[-500:]
                    elapsed = time.perf_counter() - start
                    busy += elapsed
                    self.latencies.append(elapsed)
                    results.append((op, code, message))
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_times[traced].append(busy)
        start = time.perf_counter()
        for op, code, message in results:
            self._verify(op, code, message)
        self.check_s += time.perf_counter() - start
        return busy

    def _verify(self, op, code: int, message: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{op.label}: exit {code}: {message.strip()}")
            return
        output = op.out.read_bytes(), op.svg.read_bytes() if op.svg else None
        if op.label in self.first:
            if output != self.first[op.label]:
                self.problems.append(f"{op.label}: report bytes differ from the first round")
            return
        self.first[op.label] = output
        try:
            self.values[op.label] = op.check(json.loads(output[0]), output[1])
        except Exception as exc:  # any checker error is a failed check, not a crash
            self.problems.append(f"{op.label}: check failed: {type(exc).__name__}: {exc}")

    def run(self, seconds: float, trace: bool, between=None) -> None:
        """Whole rounds until the calls took ``seconds``.

        With ``trace`` the first round is untraced and then traced and
        untraced rounds alternate, ending on an untraced one, so that each
        traced round has an untraced round after it to compare with.
        ``between(share)`` is called after each untraced round with the share
        of ``seconds`` done so far; its time is not counted.
        """
        busy = self.round(False)
        if trace:
            while True:
                busy += self.round(True) + self.round(False)
                if busy >= seconds:
                    break
        while busy < seconds:
            if between:
                between(busy / seconds)
            busy += self.round(False)
        if between:
            between(1.0)


def set_up(args, workdir: Path, t0: float):
    """Import the program, write the inputs and warm up; returns (cli, workload, seconds)."""
    cli = load_program()
    import workloads

    if workdir.exists():
        shutil.rmtree(workdir)
    workload = workloads.prepare(args.workload, args.seed, workdir, ROOT)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in workload.warmup:
            if cli.run(argv) != 0:
                raise SetupError(f"warm-up call {argv} failed: {sink.getvalue()[-500:]}")
    return cli, workload, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of one fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact_enum", "heuristic_large", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(HERE))
    tag = f"{args.workload}-s{args.seed}"
    workdir = (OUT / (f"probe-{tag}-{os.getpid()}" if args.setup_probe else f"work-{tag}"))
    workdir = workdir.relative_to(ROOT)
    try:
        cli, workload, setup_s = set_up(args, workdir, t0)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import spans as tracing

        setup = [setup_s]

        def probe_until(share: float) -> None:
            while len(setup) - 1 < int(SETUP_PROBES * min(share, 1.0)):
                setup.append(probe_setup(args))

        tracer = tracing.Tracer() if args.trace else None
        loop = Loop(cli, workload, tracer)
        loop.run(args.seconds, bool(args.trace), None if args.trace else probe_until)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2
    finally:
        if args.setup_probe:
            shutil.rmtree(workdir, ignore_errors=True)
    info = environment(args.seed)
    correct = not loop.problems and len(loop.first) == len(workload.ops)
    if args.trace:
        rounds = len(loop.round_times[True])
        layers = tracing.layer_metrics(tracer.spans, rounds)
        # the first round pays for first-touch memory and caches: compare each
        # traced round with the untraced round that follows it
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(loop.round_times[True], loop.round_times[False][1:]))
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        try:
            heuristic, reference = workload.delta_sums(loop.values)
            ratio = heuristic / reference
        except Exception as exc:
            loop.problems.append(f"delta ratio: {type(exc).__name__}: {exc}")
            correct, ratio = False, 0.0
        values = {
            "ops_per_s": (loop.attempted - loop.failed) / sum(loop.latencies),
            "latency_p50_s": statistics.median(loop.latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
            "heuristic_delta_ratio": ratio,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    OUT.mkdir(exist_ok=True)
    suffix = f"{tag}-t{args.trace}"
    detail = {
        "workload": args.workload, "environment": info, "seconds": args.seconds,
        "rounds": {"untraced": loop.round_times[False], "traced": loop.round_times[True]},
        "calls": [op.label for op in workload.ops], "latencies_s": loop.latencies,
        "setup_samples_s": setup, "check_s": loop.check_s, "problems": loop.problems,
        "metrics": metrics,
    }
    (OUT / f"result-{suffix}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                 for n, s, e, p, a in tracer.spans]
        (OUT / f"trace-{suffix}.json").write_text(json.dumps(spans), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# attempted: {loop.attempted}  failed: {loop.failed}  "
          f"rounds: {len(loop.round_times[False])}+{len(loop.round_times[True])} traced")
    for problem in loop.problems[:20]:
        print(f"# problem: {problem}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
