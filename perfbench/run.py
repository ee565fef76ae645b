"""cvrate benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-opt --seed 1 --seconds 25 --trace 0

The benchmark is one process and one closed loop: it makes one top-level call
at a time (``cvrate.cli.main(argv)`` or one oracle point), waits for it,
checks its output outside the timed region and makes the next. Sweeps run
with ``--jobs 1``; no thread or worker process is started besides the
short-lived interpreters that time start-up and one ``git rev-parse``.

Every timing is CPU time of the process doing the work (``time.process_time``
around a call, the child's user+sys time for start-up), not wall time. On a
shared virtual machine the host can take the vCPU away (steal time of up to
a third of the wall time was seen on a 2-vCPU VM), and that lands in
wall-clock latencies at random; cvrate is single-threaded and CPU-bound, so
on an idle machine the two agree. The wall-clock median is printed alongside for reference.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes over the same inputs and reports the per-layer
metrics of ``tracing.py`` plus the tracing overhead. The last line of
standard output is one JSON object; the lines before it name every metric
with its unit, the machine and the code. Any failed call is reported on
standard error with the input that caused it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, CheckFailure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_run"

SETUP_REPEATS = 7  # fresh interpreters per run; the median is reported
WARMUP_CALLS = 2  # untimed calls before measuring, so caches and lazy set-up are warm
WINDOW_S = 0.5  # CPU time per throughput window; units_per_s is the median window
MAX_REPORTED_FAILURES = 5
# call_tail_ms percentile. Every workload has at least 20 calls beyond it in a
# 25 s run; p99 and p99.9 of wall-clock latencies spread 10-30 % between runs
# on a shared 2-vCPU machine, too much to compare commits.
TAIL_PCT = 95.0

# A fresh interpreter imports numpy and then cvrate.cli. It prints both import
# times and where cvrate came from, so that an installed copy is never timed.
_STARTUP_PROBE = (
    "import time; t0 = time.process_time(); import numpy; t1 = time.process_time(); "
    "import cvrate.cli; t2 = time.process_time(); "
    "print(repr(t1 - t0), repr(t2 - t1), cvrate.cli.__file__)"
)


class Cvrate:
    """The modules under test, imported from the checkout's ``src/`` only."""

    def __init__(self):
        if not (SRC / "cvrate" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no cvrate sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import cvrate.cli
        import cvrate.cloner
        import cvrate.purification

        if Path(cvrate.__file__).resolve().parent != (SRC / "cvrate").resolve():
            raise SystemExit(f"perfbench: imported cvrate from {cvrate.__file__}, not {SRC}")
        self.package = cvrate
        self.cli = cvrate.cli
        self.cloner = cvrate.cloner
        self.purification = cvrate.purification
        self.oracle = cvrate.purification.oracle_holevo  # checks call the unwrapped oracle

    def link_params(self, *, detection: str, trust: str, **values):
        return self.cloner.LinkParams(detection=self.cloner.Detection(detection),
                                      trust=self.cloner.Trust(trust), **values)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_startup() -> tuple[float, float, float, float]:
    """Medians of a fresh interpreter through ``import cvrate.cli``: its CPU
    time, its wall time, and its numpy and cvrate import times, in seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cpus, walls, numpy_s, cvrate_s = [], [], [], []
    for _ in range(SETUP_REPEATS):
        c0, t0 = _children_cpu_s(), time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=False)
        walls.append(time.perf_counter() - t0)
        cpus.append(_children_cpu_s() - c0)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or not fields[2].startswith(str(SRC)):
            raise SystemExit(f"perfbench: start-up probe failed: {proc.stderr.strip() or proc.stdout}")
        numpy_s.append(float(fields[0]))
        cvrate_s.append(float(fields[1]))
    return tuple(statistics.median(v) for v in (cpus, walls, numpy_s, cvrate_s))


def machine_info(cv: Cvrate) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cvrate": getattr(cv.package, "__version__", "unknown"),
        "commit": commit,
        "src_lines": src_lines,
    }


class Runner:
    """Makes calls, checks outputs and keeps the books of one run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[int, str] = {}  # input index -> digest of its first output
        self.wall: list[float] = []  # wall-clock latency of every call, for reference

    def one(self, item, tracer: Tracer | None = None) -> tuple[float, int]:
        """One call: returns its CPU time in seconds and its units of work (0 if failed).

        With a tracer, only the call itself is traced, never the check."""
        self.attempted += 1
        error = None
        if tracer is not None:
            tracer.active = True
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            output = self.wl.call(item)
        except (Exception, SystemExit) as exc:  # a crash of the program is a failed call
            error = f"{type(exc).__name__}: {exc}"
        dt = time.process_time() - t0
        self.wall.append(time.perf_counter() - w0)
        if tracer is not None:
            tracer.active = False
        if error is not None:
            self._fail(item, error)
            return dt, 0
        try:
            units, data = self.wl.check(item, output)
        except CheckFailure as exc:
            self._fail(item, str(exc))
            return dt, 0
        digest = hashlib.sha256(data).hexdigest()
        if self.first_output.setdefault(item["index"], digest) != digest:
            self._fail(item, "output differs from an earlier call on the same input")
            return dt, 0
        return dt, units

    def _fail(self, item, reason: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED call on {self.wl.name} input {item['index']}: {reason}\n"
                  f"  input: {self.wl.describe(item)}", file=sys.stderr)

    def digest(self) -> str:
        """Digest over the first output of every input, in input order."""
        h = hashlib.sha256()
        for index in sorted(self.first_output):
            h.update(self.first_output[index].encode())
        return h.hexdigest()

    def full_pass(self, tracer: Tracer | None = None) -> float:
        """Every input once, in order; returns the CPU time of the calls in seconds."""
        return sum(self.one(item, tracer)[0] for item in self.wl.inputs)


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Value at percentile ``pct`` and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    """Closed loop over the inputs, cycling, for ``seconds``; at least one full pass."""
    inputs = runner.wl.inputs
    for item in inputs[:WARMUP_CALLS]:
        runner.one(item)
    latencies, windows = [], []
    window_units, window_time = 0, 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(inputs) or time.perf_counter() < deadline:
        dt, units = runner.one(inputs[i % len(inputs)])
        i += 1
        latencies.append(dt)
        window_units += units
        window_time += dt
        if window_time >= WINDOW_S:
            windows.append(window_units / window_time)
            window_units, window_time = 0, 0.0
    if not windows:  # a run shorter than one window
        windows.append(window_units / window_time)
    latencies.sort()
    tail, beyond = nearest_rank(latencies, TAIL_PCT)
    return {
        "units_per_s": statistics.median(windows),
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_tail_ms": 1e3 * tail,
        "tail_beyond": beyond,
        "calls": len(latencies),
        "windows": len(windows),
        "passes": i / len(inputs),
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes over the same inputs for ``seconds``,
    at least one pair. Layer metrics are medians over the traced passes."""
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    for item in runner.wl.inputs[:WARMUP_CALLS]:
        runner.one(item)
    start = time.perf_counter()
    while True:
        untraced.append(runner.full_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.full_pass(tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:  # one more pair would overrun
            break
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    out["passes"] = len(traced)
    return out


UNITS = {"units_per_s": "1/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    quantity = name.split(".")[1] if "." in name else name  # "cloner.holevo_us.het.x" -> holevo_us
    for suffix, unit in (("_frac", "frac"), ("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if quantity.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cv = Cvrate()
    setup_s, setup_wall_s, import_numpy_s, import_cvrate_s = measure_startup()
    info = machine_info(cv)
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](cv, args.seed, str(workdir))
        runner = Runner(workload)
        if args.trace:
            stats = run_traced(runner, args.seconds)
            metrics = {"setup.import_numpy_s": import_numpy_s,
                       "setup.import_cvrate_s": import_cvrate_s}
            metrics.update((k, v) for k, v in stats.items() if k != "passes")
            notes = [f"traced passes: {stats['passes']}, each preceded by an untraced pass"]
        else:
            stats = run_end_to_end(runner, args.seconds)
            metrics = {
                "setup_s": setup_s,
                "units_per_s": stats["units_per_s"],
                "call_p50_ms": stats["call_p50_ms"],
                "call_tail_ms": stats["call_tail_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - runner.failed / runner.attempted,
            }
            notes = [
                f"setup_s is CPU time; the wall-clock median was {setup_wall_s:.6g} s",
                f"call_p50_ms is CPU time; the wall-clock median was "
                f"{1e3 * statistics.median(runner.wall):.6g} ms",
                f"units_per_s counts {workload.unit} per CPU second of calls "
                f"(median of {stats['windows']} windows of {WINDOW_S} s)",
                f"call_tail_ms is p{TAIL_PCT:g} of {stats['calls']} timed calls, "
                f"{stats['tail_beyond']} samples beyond it",
                f"passes over the inputs: {stats['passes']:.2f}",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed, 1 client, --jobs 1")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"inputs: {len(workload.inputs)} {workload.describe_inputs()}")
    for note in notes:
        print(note)
    print(f"outputs: digest {runner.digest()}; {runner.attempted} calls attempted, "
          f"{runner.failed} failed, failed_frac {runner.failed / runner.attempted:.6g} frac")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {_unit(name)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
