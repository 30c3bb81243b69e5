#!/usr/bin/env python3
"""Benchmark for pwmjel.

    python3 bench/run.py --workload mc-coverage-n300 --seed 1 --trace 0

Runs one workload against the package in this checkout's ``src/`` (never an
installed copy), checks that its outputs are correct, and prints the result
as one JSON object on the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` times the workload untraced for ``--seconds`` (default: the
``run_seconds`` of ``BENCHMARK.json``) and reports the end-to-end metrics.
``--trace 1`` runs one cycle of the workload's units untraced and traced,
with spans around each layer's public entry points, and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.

Every time is reported at the reference speed.  A fixed computation that
does not touch pwmjel runs between units, and on workloads that run in one
process each time is scaled by ``REFERENCE_SECONDS`` over that
computation's measured time.  The shared machine this was built on drifts
in speed by up to 1.7x over minutes; the ratio cancels most of that.  Two lines precede the result: ``env`` records
the environment, and ``calibration`` gives the scale and the raw values.
Workloads, metrics and a baseline are described in ``bench/README.md``.

Exit codes: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the package or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pwmjel"
SETUP_LAUNCHES = 5
MIN_REPEATS = 3
# Fast-decile time of Reference.kernel on the machine of the baseline in
# bench/README.md (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
REFERENCE_SECONDS = 0.008
REFERENCE_INTERVAL = 0.5  # seconds of work between reference runs
WORKLOAD_NAMES = ("mc-coverage-n300", "mc-size-grid", "cli-columns")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def cpu_seconds() -> float:
    """User and system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # an exported checkout has no .git


def environment(workload) -> dict:
    import numpy
    import scipy
    from workloads import nproc
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def setup_launch(workload) -> float:
    """Seconds from launching a fresh interpreter until pwmjel is imported
    and the workload's first operation is done."""
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport pwmjel\n"
            + workload.setup_code() + "print('ready', flush=True)\n")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up interpreter exited with status {status}")
    return elapsed


def timed_unit(workload, unit, threads=None):
    cpu, start = cpu_seconds(), time.perf_counter()
    done = workload.run_unit(unit, threads)
    done.wall = time.perf_counter() - start
    done.cpu = cpu_seconds() - cpu
    return done


def fast_decile(values) -> float:
    """Interference on a shared machine only ever adds time, so the time of
    a repeated, identical unit of work is read from its fastest decile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


class Reference:
    """Times ``kernel`` between units, at most every REFERENCE_INTERVAL
    seconds, to follow the machine's speed through the run."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._points = rng.exponential(1.0, 300)
        table = rng.lognormal(0.0, 1.0, (3000, 9))
        self._csv = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        self.times = []
        self._last = -math.inf

    def kernel(self) -> float:
        """Work of the workloads' kinds without pwmjel: Newton steps of small
        numpy operations driven from Python, and parsing a 3000-row CSV."""
        lam = 0.0
        for mu in np.linspace(0.6, 1.4, 20):
            d = self._points - mu
            lam = 0.0
            for _ in range(8):
                w = d / (1.0 + lam * d)
                lam += float(np.mean(w)) / float(np.mean(w * w))
        return lam + sum(float(row[4]) for row in csv.reader(io.StringIO(self._csv)))

    def between_units(self):
        if time.perf_counter() - self._last >= REFERENCE_INTERVAL:
            start = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.times.append(self._last - start)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference speed."""
        return REFERENCE_SECONDS / fast_decile(self.times)


def at_reference_speed(value, unit: str, scale: float):
    """Times scale with the machine's speed and rates inversely; counts,
    ratios and sizes do not."""
    power = {"s": 1, "ms": 1, "us": 1, "1/s": -1}.get(unit)
    return value if power is None else value * scale ** power


def untraced_run(workload, reference, seconds):
    """Repeat the workload's cycle of units until ``seconds`` have passed
    and every unit has run at least MIN_REPEATS times.  The set-up launches
    are spread over the same time, between units, so that their median
    samples the machine as the units do."""
    units = range(workload.units)
    runs = [[] for _ in units]  # every execution of each unit
    setups = []
    start = time.perf_counter()
    while len(runs[0]) < MIN_REPEATS or time.perf_counter() - start < seconds:
        for unit in units:
            if (len(setups) < SETUP_LAUNCHES and
                    time.perf_counter() - start >= len(setups) * seconds / SETUP_LAUNCHES):
                setups.append(setup_launch(workload))
            reference.between_units()
            runs[unit].append(timed_unit(workload, unit))
    while len(setups) < SETUP_LAUNCHES:
        setups.append(setup_launch(workload))

    ops = sum(r[0].ops for r in runs)
    best = [fast_decile([b.wall for b in r]) for r in runs]
    latency = [t / r[0].ops for t, r in zip(best, runs)]
    executions = [b for r in runs for b in r]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(best),
        "cpu_ms_per_op": 1e3 * sum(fast_decile([b.cpu for b in r]) for r in runs) / ops,
        "op_ms_p50": 1e3 * statistics.median(latency),
        "op_ms_p95": 1e3 * statistics.quantiles(latency, n=20, method="inclusive")[18],
        "ok_rate": 1.0 - sum(b.failed for b in executions) / sum(b.attempted for b in executions),
        "peak_rss_mb": peak_rss_mb(),
    }
    problems = [f"unit {unit}: repetition {i} output differs from the first"
                for unit, r in enumerate(runs) for i, b in enumerate(r[1:], 1)
                if workload.output_bytes(b.output) != workload.output_bytes(r[0].output)]
    return [r[0] for r in runs], executions, metrics, problems


def traced_run(workload, reference):
    """One cycle of units, each run untraced at the workload's worker count,
    untraced with one worker and traced with one worker.  The three are
    interleaved, twice, and each unit's walls are the faster of the two
    rounds, so that drift in the machine's speed hits all three alike.  The
    counters come from the first round only."""
    from spans import Tracer
    workload.run_unit(0)  # warm caches and lazy imports
    tracer = Tracer()
    parallel, serial, traced = [], [], []
    for unit in range(workload.units):
        rounds = []
        for counting in (tracer, Tracer()):
            reference.between_units()
            p = timed_unit(workload, unit)
            s = timed_unit(workload, unit, threads=1) if workload.threads > 1 else p
            with counting:
                t = timed_unit(workload, unit, threads=1)
            rounds.append((p, s, t))
        for runs, (first, second) in zip((parallel, serial, traced), zip(*rounds)):
            first.wall = min(first.wall, second.wall)
            runs.append(first)
    wall = {name: sum(b.wall for b in runs)
            for name, runs in (("parallel", parallel), ("serial", serial), ("traced", traced))}
    metrics = tracer.metrics()
    metrics["trace.overhead"] = wall["traced"] / wall["serial"]
    metrics["simulate.parallel_speedup"] = (wall["serial"] / wall["parallel"]
                                            if workload.threads > 1 else 0.0)
    problems = []
    for label, runs in (("untraced one-worker", serial), ("traced one-worker", traced)):
        for unit, (a, b) in enumerate(zip(parallel, runs)):
            if workload.output_bytes(a.output) != workload.output_bytes(b.output):
                problems.append(f"unit {unit}: {label} output differs from the "
                                f"{workload.threads}-worker output")
    return traced, traced, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no pwmjel package under {SRC} or no {spec_path.name}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    sys.path.insert(0, str(SRC))
    import pwmjel
    if Path(pwmjel.__file__).resolve().parent != PACKAGE:
        print(f"error: imported pwmjel from {pwmjel.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_build" / f"pwmjel-bench-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        print("env " + json.dumps(environment(args.workload), sort_keys=True))
        run = traced_run if args.trace else partial(untraced_run, seconds=seconds)
        reference = Reference()
        firsts, executions, metrics, problems = run(workload, reference)
        problems += workload.check(firsts)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    # The kernel follows the speed of the CPU the caller runs on, which is
    # what a one-process workload sees; work spread over worker processes is
    # left unscaled.
    scale = reference.scale() if workload.threads == 1 else 1.0
    print("calibration " + json.dumps({
        "reference_ms": 1e3 * fast_decile(reference.times), "scale": scale,
        "raw": {m["name"]: metrics[m["name"]] for m in declared}}))
    result = {
        "correct": not problems,
        "attempted": sum(b.attempted for b in executions),
        "failed": sum(b.failed for b in executions),
        "metrics": {m["name"]: {"value": at_reference_speed(metrics[m["name"]], m["unit"], scale),
                                "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
