#!/usr/bin/env python3
"""Benchmark for hadrow: four closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload row-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload batch-hadp --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

One client, this process, issues each operation after the previous one
completes, then runs the operation's plain-NumPy control (control.py).
`--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced operations and reports the per-layer
metrics from span-recording shims (see spans.py).  Every metric is
printed as `name value unit`; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path
from random import Random
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 7
# Checks stop once they have used this share of --seconds; at today's
# speeds that checks every operation.
CHECK_SHARE = 0.5
# Safety stop for the timed loop, as a multiple of --seconds of wall time.
WALL_FACTOR = 3
# The traced self times of an op may leave uncovered at most the tracing
# overhead plus this many percent of its wall time (benchmark glue code).
GLUE_PCT = 3.0

END_TO_END = [
    ("rel_speed", "x"),
    ("peak_mem_mib", "MiB"),
    ("setup_s", "s"),
]
# Printed but left out of the JSON result and its bounds: the shared
# host's speed moves by 20-40% in phases of seconds to minutes, so raw
# rates and latencies of the same code spread from run to run by more
# than a bound may allow.  rel_speed cancels the phases (see control.py).
PRINTED_ONLY = [
    ("rows_per_s", "1/s"),
    ("images_per_s", "1/s"),
    ("row_latency_p50_ms", "ms"),
    ("row_latency_p90_ms", "ms"),
]


class Harness:
    """Runs, times and checks the operations of one workload."""

    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.check_budget_ns = int(CHECK_SHARE * seconds * 1e9)
        self.attempted = self.failed = self.checked = self.timed_ops = 0
        self.check_ns = 0
        self.last_input = self.last_output = None

    def op(self, around=contextlib.nullcontext, corrupt: bool = False) -> int:
        """One operation; returns its wall time in ns.

        `around` wraps only the timed call (tracing shims, tracemalloc).
        """
        wl = self.workload
        inp = wl.prepare()
        out = None
        with around():
            start = perf_counter_ns()
            try:
                out = wl.run(inp)
            except Exception:
                traceback.print_exc()
            wall = perf_counter_ns() - start
        self.last_input, self.last_output = inp, out
        self.attempted += 1
        ok = out is not None
        if ok and self.check_ns < self.check_budget_ns:
            start = perf_counter_ns()
            try:
                ok = bool(wl.check(inp, wl.corrupt(out) if corrupt else out))
            except Exception:
                traceback.print_exc()
                ok = False
            self.check_ns += perf_counter_ns() - start
            self.checked += 1
        if not ok:
            self.failed += 1
            print(f"op {self.attempted - 1} of {wl.name} failed", file=sys.stderr)
        return wall


def timed_loop(step, seconds: float) -> None:
    """Call step() until its returned times add up to `seconds`."""
    target = seconds * 1e9
    deadline = perf_counter_ns() + WALL_FACTOR * target
    spent = 0
    while spent < target and perf_counter_ns() < deadline:
        spent += step()


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing hadrow and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import hadrow, hadrow.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / 1e9


@contextlib.contextmanager
def tracemalloc_peak(holder: list):
    tracemalloc.start()
    try:
        yield
        holder.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def end_to_end(harness: Harness, seconds: float) -> dict:
    wl = harness.workload
    setup = setup_seconds()
    walls: list[int] = []
    controls: list[int] = []

    def step() -> int:
        walls.append(harness.op())
        start = perf_counter_ns()
        wl.control(harness.last_input)
        controls.append(perf_counter_ns() - start)
        return walls[-1] + controls[-1]

    timed_loop(step, seconds)
    harness.timed_ops = len(walls)
    peak: list[int] = []
    harness.op(around=lambda: tracemalloc_peak(peak))
    timed_s = sum(walls) / 1e9
    per_row_ms = [w / 1e6 / wl.rows_per_op for w in walls]
    p90 = per_row_ms[0]
    if len(per_row_ms) > 1:
        p90 = statistics.quantiles(per_row_ms, n=10, method="inclusive")[-1]
    return {
        "rel_speed": statistics.median(c / w for c, w in zip(controls, walls)),
        "rows_per_s": wl.rows_per_op * len(walls) / timed_s,
        "images_per_s": wl.images_per_op * len(walls) / timed_s,
        "row_latency_p50_ms": statistics.median(per_row_ms),
        "row_latency_p90_ms": p90,
        "peak_mem_mib": peak[0] / 2**20,
        "setup_s": setup,
    }


def per_layer(harness: Harness, seconds: float) -> tuple[dict, list[str]]:
    from layers import TARGETS, per_layer_values
    from spans import Tracer

    tracer = Tracer()
    untraced, traced, summaries = [], [], []

    @contextlib.contextmanager
    def tracing():
        tracer.op = harness.attempted
        tracer.install(TARGETS)
        try:
            yield
        finally:
            tracer.uninstall()

    def pair() -> int:
        untraced.append(harness.op())
        traced.append(harness.op(around=tracing))
        summaries.append(tracer.take_op(traced[-1]))
        return untraced[-1] + traced[-1]

    timed_loop(pair, seconds)
    harness.timed_ops = len(untraced) + len(traced)
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    unaccounted = statistics.median(
        s["unaccounted_ns"] / wall * 100 for s, wall in zip(summaries, traced)
    )
    problems = []
    if min(s["min_self_ns"] for s in summaries) < 0:
        problems.append("a span has negative self time")
    if unaccounted > max(overhead, 0.0) + GLUE_PCT:
        problems.append(
            f"traced self times leave {unaccounted:.2f}% of op wall time uncovered, "
            f"more than the {overhead:.2f}% tracing overhead plus {GLUE_PCT}%"
        )
    values = per_layer_values(summaries, tracer.counts, overhead, unaccounted)
    if tracer.counts["core.predicted"] and values["core.mults_per_predicted"] != 1.0:
        problems.append("multiplications charged differ from predicted_cost")
    return values, problems


def _git_commit() -> str:
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
    return "unknown"


def _caches() -> dict:
    """Cache sizes of CPU 0, read from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def context(args, harness: Harness, nproc: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "caches": _caches(),
        "timed_ops": harness.timed_ops,
        "checked_ops": harness.checked,
        "loop": "closed, 1 client",
    }


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on one CPU.

    On the shared 2-vCPU host this benchmark was built on, hand-offs
    between `batch --jobs 2` worker threads on two vCPUs were the largest
    source of run-to-run spread; on one CPU the threads still take turns
    through the pool, the GIL and the ordered map.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args) -> int:
    from layers import metric_units
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    pin_to_one_cpu()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](Random(args.seed), workdir)
        harness = Harness(workload, args.seconds)
        harness.op()  # warm-up: imports, caches and lazy set-up before timing
        if args.trace:
            values, problems = per_layer(harness, args.seconds)
            units, printed = metric_units(), []
        else:
            values, problems = end_to_end(harness, args.seconds), []
            units, printed = END_TO_END, PRINTED_ONLY
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    print("context " + json.dumps(context(args, harness, nproc), sort_keys=True))
    for name, unit in units + printed:
        value = values[name]
        shown = int(value) if float(value).is_integer() else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    print(f"error_rate {harness.failed / harness.attempted:.6g} "
          f"({harness.failed}/{harness.attempted} ops failed)")
    result = {
        "correct": harness.failed == 0 and not problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Corrupt one output per workload and require error_rate > 0.

    Also require each workload's control to produce the same output as
    hadrow, so rel_speed compares two ways of doing one job.
    """
    from workloads import WORKLOADS

    bad = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, cls in WORKLOADS.items():
            harness = Harness(cls(Random(0), workdir), seconds=60)
            harness.op(corrupt=True)
            harness.op()
            wl = harness.workload
            agrees = wl.agrees(harness.last_output, wl.control(harness.last_input))
            rate = harness.failed / harness.attempted
            print(f"self-test {name}: error_rate {rate:.3g} ({harness.failed}/{harness.attempted}), "
                  f"control agrees: {agrees}")
            if harness.failed != 1 or not agrees:
                bad.append(name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"self-test FAILED: {', '.join(bad)} did not flag exactly the corrupted op "
              "or its control disagreed with hadrow", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["row-stream", "batch-hadp", "spi-roundtrip",
                                               "spi-reconstruct"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a corrupted output is counted as failed")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "hadrow" / "__init__.py").is_file():
        print(f"error: no hadrow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return self_test() if args.self_test else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
