"""Shared helpers: run context, statistics, process memory, environment stamp."""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The served stream every workload shares unless it says otherwise
#: (the ``repro serve`` CLI defaults).
STREAM = {"algorithm": "trivium", "seed": 0, "lanes": 4096}

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

MIB = 1 << 20


@dataclass
class Context:
    """Everything one workload run needs from the command line."""

    seed: int
    seconds: float
    trace: bool
    tmpdir: Path

    def rng(self, salt: str) -> random.Random:
        """A deterministic input generator for one purpose of this run."""
        return random.Random(f"{self.seed}:{salt}")

    def child_env(self) -> dict:
        """Environment for program subprocesses: import from ``src``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_FAULT_PLAN", None)
        env.pop("REPRO_FLIGHT_DIR", None)
        return env


@dataclass
class Outcome:
    """What a workload run reports back to ``run.py``."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    mismatches: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def percentile(values, q: float) -> float:
    """The *q*-th percentile by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile that still
    has at least ten samples beyond it."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            chosen = q
    return chosen, percentile(values, chosen)


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def timed_median(fn, reps: int) -> float:
    """Median wall seconds of *reps* calls of *fn*."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def counter_total(name: str) -> int:
    """A ``repro.obs`` counter summed over all its label sets."""
    from repro import obs

    return int(sum(inst.value for kind, inst in obs.registry().instruments()
                   if kind == "counter" and inst.name == name))


def peak_rss_kib(pid: int | str = "self") -> int:
    """``VmHWM`` (peak resident set) of one process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_tree(pid: int) -> list[int]:
    """*pid* and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except FileNotFoundError:
            continue
    return out


def tree_peak_rss_mib(pid: int) -> float:
    """Sum of per-process peak RSS over *pid* and its descendants (MiB).

    Forked workers share pages with their parent, so the sum overstates
    the simultaneous footprint; it does so the same way on every run.
    """
    total = 0
    for p in process_tree(pid):
        try:
            total += peak_rss_kib(p)
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total / 1024.0


def stamp(ctx: Context, workload: str) -> dict:
    """Provenance printed with every result."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "workload_seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "stream": dict(STREAM),
    }
