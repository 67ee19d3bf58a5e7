"""The repository benchmark: one command, four workloads, correctness checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lib_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload serve_bulk --seed 1 --seconds 10 --repeat 5

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced, then the layer ladder, and
reports the per-layer metrics.  ``--repeat K`` runs the command K times
with seeds ``seed .. seed+K-1`` and prints each metric's median and
interquartile spread.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from common import ROOT, SRC, Context, spread, stamp

#: End-to-end metrics (printed with --trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_gbps": "Gbit/s",
    "latency_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (printed with --trace 1): name -> unit.
PER_LAYER = {
    "latency_tail_ms": "ms",
    "latency_tail_pct": "%",
    "error_ratio": "ratio",
    "kernel.trivium.ns_per_byte": "ns/B",
    "kernel.grain.ns_per_byte": "ns/B",
    "kernel.mickey2.ns_per_byte": "ns/B",
    "kernel.aes128ctr.ns_per_byte": "ns/B",
    "generator.read_ns_per_byte": "ns/B",
    "generator.read_overhead_ns_per_byte": "ns/B",
    "generator.prefetch_hit_ratio": "ratio",
    "generator.init_ms": "ms",
    "generator.skip_ns_per_byte": "ns/B",
    "generator.discard_ratio": "ratio",
    "generator.refills": "count",
    "generator.prefetch_hits": "count",
    "generator.skipped_bytes": "B",
    "generator.emitted_bytes": "B",
    "touch.receipt_ns_per_byte": "ns/B",
    "crc.payload_crc_ns_per_byte": "ns/B",
    "health.screen_ns_per_byte": "ns/B",
    "health.screen_rejects": "count",
    "health.latched": "count",
    "engine.dispatch_us_per_chunk": "us",
    "engine.chunk_self_ms": "ms",
    "engine.ipc_ns_per_byte": "ns/B",
    "engine.chunks_ok": "count",
    "engine.retries": "count",
    "engine.degraded": "count",
    "engine.timeouts": "count",
    "engine.crc_rejects": "count",
    "leases.acquire_release_us": "us",
    "daemon.request_self_ms": "ms",
    "obs.tracing_overhead": "ratio",
    "layers.client_share": "share",
    "layers.daemon_share": "share",
    "layers.engine_share": "share",
    "layers.generator_share": "share",
    "layers.seek_share": "share",
    "layers.kernel_share": "share",
    "layers.unattributed_share": "share",
    "ladder.coverage": "ratio",
}

WORKLOADS = ("lib_read", "serve_small", "serve_bulk", "replay_seek")


def run_workload(name: str, ctx: Context):
    if name in ("lib_read", "replay_seek"):
        import library_workloads

        return getattr(library_workloads, name)(ctx)
    import serve_workloads

    return serve_workloads.serve(ctx, name)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def single(args) -> int:
    ctx_dir = ROOT / ".perfbench_tmp"
    ctx_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ctx_dir) as tmp:
        ctx = Context(seed=args.seed, seconds=float(args.seconds), trace=bool(args.trace),
                      tmpdir=Path(tmp))
        print("perfbench " + json.dumps(stamp(ctx, args.workload), sort_keys=True), flush=True)
        outcome = run_workload(args.workload, ctx)
    e2e, layer = outcome.end_to_end, outcome.per_layer
    error_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    layer["latency_tail_ms"] = e2e["latency_tail_ms"]
    layer["latency_tail_pct"] = e2e["latency_tail_pct"]
    layer["error_ratio"] = error_ratio

    print("end-to-end:")
    for name, unit in END_TO_END.items():
        if e2e.get(name) is not None:
            print(f"  {name:<22} {_fmt(e2e[name]):>12} {unit}")
    print(f"  {'latency_tail_ms':<22} {_fmt(e2e['latency_tail_ms']):>12} ms"
          f"  (p{e2e['latency_tail_pct']:g})")
    print(f"  {'error_ratio':<22} {_fmt(error_ratio):>12} ratio"
          f"  ({outcome.failed} failed / {outcome.attempted} attempted)")
    if args.trace:
        print("per-layer:")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<38} {_fmt(layer[name]):>12} {unit}")
    for note in outcome.notes:
        print(note)
    correct = not outcome.mismatches and outcome.failed == 0 and outcome.attempted > 0
    print("checks: " + ("ok" if correct else "FAILED"))
    for problem in outcome.mismatches[:20]:
        print("  " + problem)

    chosen = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": (layer if args.trace else e2e)[name], "unit": unit}
            for name, unit in chosen.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def repeat(args) -> int:
    """Run the command *repeat* times with successive seeds; report spread."""
    import statistics

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    correct, attempted, failed = True, 0, 0
    for i in range(args.repeat):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed",
               str(args.seed + i), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            correct = False
            continue
        if i == 0:
            print(lines[0])
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.repeat} seed={args.seed + i}: " + ", ".join(
            f"{k}={_fmt(m['value'])}" for k, m in result["metrics"].items()), flush=True)
    print(f"{'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        print(f"{name:<38} {_fmt(statistics.median(vals)):>12} {_fmt(q1):>12} "
              f"{_fmt(q3):>12} {spread(vals):8.3f}")
    summary = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": statistics.median(v), "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="steadiness report: run K times with successive seeds")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repeat > 1:
        return repeat(args)
    try:
        return single(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
