#!/usr/bin/env python
"""Fleet benchmark: supervised scale-out cost and chaos retention (fixed size).

Three timed runs over the same deterministic stream:

* **inline** — a single :class:`RangeSource` front, the zero-overhead
  reference every fleet result must match bit for bit;
* **fleet** — a clean ``workers``-member fleet (heartbeats and CRC
  receipts on; the fleet does not screen): what membership supervision
  costs on this box;
* **chaos** — the same fleet with a scripted ``REPRO_FAULT_PLAN``-style
  plan killing one member mid-stream and slow-bleeding another until it
  strikes out: what eviction + lease reassignment costs.

Two regression-gated ratios, both run-vs-run on the same machine so they
transfer across runners the way ``serve_load``'s scaling ratio does:

* ``fleet_efficiency``   = fleet Gbit/s / inline Gbit/s.  On a
  single-core runner this sits below 1 (supervision and IPC can only add
  overhead there); the committed baseline encodes that floor and the
  gate catches drops — a chattier protocol or a serialization bug lands
  well under it.
* ``chaos_retention``    = chaos Gbit/s / clean-fleet Gbit/s.  Eviction
  detection is deadline-bound, so retention is a property of the
  controller's drain/reassign path, not of absolute CPU speed.

The bench *asserts* the robustness invariants rather than merely timing
them: every run must be bit-identical to the inline reference, the chaos
run must actually evict both saboteurs, and the controller's lease space
must account for every dispatched byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_elastic.py
    python tools/check_bench_regression.py \
        benchmarks/results/BENCH_fleet_elastic.json \
        benchmarks/baselines/BENCH_fleet_elastic.json --tolerance 0.4
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _emit import emit_bench  # noqa: E402

from repro.fleet import FleetConfig, FleetController  # noqa: E402
from repro.robust.faults import Fault, FaultPlan  # noqa: E402
from repro.serve.engine import RangeSource, StreamConfig  # noqa: E402


def run_inline(stream: StreamConfig, n_bytes: int) -> tuple[bytes, float]:
    source = RangeSource(stream)
    t0 = time.perf_counter()
    data = source.read_range(0, n_bytes)
    return data, time.perf_counter() - t0


def run_fleet(
    stream: StreamConfig,
    n_bytes: int,
    config: FleetConfig,
    plan: FaultPlan | None = None,
) -> tuple[bytes, float, dict]:
    controller = FleetController(stream, config, fault_plan=plan)
    controller.start()
    try:
        t0 = time.perf_counter()
        data = controller.read_range(0, n_bytes)
        wall = time.perf_counter() - t0
        status = controller.status()
    finally:
        controller.close()
    return data, wall, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-a", "--algorithm", default="trivium")
    parser.add_argument("-l", "--lanes", type=int, default=4096)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--mbytes", type=int, default=8, help="payload size (MiB)")
    parser.add_argument("--chunk-kib", type=int, default=256, help="lease chunk (KiB)")
    args = parser.parse_args(argv)

    n_bytes = args.mbytes << 20
    chunk_bytes = args.chunk_kib << 10
    stream = StreamConfig(algorithm=args.algorithm, seed=13, lanes=args.lanes)
    config = FleetConfig(
        workers=args.workers,
        heartbeat_interval=0.25,
        heartbeat_timeout=5.0,
        chunk_bytes=chunk_bytes,
        max_strikes=2,
    )
    n_chunks = math.ceil(n_bytes / chunk_bytes)
    plan = FaultPlan(
        faults=(
            # one member dies a third of the way in ...
            Fault("crash", partition=0, attempt=max(1, n_chunks // (3 * args.workers))),
            # ... another starts flipping bytes on every payload
            Fault("slow_bleed", partition=1, attempt=max(1, n_chunks // (2 * args.workers)),
                  corrupt_bytes=2),
        ),
        seed=17,
    )

    print(
        f"fleet elastic bench: {args.workers} workers x {args.algorithm} "
        f"(lanes={args.lanes}), {n_bytes >> 20} MiB in {args.chunk_kib} KiB leases"
    )

    reference, inline_wall = run_inline(stream, n_bytes)
    inline_gbps = n_bytes * 8 / inline_wall / 1e9
    print(f"  inline reference: {inline_wall:.3f}s ({inline_gbps:.3f} Gbit/s)")

    clean, clean_wall, clean_status = run_fleet(stream, n_bytes, config)
    assert clean == reference, "clean fleet merge is not bit-identical"
    assert clean_status["counters"]["evictions"] == 0, "clean run must not evict"
    clean_gbps = n_bytes * 8 / clean_wall / 1e9
    print(f"  clean fleet:      {clean_wall:.3f}s ({clean_gbps:.3f} Gbit/s)")

    chaos, chaos_wall, chaos_status = run_fleet(stream, n_bytes, config, plan)
    assert chaos == reference, "chaos fleet merge is not bit-identical"
    counters = chaos_status["counters"]
    assert counters["evictions"] >= 2, (
        f"chaos drill must evict both saboteurs, saw {counters['evictions']}"
    )
    assert counters["jobs_completed"] + counters["degraded_chunks"] == n_chunks, (
        "every chunk must be accepted exactly once, from a member or inline"
    )
    chaos_gbps = n_bytes * 8 / chaos_wall / 1e9
    print(
        f"  chaos fleet:      {chaos_wall:.3f}s ({chaos_gbps:.3f} Gbit/s), "
        f"{counters['evictions']} evictions, "
        f"{counters['reassignments']} leases reassigned, "
        f"{counters['stale_results']} stale results dropped"
    )

    fleet_efficiency = clean_gbps / inline_gbps
    chaos_retention = chaos_gbps / clean_gbps
    geomean = math.sqrt(fleet_efficiency * chaos_retention)
    print(
        f"  fleet efficiency: {fleet_efficiency:.3f}x inline, "
        f"chaos retention: {chaos_retention:.3f}x clean"
    )

    emit_bench(
        "fleet_elastic",
        params={
            "algorithm": args.algorithm,
            "lanes": args.lanes,
            "workers": args.workers,
            "n_bytes": n_bytes,
            "chunk_bytes": chunk_bytes,
            "cpu_count": os.cpu_count(),
        },
        gbps=clean_gbps,
        wall_s=clean_wall,
        metrics={
            "inline_gbps": inline_gbps,
            "clean_gbps": clean_gbps,
            "chaos_gbps": chaos_gbps,
            "chaos_evictions": counters["evictions"],
            "chaos_reassignments": counters["reassignments"],
            "chaos_stale_results": counters["stale_results"],
            "speedup": {
                "fleet_efficiency": fleet_efficiency,
                "chaos_retention": chaos_retention,
            },
            "geomean_speedup": geomean,
        },
    )
    print("  wrote benchmarks/results/BENCH_fleet_elastic.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
