"""In-process workloads: ``lib_read`` and ``replay_seek``."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    MIB, STREAM, Context, Outcome, counter_total, geomean, peak_rss_kib, percentile, tail,
)

import budget
import ladder

#: lib_read: 1 MiB reads per cipher in one round, chosen so each cipher
#: spends a comparable share of a round (~0.1-0.4 s each on a 2-core Xeon).
LIB_READS_PER_ROUND = {"trivium": 16, "grain": 8, "mickey2": 2, "aes128ctr": 1}
LIB_READ_BYTES = MIB

#: replay_seek: one operation = make_rng + skip_bytes(o) + read(REPLAY_BYTES).
REPLAY_BYTES = 1 << 16
REPLAY_SPAN = 16 * MIB
#: Offsets come in passes of this many strata of [0, REPLAY_SPAN): each
#: offset is uniform within its stratum, each pass covers the range evenly,
#: so the median seek distance is the same on every run.
REPLAY_STRATA = 16

#: Verification replays only samples at most this deep in the stream
#: (a LFSR kernel pays for a deeper seek by generating every byte).
VERIFY_DEPTH = 4 * MIB

COLD_STARTS = 3
PROBE_BYTES = 64


def cold_start_s(ctx: Context, mode: str) -> float:
    """Median time from spawning an interpreter to its first correct bytes."""
    from repro.core.generator import BSRNG

    expected = BSRNG(STREAM["algorithm"], seed=STREAM["seed"], lanes=STREAM["lanes"]).read(
        PROBE_BYTES
    )
    cmd = [
        sys.executable, str(Path(__file__).with_name("coldstart.py")), mode,
        STREAM["algorithm"], str(STREAM["seed"]), str(STREAM["lanes"]), str(PROBE_BYTES),
    ]
    samples = []
    for i in range(COLD_STARTS + 1):  # the first start warms caches and is dropped
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, env=ctx.child_env(), timeout=60, check=True)
        elapsed = time.perf_counter() - t0
        if bytes.fromhex(out.stdout.decode().strip()) != expected:
            raise RuntimeError(f"cold start ({mode}) produced wrong first bytes")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


class _Phase:
    """Per-operation records of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_cipher: dict[str, list[float]] = {}
        self.payload = 0
        self.wall = 0.0


def _traced(fn, *args):
    """Run *fn* with a fresh tracer installed; returns (result, tracer)."""
    from repro import obs

    tracer = obs.enable_tracing()
    try:
        return fn(*args), tracer
    finally:
        obs.disable_tracing()


def _generator_counts() -> dict[str, float]:
    return {
        "generator.refills": counter_total("repro_generator_refills_total"),
        "generator.prefetch_hits": counter_total("repro_generator_prefetch_hits_total"),
        "generator.skipped_bytes": counter_total("repro_generator_skipped_bytes_total"),
        "generator.emitted_bytes": counter_total("repro_generator_emitted_bytes_total"),
    }


def _no_serve_counts() -> dict[str, float]:
    """Serve-path counts on a workload with no daemon on its path."""
    return {
        name: 0
        for name in (
            "engine.chunks_ok", "engine.retries", "engine.degraded", "engine.timeouts",
            "engine.crc_rejects", "health.screen_rejects", "health.latched",
        )
    }


# -- lib_read ----------------------------------------------------------------------
def _lib_phase(rngs: dict, seconds: float, samples: dict, pick) -> _Phase:
    from repro.obs.tracing import span

    phase = _Phase()
    phase.by_cipher = {c: [] for c in rngs}
    rounds = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        for cipher, reads in LIB_READS_PER_ROUND.items():
            rng = rngs[cipher]
            for _ in range(reads):
                offset = rng.tell()
                t0 = time.perf_counter()
                with span("bench.read", algo=cipher):
                    data = rng.read(LIB_READ_BYTES)
                dt = time.perf_counter() - t0
                phase.latencies.append(dt)
                phase.by_cipher[cipher].append(dt)
                if pick(cipher, offset):
                    samples[cipher].append((offset, data))
        rounds += 1
    phase.wall = time.perf_counter() - t_start
    phase.payload = sum(LIB_READS_PER_ROUND.values()) * LIB_READ_BYTES * rounds
    return phase


def _lib_median_read_s(phase: _Phase) -> float:
    """Geometric mean over ciphers of each cipher's median read time.

    The ciphers' read times differ 70-fold, so a pooled median would sit
    in one cipher's tail.
    """
    return geomean([statistics.median(v) for v in phase.by_cipher.values()])


def _lib_throughput(phase: _Phase) -> float:
    return LIB_READ_BYTES * 8 / _lib_median_read_s(phase) / 1e9


def lib_read(ctx: Context) -> Outcome:
    from repro import obs
    from repro.core.generator import BSRNG
    from repro.robust.supervisor import payload_crc

    setup = None if ctx.trace else cold_start_s(ctx, "bsrng")
    rngs = {
        c: BSRNG(c, seed=STREAM["seed"], lanes=STREAM["lanes"]) for c in LIB_READS_PER_ROUND
    }
    for rng in rngs.values():  # warm-up: kernel compile, first refill, prefetch start
        rng.read(LIB_READ_BYTES)
    # verify the first timed read of each cipher and one seeded-random
    # read no deeper than VERIFY_DEPTH
    chooser = ctx.rng("lib_read.samples")
    targets = {c: chooser.randrange(1, VERIFY_DEPTH // LIB_READ_BYTES) * LIB_READ_BYTES
               for c in rngs}
    samples: dict[str, list] = {c: [] for c in rngs}

    def pick(cipher: str, offset: int) -> bool:
        return offset in (LIB_READ_BYTES, targets[cipher])

    if ctx.trace:
        obs.enable_metrics()
        measured = _lib_phase(rngs, ctx.seconds / 2, samples, pick)
        phase, tracer = _traced(_lib_phase, rngs, ctx.seconds / 2, samples, pick)
        counts = _generator_counts()
        attempted = len(measured.latencies) + len(phase.latencies)
    else:
        measured = _lib_phase(rngs, ctx.seconds, samples, pick)
        attempted = len(measured.latencies)
    rss = peak_rss_kib() / 1024.0

    mismatches = []
    for cipher, items in samples.items():
        for offset, data in items:
            fresh = BSRNG(cipher, seed=STREAM["seed"], lanes=STREAM["lanes"])
            fresh.skip_bytes(offset)
            replay, receipt = fresh.read_with_receipt(len(data))
            if replay != data:
                mismatches.append(f"{cipher} read at offset {offset} differs from replay")
            elif receipt.crc != payload_crc(data):
                mismatches.append(f"{cipher} receipt at offset {offset} != payload_crc")
    if any(not items for items in samples.values()):
        mismatches.append("a cipher had no verified lib_read sample")

    tput = _lib_throughput(measured)
    q, tail_v = tail(measured.latencies)
    e2e = {
        "setup_s": setup,
        "throughput_gbps": tput,
        "latency_p50_ms": _lib_median_read_s(measured) * 1e3,
        "latency_tail_ms": tail_v * 1e3,
        "latency_tail_pct": q,
        "peak_rss_mib": rss,
    }
    layer: dict[str, float] = {}
    notes = ["per-cipher Gbit/s at the median read time: " + ", ".join(
        f"{c}={LIB_READ_BYTES * 8 / statistics.median(v) / 1e9:.4f}"
        for c, v in measured.by_cipher.items()
    )]
    if ctx.trace:
        spans = budget.from_records(tracer.records, "bench")
        b = budget.layer_budget(
            spans, "bench.read", {"bench.read": "generator", "refill": "kernel"}
        )
        shares, table = budget.budget_metrics(b, budget.LAYERS, phase.wall * 1e6, phase.payload)
        layer.update(shares)
        notes += ["layer budget (traced phase):"] + table
        layer["obs.tracing_overhead"] = tput / _lib_throughput(phase) - 1.0
        layer.update(counts)
        layer["generator.discard_ratio"] = (
            layer["generator.skipped_bytes"] / layer["generator.emitted_bytes"]
        )
        layer.update(_no_serve_counts())
        layer.update(ladder.run_ladder(LIB_READ_BYTES, chunk_bytes=1 << 16, with_serve=True))
        layer["ladder.coverage"] = ladder.coverage(
            layer, LIB_READ_BYTES, statistics.median(measured.by_cipher["trivium"]) * 1e3
        )
    return Outcome(e2e, layer, attempted, len(mismatches), mismatches, notes)


# -- replay_seek -------------------------------------------------------------------
def _replay_offsets(ctx: Context):
    """Endless stratified-uniform offsets in [0, REPLAY_SPAN), pass by pass."""
    rnd = ctx.rng("replay_seek.offsets")
    stride = REPLAY_SPAN // REPLAY_STRATA
    while True:
        batch = [i * stride + rnd.randrange(stride) for i in range(REPLAY_STRATA)]
        rnd.shuffle(batch)
        yield batch


def _replay_phase(config, offsets, seconds: float, outputs: list) -> _Phase:
    from repro.obs.tracing import span

    phase = _Phase()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:  # whole passes only
        for o in next(offsets):
            t0 = time.perf_counter()
            with span("bench.replay", offset=o):
                with span("bench.init"):
                    rng = config.make_rng()
                with span("bench.skip"):
                    rng.skip_bytes(o)
                with span("bench.read"):
                    data = rng.read(REPLAY_BYTES)
            phase.latencies.append(time.perf_counter() - t0)
            outputs.append((o, data))
    phase.wall = time.perf_counter() - t_start
    phase.payload = len(phase.latencies) * REPLAY_BYTES
    return phase


def replay_seek(ctx: Context) -> Outcome:
    from repro import obs
    from repro.serve.engine import StreamConfig

    setup = None if ctx.trace else cold_start_s(ctx, "stream")
    config = StreamConfig(**STREAM)
    config.make_rng().read(REPLAY_BYTES)  # warm-up: kernel compile
    offsets = _replay_offsets(ctx)
    outputs: list = []
    if ctx.trace:
        obs.enable_metrics()
        measured = _replay_phase(config, offsets, ctx.seconds / 2, outputs)
        counts_before = _generator_counts()
        phase, tracer = _traced(_replay_phase, config, offsets, ctx.seconds / 2, outputs)
        counts = _generator_counts()
    else:
        measured = _replay_phase(config, offsets, ctx.seconds, outputs)
    rss = peak_rss_kib() / 1024.0

    sequential = config.make_rng().read(REPLAY_SPAN + REPLAY_BYTES)
    mismatches = [
        f"replay at offset {o} differs from the sequential stream"
        for o, data in outputs
        if data != sequential[o : o + REPLAY_BYTES]
    ]

    q, tail_v = tail(measured.latencies)
    e2e = {
        "setup_s": setup,
        "throughput_gbps": measured.payload * 8 / measured.wall / 1e9,
        "latency_p50_ms": percentile(measured.latencies, 50) * 1e3,
        "latency_tail_ms": tail_v * 1e3,
        "latency_tail_pct": q,
        "peak_rss_mib": rss,
    }
    layer: dict[str, float] = {}
    notes = []
    if ctx.trace:
        spans = budget.from_records(tracer.records, "bench")
        b = budget.layer_budget(spans, "bench.replay", {
            "bench.replay": "client", "bench.init": "seek", "bench.skip": "seek",
            "bench.read": "generator", "refill": "kernel",
        })
        shares, table = budget.budget_metrics(b, budget.LAYERS, phase.wall * 1e6, phase.payload)
        layer.update(shares)
        notes += ["layer budget (traced phase):"] + table
        layer["obs.tracing_overhead"] = (
            (measured.payload / measured.wall) / (phase.payload / phase.wall) - 1.0
        )
        layer.update(counts)
        traced_skipped = counts["generator.skipped_bytes"] - counts_before["generator.skipped_bytes"]
        traced_emitted = counts["generator.emitted_bytes"] - counts_before["generator.emitted_bytes"]
        layer["generator.discard_ratio"] = traced_skipped / traced_emitted
        layer.update(_no_serve_counts())
        layer.update(ladder.run_ladder(REPLAY_BYTES, chunk_bytes=REPLAY_BYTES, with_serve=True))
        layer["ladder.coverage"] = ladder.coverage(
            layer, REPLAY_BYTES, e2e["latency_p50_ms"], seek_bytes=REPLAY_SPAN // 2
        )
    return Outcome(e2e, layer, len(outputs), len(mismatches), mismatches, notes)
