"""Daemon workloads: ``serve_small`` and ``serve_bulk``.

Each run spawns ``repro serve --workers 1`` (CLI defaults otherwise:
Trivium seed 0, 4096 lanes, screen on, 64 KiB chunks) on an ephemeral
loopback port and drives ``GET /v1/bytes`` from closed-loop keep-alive
connections in this process.  Every served payload is checked against
the program's own offline replay afterwards.
"""

from __future__ import annotations

import asyncio
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field

from common import ROOT, STREAM, Context, Outcome, percentile, tail, tree_peak_rss_mib

import budget
import ladder
from httpclient import Connection

#: workload -> (request bytes, connections, warm-up requests per connection)
SHAPES = {"serve_small": (4096, 2, 200), "serve_bulk": (4 << 20, 1, 2)}
CHUNK_BYTES = 1 << 16  # the CLI default --chunk-bytes
SEGMENTS = 3
PROBE_BYTES = 4096
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
SAMPLED_BODIES = 2  # payloads per phase kept whole for a literal skip+read replay
MAX_WINDOWS = 40
WINDOW_REQUESTS = 50


class Daemon:
    """One ``repro serve`` subprocess in its own session."""

    def __init__(self, ctx: Context, trace_out=None) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=ctx.child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(START_TIMEOUT):
                raise RuntimeError("repro serve did not report readiness")
        finally:
            sel.close()
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve failed to start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (graceful drain, trace written), SIGKILL the group on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Phase:
    """Closed-loop load outcome against one daemon."""

    n: int
    latencies: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)  # completion, s into the phase
    #: (lease offset, length, crc32, timed) for every 200 response
    leases: list[tuple[int, int, int, bool]] = field(default_factory=list)
    samples: list[tuple[int, bytes]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    payload: int = 0
    wall: float = 0.0


async def _drive(port: int, phase: Phase, conns: int, *, seconds: float = 0.0,
                 requests: int = 0, timed: bool = True, traced: bool = False,
                 chooser: random.Random | None = None) -> None:
    """Closed loop: each connection sends its next request once the last
    reply arrived, until *seconds* elapse or *requests* were sent each."""
    from repro.obs.tracing import span

    path = f"/v1/bytes?n={phase.n}"
    seen = 0

    async def client() -> None:
        nonlocal seen
        conn = await Connection.open(port)
        try:
            sent = 0
            while (time.perf_counter() < deadline) if seconds else (sent < requests):
                sent += 1
                t0 = time.perf_counter()
                try:
                    if traced:
                        with span("bench.request", n=phase.n) as sp:
                            status, head, body = await conn.get(path, sp.context.to_headers())
                    else:
                        status, head, body = await conn.get(path)
                except (ConnectionError, asyncio.IncompleteReadError):
                    if timed:
                        phase.attempted += 1
                        phase.failed += 1
                    return
                dt = time.perf_counter() - t0
                ok = status == 200 and len(body) == phase.n
                if status == 200:
                    offset = int(head["x-repro-lease-offset"])
                    phase.leases.append((offset, len(body), zlib.crc32(body), timed))
                if not timed:
                    continue
                phase.attempted += 1
                if not ok:
                    phase.failed += 1
                    continue
                phase.latencies.append(dt)
                phase.done_at.append(t0 + dt - t_start)
                phase.payload += len(body)
                seen += 1
                # reservoir sample: every timed payload equally likely
                if chooser is not None:
                    if len(phase.samples) < SAMPLED_BODIES:
                        phase.samples.append((offset, body))
                    else:
                        j = chooser.randrange(seen)
                        if j < SAMPLED_BODIES:
                            phase.samples[j] = (offset, body)
        finally:
            await conn.close()

    t_start = time.perf_counter()
    deadline = t_start + seconds
    await asyncio.gather(*(client() for _ in range(conns)))
    if timed:
        phase.wall = time.perf_counter() - t_start


def windowed_gbps(phases: list[Phase]) -> float:
    """Median payload rate over equal windows of the timed phases.

    Each phase is cut into as many windows (at most MAX_WINDOWS) as keep
    ~WINDOW_REQUESTS completions in each.  A rare stall of a second or
    more (a screen false positive that makes the pool worker rebuild its
    generator from seed) then costs one window instead of moving the
    run's mean; it stays visible in the tail latency and retry counts.
    """
    rates = []
    for phase in phases:
        k = max(1, min(MAX_WINDOWS, len(phase.done_at) // WINDOW_REQUESTS))
        width = phase.wall / k
        counts = [0] * k
        for t in phase.done_at:
            counts[min(k - 1, int(t / width))] += 1
        rates += [c * phase.n * 8 / width / 1e9 for c in counts]
    return statistics.median(rates)


async def _scrape(port: int) -> tuple[dict, dict[str, float]]:
    """``/v1/status`` JSON and ``/metrics`` counters summed over labels."""
    import json

    conn = await Connection.open(port)
    try:
        _, _, status = await conn.get("/v1/status")
        _, _, metrics = await conn.get("/metrics")
    finally:
        await conn.close()
    totals: dict[str, float] = {}
    for line in metrics.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return json.loads(status), totals


async def _probe(port: int) -> tuple[int, bytes]:
    """The first request a fresh daemon answers: ``(lease offset, body)``."""
    conn = await Connection.open(port)
    try:
        status, head, body = await conn.get(f"/v1/bytes?n={PROBE_BYTES}")
    finally:
        await conn.close()
    if status != 200 or len(body) != PROBE_BYTES:
        raise RuntimeError(f"first request failed: HTTP {status}, {len(body)} bytes")
    return int(head["x-repro-lease-offset"]), body


def _cold_start(ctx: Context, expected: bytes, trace_out=None) -> tuple[Daemon, float]:
    """A fresh daemon and its spawn-to-first-200 time (first bytes checked)."""
    daemon = Daemon(ctx, trace_out)
    try:
        offset, body = asyncio.run(_probe(daemon.port))
        elapsed = time.perf_counter() - daemon.t_spawn
        if offset != 0 or body != expected:
            raise RuntimeError("a fresh daemon's first payload differs from the stream")
    except BaseException:
        daemon.stop()
        raise
    return daemon, elapsed


def _verify(phase: Phase, config) -> list[str]:
    """Replay checks; counts each bad timed payload as a failure."""
    problems = []
    leases = sorted(phase.leases)
    for (o1, n1, _, _), (o2, _, _, _) in zip(leases, leases[1:]):
        if o1 + n1 > o2:
            problems.append(f"leases overlap at offset {o2}")
    rng = config.make_rng()
    pos = 0
    for offset, length, crc, timed in leases:
        if offset < pos:
            continue  # overlap, reported above
        rng.skip_bytes(offset - pos)
        if zlib.crc32(rng.read(length)) != crc:
            problems.append(f"payload at offset {offset} differs from the offline replay")
            phase.failed += int(timed)
        pos = offset + length
    for offset, body in phase.samples:
        fresh = config.make_rng()
        fresh.skip_bytes(offset)
        if fresh.read(len(body)) != body:
            problems.append(f"sampled payload at offset {offset} != skip_bytes+read replay")
            phase.failed += 1
    return problems


def _status_counts(status: dict, metrics: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    engine = status["engine"]
    chunks = engine["chunks"]
    out = {
        "engine.chunks_ok": chunks["chunks_ok"],
        "engine.retries": chunks["retries"],
        "engine.degraded": chunks["degraded"],
        "engine.timeouts": chunks["timeouts"],
        "engine.crc_rejects": chunks["crc_rejects"],
        "health.screen_rejects": chunks["screen_rejects"],
        "health.latched": int(not engine["health"]["healthy"]),
        "generator.refills": metrics.get("repro_generator_refills_total", 0),
        "generator.prefetch_hits": metrics.get("repro_generator_prefetch_hits_total", 0),
        "generator.skipped_bytes": metrics.get("repro_generator_skipped_bytes_total", 0),
        "generator.emitted_bytes": metrics.get("repro_generator_emitted_bytes_total", 0),
    }
    served = status["server"]["bytes_served"]
    out["generator.discard_ratio"] = out["generator.skipped_bytes"] / served if served else 0.0
    notes = [f"/v1/status chunks: {chunks}"]
    fleet = engine.get("fleet")
    if fleet:
        notes.append(f"fleet: {fleet}")
    return out, notes


def _byte_split(layer: dict, b: budget.Budget, phase: Phase, e2e_ns_per_byte: float):
    """Where a served byte's time goes, in ns/B: spans split by the ladder.

    The parent's ``serve.chunk`` self time holds the CRC re-check, the
    health screen and the pool round trip; the ladder prices the first
    two, the rest is pool IPC.  Kernel work runs on the worker's
    prefetch thread outside any span, so it comes from the ladder too.
    """
    per_byte = {layer_name: us * 1e3 / phase.payload for layer_name, us in b.layer_us.items()}
    crc = layer["crc.payload_crc_ns_per_byte"]
    screen = layer["health.screen_ns_per_byte"]
    ipc = per_byte.get("engine", 0.0) - crc - screen
    rows = [
        ("kernel (ladder next_planes)", layer["kernel.trivium.ns_per_byte"]),
        ("worker chunk self (span)", per_byte.get("generator", 0.0) + per_byte.get("kernel", 0.0)),
        ("parent CRC re-check (ladder)", crc),
        ("health screen (ladder)", screen),
        ("pool IPC + dispatch (span - ladder)", ipc),
        ("daemon request self: HTTP, lease, socket (span)", per_byte.get("daemon", 0.0)),
        ("client + loopback socket (span)", per_byte.get("client", 0.0)),
        ("end to end per connection, untraced", e2e_ns_per_byte),
    ]
    notes = ["served-byte split (ns/B; traced daemon unless marked):"]
    notes += [f"  {name:<50} {value:9.2f}" for name, value in rows]
    return {"engine.ipc_ns_per_byte": ipc}, notes


def _run_phase(ctx: Context, daemon: Daemon, n: int, conns: int, warm: int,
               seconds: float, traced: bool, salt: str):
    """Warm up, run the timed closed loop, scrape, stop the daemon."""
    from repro import obs

    phase = Phase(n)
    tracer = None
    try:
        asyncio.run(_drive(daemon.port, phase, conns, requests=warm, timed=False))
        tracer = obs.enable_tracing() if traced else None
        try:
            asyncio.run(_drive(daemon.port, phase, conns, seconds=seconds, traced=traced,
                               chooser=ctx.rng(salt)))
        finally:
            obs.disable_tracing()
        status, metrics = asyncio.run(_scrape(daemon.port))
        rss = tree_peak_rss_mib(daemon.proc.pid)
    finally:
        daemon.stop()
    return phase, status, metrics, rss, tracer


def serve(ctx: Context, workload: str) -> Outcome:
    from repro.serve.engine import StreamConfig

    n, conns, warm = SHAPES[workload]
    config = StreamConfig(**STREAM)
    expected = config.make_rng().read(PROBE_BYTES)
    notes: list[str] = []
    layer: dict[str, float] = {}
    # The timed phase is split over SEGMENTS fresh daemons, each timed from
    # spawn to its first 200 (setup_s is their median).  Every segment then
    # serves the same stream range from offset 0: a worker's rebuild from
    # seed costs time in proportion to the offset, so one long-lived
    # daemon would make the per-request cost grow with the run length.
    setups, measured, rss = [], [], 0.0
    segments = 1 if ctx.trace else SEGMENTS
    for i in range(segments):
        daemon, elapsed = _cold_start(ctx, expected)
        setups.append(elapsed)
        phase, status, metrics, peak, _ = _run_phase(
            ctx, daemon, n, conns, warm, ctx.seconds / (2 if ctx.trace else segments),
            False, f"timed{i}",
        )
        measured.append(phase)
        rss = max(rss, peak)
    phases = list(measured)
    if ctx.trace:
        # the budget comes from a second daemon run with --trace-out
        trace_path = ctx.tmpdir / "daemon-trace.json"
        daemon, _ = _cold_start(ctx, expected, trace_out=trace_path)
        phase, status, metrics, _, tracer = _run_phase(
            ctx, daemon, n, conns, warm, ctx.seconds / 2, True, "traced"
        )
        phases.append(phase)
    problems = [p for ph in phases for p in _verify(ph, config)]
    latencies = [x for ph in measured for x in ph.latencies]
    if not latencies:
        raise RuntimeError(f"{workload}: no request completed")

    q, tail_v = tail(latencies)
    e2e = {
        "setup_s": None if ctx.trace else statistics.median(setups),
        "throughput_gbps": windowed_gbps(measured),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": tail_v * 1e3,
        "latency_tail_pct": q,
        "peak_rss_mib": rss,
    }
    if ctx.trace:
        counts, status_notes = _status_counts(status, metrics)
        layer.update(counts)
        notes += status_notes
        spans = budget.from_records(tracer.records, "client")
        spans += budget.from_chrome_trace(trace_path, "daemon")
        b = budget.layer_budget(spans, "bench.request", {
            "bench.request": "client", "serve.request": "daemon", "serve.chunk": "engine",
            "serve.worker_chunk": "generator", "refill": "kernel",
        })
        shares, table = budget.budget_metrics(
            b, budget.LAYERS, conns * phase.wall * 1e6, phase.payload
        )
        layer.update(shares)
        notes += ["layer budget (traced daemon):"] + table
        layer["engine.chunk_self_ms"] = b.self_ms_per_span("serve.chunk")
        layer["daemon.request_self_ms"] = b.self_ms_per_span("serve.request")
        layer["obs.tracing_overhead"] = e2e["throughput_gbps"] / windowed_gbps([phase]) - 1.0
        chunk = min(n, CHUNK_BYTES)
        layer.update(ladder.run_ladder(n, chunk_bytes=chunk, with_serve=False))
        layer["ladder.coverage"] = ladder.coverage(
            layer, n, e2e["latency_p50_ms"], chunk_bytes=chunk
        )
        split, split_notes = _byte_split(layer, b, phase, conns * 8 / e2e["throughput_gbps"])
        layer.update(split)
        notes += split_notes
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    return Outcome(e2e, layer, attempted, failed, problems, notes)
