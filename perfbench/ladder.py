"""The layer ladder: each layer's public entry points timed in isolation.

Every rung runs on the workload's own operation size, on the shared
stream (:data:`common.STREAM`), in this process.  Values are medians of
repeated calls.  Costs of wrapping layers are reported as differences
(``read_with_receipt`` minus ``read``, pool ``generate_range`` minus
inline ``generate_range``), so rungs add up along the path a byte takes.
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time

import numpy as np

from common import MIB, STREAM, counter_total, timed_median

import budget
from httpclient import Connection

BANKS = {
    "trivium": "repro.ciphers.trivium_bitsliced.BitslicedTrivium",
    "grain": "repro.ciphers.grain_bitsliced.BitslicedGrain",
    "mickey2": "repro.ciphers.mickey_bitsliced.BitslicedMickey2",
    "aes128ctr": "repro.ciphers.aes_bitsliced.BitslicedAESCTR",
}

RUNG_SECONDS = 0.3  # minimum timed span of one rung
ALPHA = 2.0**-20  # the CLI's default screen false-positive rate


def _per_call(fn, min_calls: int = 5, seconds: float = RUNG_SECONDS) -> float:
    """Median seconds per call of *fn*, after one untimed warm-up call."""
    fn()
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < min_calls or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _bank(cipher: str):
    from repro.core.engine import BitslicedEngine

    module_name, cls_name = BANKS[cipher].rsplit(".", 1)
    cls = getattr(__import__(module_name, fromlist=[cls_name]), cls_name)
    engine = BitslicedEngine(n_lanes=STREAM["lanes"], dtype=np.uint64, fused=True)
    return cls(engine).seed(STREAM["seed"])


def kernel_rungs() -> dict[str, float]:
    """``next_planes`` ns per byte for each bitsliced cipher."""
    out = {}
    for cipher in BANKS:
        bank = _bank(cipher)
        rows = bank.engine.stage_rows
        nbytes = rows * bank.engine.n_words * 8
        out[f"kernel.{cipher}.ns_per_byte"] = _per_call(lambda: bank.next_planes(rows)) * 1e9 / nbytes
    return out


def generator_rungs(op_bytes: int) -> dict[str, float]:
    """``BSRNG.read``, ``read_with_receipt``, ``payload_crc``, screen, seek."""
    from repro import obs
    from repro.robust.supervisor import payload_crc
    from repro.serve.engine import HealthState, StreamConfig

    config = StreamConfig(**STREAM)
    out: dict[str, float] = {}
    rng = config.make_rng()
    calls = max(5, (8 * MIB) // op_bytes)
    obs.enable_metrics()
    hits0 = counter_total("repro_generator_prefetch_hits_total")
    refills0 = counter_total("repro_generator_refills_total")
    read_s = _per_call(lambda: rng.read(op_bytes), min_calls=calls)
    hits = counter_total("repro_generator_prefetch_hits_total") - hits0
    refills = counter_total("repro_generator_refills_total") - refills0
    out["generator.prefetch_hit_ratio"] = hits / refills if refills else 0.0
    read_ns = read_s * 1e9 / op_bytes
    receipt_ns = _per_call(lambda: rng.read_with_receipt(op_bytes), min_calls=calls) * 1e9 / op_bytes
    out["generator.read_ns_per_byte"] = read_ns
    out["touch.receipt_ns_per_byte"] = receipt_ns - read_ns

    chunk = min(op_bytes, 1 << 16)
    data = config.make_rng().read(MIB)
    pieces = [data[i : i + chunk] for i in range(0, len(data), chunk)]
    out["crc.payload_crc_ns_per_byte"] = _per_call(lambda: payload_crc(pieces[0])) * 1e9 / chunk
    state = HealthState(ALPHA)
    out["health.screen_ns_per_byte"] = (
        _per_call(lambda: [state.screen(p) for p in pieces], min_calls=3) * 1e9 / len(data)
    )

    out["generator.init_ms"] = timed_median(config.make_rng, 5) * 1e3
    skip = 4 * MIB

    def seek() -> None:
        config.make_rng().skip_bytes(skip)

    init_s = out["generator.init_ms"] / 1e3
    out["generator.skip_ns_per_byte"] = (timed_median(seek, 3) - init_s) * 1e9 / skip
    return out


def lease_rung(op_bytes: int) -> dict[str, float]:
    """``LeaseManager.acquire`` + ``release`` in microseconds per pair."""
    from repro.serve.leases import LeaseManager

    manager = LeaseManager()

    def pair() -> None:
        manager.release(manager.acquire(op_bytes, client="bench").lease_id)

    per = _per_call(lambda: [pair() for _ in range(100)]) / 100
    return {"leases.acquire_release_us": per * 1e6}


def engine_rungs(chunk_bytes: int, traced: bool) -> dict[str, float]:
    """Pool minus inline ``ServeEngine.generate_range`` per chunk.

    With *traced*, a further pass through the pool runs under tracing
    and yields the ``serve.chunk`` self time (dispatch, IPC, CRC check
    and screen in the calling process).
    """
    from repro import obs
    from repro.serve.engine import ServeEngine, StreamConfig

    config = StreamConfig(**STREAM)
    n_chunks = max(16, min(256, (2 * MIB) // chunk_bytes))
    out: dict[str, float] = {}
    per_chunk = {}
    for workers in (0, 1):
        engine = ServeEngine(config, workers=workers, alpha=ALPHA)
        engine.start()
        try:
            engine.generate_range(0, chunk_bytes)
            offset = chunk_bytes
            samples = []
            for i in range(n_chunks):
                t0 = time.perf_counter()
                engine.generate_range(offset, chunk_bytes, chunk_id=i)
                samples.append(time.perf_counter() - t0)
                offset += chunk_bytes
            per_chunk[workers] = statistics.median(samples)
            if traced and workers == 1:
                tracer = obs.enable_tracing()
                try:
                    for i in range(n_chunks):
                        engine.generate_range(offset, chunk_bytes, chunk_id=i)
                        offset += chunk_bytes
                finally:
                    obs.disable_tracing()
                spans = budget.from_records(tracer.records, "ladder")
                b = budget.layer_budget(spans, "serve.chunk", {})
                out["engine.chunk_self_ms"] = b.self_ms_per_span("serve.chunk")
        finally:
            engine.close()
    out["engine.dispatch_us_per_chunk"] = (per_chunk[1] - per_chunk[0]) * 1e6
    return out


def loopback_rung(op_bytes: int) -> dict[str, float]:
    """``serve.request`` self time through an in-process daemon.

    The daemon runs inline (``workers=0``) on an ephemeral loopback port
    in a background thread, and serves sequential requests of the
    workload's size under tracing.
    """
    from repro import obs
    from repro.serve import DaemonConfig, ServeDaemon, ServeEngine, StreamConfig

    n = min(op_bytes, MIB)
    daemon = ServeDaemon(
        ServeEngine(StreamConfig(**STREAM), workers=0, alpha=ALPHA),
        DaemonConfig(port=0, drain_grace=1.0),
    )
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()), daemon=True)
    thread.start()
    tracer = obs.enable_tracing()
    try:
        if not daemon.started.wait(30):
            raise RuntimeError("in-process daemon did not start")

        async def client() -> None:
            conn = await Connection.open(daemon.bound_port)
            try:
                t_end = time.perf_counter() + RUNG_SECONDS
                count = 0
                while count < 20 or time.perf_counter() < t_end:
                    status, _, body = await conn.get(f"/v1/bytes?n={n}")
                    if status != 200 or len(body) != n:
                        raise RuntimeError(f"loopback rung got HTTP {status}")
                    count += 1
            finally:
                await conn.close()

        asyncio.run(client())
    finally:
        obs.disable_tracing()
        daemon.shutdown_threadsafe()
        thread.join(10)
    spans = budget.from_records(tracer.records, "ladder")
    b = budget.layer_budget(spans, "serve.request", {})
    return {"daemon.request_self_ms": b.self_ms_per_span("serve.request")}


def run_ladder(op_bytes: int, chunk_bytes: int, with_serve: bool) -> dict[str, float]:
    """Every rung on one workload's operation and chunk sizes.

    *with_serve* adds the traced engine pass and the loopback daemon rung,
    which stand in for the serve-path spans on workloads that have no
    daemon of their own.
    """
    out = kernel_rungs()
    out.update(generator_rungs(op_bytes))
    out["generator.read_overhead_ns_per_byte"] = (
        out["generator.read_ns_per_byte"] - out["kernel.trivium.ns_per_byte"]
    )
    out.update(lease_rung(op_bytes))
    out.update(engine_rungs(chunk_bytes, traced=with_serve))
    if with_serve:
        out.update(loopback_rung(op_bytes))
        out["engine.ipc_ns_per_byte"] = (
            out["engine.chunk_self_ms"] * 1e6 / chunk_bytes
            - out["crc.payload_crc_ns_per_byte"]
            - out["health.screen_ns_per_byte"]
        )
    return out


def coverage(layer: dict, op_bytes: int, p50_ms: float, *, seek_bytes: int = 0,
             chunk_bytes: int = 0) -> float:
    """Share of the median operation's wall time the ladder accounts for.

    Library operations sum init, seek and draw rungs; serve requests
    (``chunk_bytes`` > 0) add the worker and parent CRC passes, the
    screen, pool dispatch per chunk and one lease.
    """
    per_byte = layer["generator.read_ns_per_byte"]
    fixed_us = 0.0
    if seek_bytes:
        fixed_us += layer["generator.init_ms"] * 1e3
        fixed_us += layer["generator.skip_ns_per_byte"] * seek_bytes / 1e3
    if chunk_bytes:
        per_byte += 2 * layer["crc.payload_crc_ns_per_byte"] + layer["health.screen_ns_per_byte"]
        fixed_us += layer["engine.dispatch_us_per_chunk"] * -(-op_bytes // chunk_bytes)
        fixed_us += layer["leases.acquire_release_us"]
    estimate_ms = (per_byte * op_bytes / 1e3 + fixed_us) / 1e3
    return estimate_ms / p50_ms
