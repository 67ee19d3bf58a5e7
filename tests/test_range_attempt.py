"""The one stream-range body: one cold CRC receipt and faults in every worker.

A fleet lease (every served chunk) and a multi-device partition both
draw through :func:`repro.serve.engine.range_attempt`.  These tests pin
what that buys: every attempt takes exactly one cold ``payload_crc``
pass, after any ``bias`` fault and before the post-generation faults,
and a ``bias`` plan reaches the fleet and the multi-device workers
alike — masked bytes that still verify clean.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.fleet import FleetConfig, FleetController
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust import supervisor
from repro.robust.faults import Fault, FaultPlan
from repro.serve.engine import RangeSource, StreamConfig, range_attempt

STREAM = StreamConfig(algorithm="trivium", seed=9, lanes=64)
BIAS = FaultPlan((Fault("bias", partition=0, bias_mask=0xFE),))


def reference(n: int, offset: int = 0) -> bytes:
    rng = STREAM.make_rng()
    rng.skip_bytes(offset)
    return rng.read(n)


def masked(data: bytes) -> bytes:
    return (np.frombuffer(data, dtype=np.uint8) & np.uint8(0xFE)).tobytes()


def counting_crc(monkeypatch) -> list[int]:
    """Count the shell's cold ``payload_crc`` passes: in this process as
    the returned list, in a forked worker as ``shell_crc_passes_total``
    in its shipped metrics."""
    calls: list[int] = []
    real = supervisor.payload_crc

    def crc(payload):
        calls.append(len(payload))
        obs.inc("shell_crc_passes_total", 1)
        return real(payload)

    monkeypatch.setattr(supervisor, "payload_crc", crc)
    return calls


def metric_names(reg) -> set[str]:
    return {entry["name"] for entry in reg.snapshot()["metrics"]}


class TestSingleTouchReceipt:
    def test_one_cold_crc_per_attempt(self, monkeypatch):
        calls = counting_crc(monkeypatch)
        data, crc, spans = range_attempt(RangeSource(STREAM), 3, 0, 4096, 4096, None)
        assert calls == [4096]
        assert data == reference(4096, offset=4096)
        assert crc == supervisor.payload_crc(data)
        assert spans is None

    def test_bias_takes_one_cold_crc_over_the_biased_bytes(self, monkeypatch):
        calls = counting_crc(monkeypatch)
        data, crc, _ = range_attempt(RangeSource(STREAM), 3, 0, 0, 4096, BIAS)
        assert calls == [4096]
        assert data == masked(reference(4096))
        assert crc == supervisor.payload_crc(data)  # the receipt covers the bias

    def test_post_generate_faults_follow_the_receipt(self):
        plan = FaultPlan((Fault("corrupt", 2, 1, corrupt_bytes=3),), seed=1)
        data, crc, _ = range_attempt(RangeSource(STREAM), 2, 1, 0, 1024, plan)
        assert data != reference(1024)
        assert crc == supervisor.payload_crc(reference(1024))


def fleet_config(**overrides) -> FleetConfig:
    defaults = dict(
        workers=2,
        heartbeat_interval=0.2,
        heartbeat_timeout=4.0,
        chunk_bytes=4096,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestFleetWorkers:
    def test_every_job_takes_one_cold_crc(self, monkeypatch):
        counting_crc(monkeypatch)  # forked members inherit the patch

        def passes(reg) -> int:
            return sum(
                entry["value"]
                for entry in reg.snapshot()["metrics"]
                if entry["name"] == "shell_crc_passes_total"
            )

        with obs.scoped() as reg:
            with FleetController(STREAM, fleet_config(mp_context="fork")) as ctrl:
                data = ctrl.read_range(0, 65536, timeout=120)
                # members ship their series as heartbeat deltas: wait
                # for every member's delta covering its last job
                deadline = time.monotonic() + 30.0
                while passes(reg) < 16 and time.monotonic() < deadline:
                    ctrl.pump(0.05)
        assert data == reference(65536)
        assert passes(reg) == 16

    def test_bias_masks_fleet_bytes_with_zero_crc_rejects(self):
        # the bias must pass every transfer-level defence: the fleet
        # serves it and evicts no one
        with obs.scoped() as reg:
            with FleetController(STREAM, fleet_config(), fault_plan=BIAS) as ctrl:
                data = ctrl.read_range(0, 65536, timeout=120)
                status = ctrl.status()
        assert data == masked(reference(65536))
        assert status["counters"]["evictions"] == 0
        names = metric_names(reg)
        assert "repro_fleet_receipt_failures_total" not in names  # the CRC covers the bias


class TestMultiDeviceWorkers:
    def test_bias_masks_partitions_with_zero_crc_rejects(self):
        gen = MultiDeviceGenerator(
            "trivium", seed=9, lanes=64, n_devices=2, block_bytes=4096, fault_plan=BIAS,
        )
        out = gen.generate(4)
        assert out == masked(gen.sequential_reference(4))
        assert gen.last_report.events == []  # no corrupt receipt, no retry
        assert set(gen.last_report.attempts.values()) == {1}

    def test_job_ships_the_stream_config(self):
        gen = MultiDeviceGenerator("trivium", seed=9, lanes=64, n_devices=2, block_bytes=512)
        # a partition is a range job on the generator's stream
        assert gen.stream == STREAM
        assert gen._jobs(3) == {0: (0, 1024), 1: (1024, 512)}
