"""Sidecar integration: continuous QA wired into the serving engine.

The contract under test: a *defective generator* (the ``bias`` fault —
bytes that CRC-verify clean and reproduce identically on retry) is
invisible to every transfer-level defense and must be caught by the QA
sidecar, which latches ``/healthz`` with a ``qa:<plugin>`` event.  A
clean stream must sail through with zero latches, and QA overload must
degrade QA (dropped chunks), never serving.
"""

import queue
import time

import pytest

from repro.errors import SpecificationError
from repro.nist.result import TestResult
from repro.qa import QAPlugin, QASidecar, StreamingEvaluator, default_registry
from repro.qa.plugin_api import PluginResult
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan
from repro.serve import ServeEngine, StreamConfig

STREAM = StreamConfig(algorithm="mickey2", seed=99, lanes=256)
WINDOW = 4096


def _sidecar(plugin_names=("Frequency", "Runs"), fail_alpha=1e-9, **kw):
    reg = default_registry()
    return QASidecar(
        StreamingEvaluator(
            [reg.get(n) for n in plugin_names],
            window_bytes=WINDOW,
            fail_alpha=fail_alpha,
        ),
        **kw,
    )


def _drain(sidecar, timeout=20.0):
    """Wait until the sidecar queue is empty (close() also drains)."""
    deadline = time.monotonic() + timeout
    while sidecar._queue.qsize() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestEngineIntegration:
    def test_clean_inline_engine_stays_healthy(self):
        sidecar = _sidecar()
        engine = ServeEngine(STREAM, workers=0, qa=sidecar)
        engine.start()
        try:
            for i in range(8):
                engine.generate_range(i * WINDOW, WINDOW, chunk_id=i)
        finally:
            engine.close()
        assert engine.health.healthy
        qa = engine.status()["qa"]
        assert qa is not None
        assert qa["bytes_seen"] == 8 * WINDOW
        assert qa["windows_seen"] == 8
        assert qa["plugins"]["Frequency"]["windows"] == 8
        assert qa["dropped_chunks"] == 0

    @pytest.mark.slow
    def test_bias_fault_is_caught_only_by_qa(self, monkeypatch):
        # screen=False isolates the QA layer; CRC receipts stay ON to
        # prove the defect passes transfer verification untouched
        plan = FaultPlan(faults=(Fault(kind="bias", partition=0, bias_mask=0xFE),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        sidecar = _sidecar()
        engine = ServeEngine(
            STREAM,
            workers=1,
            screen=False,
            qa=sidecar,
        )
        engine.start()
        try:
            for i in range(4):
                data = engine.generate_range(i * WINDOW, WINDOW, chunk_id=i)
                assert all(b & 0x01 == 0 for b in data[:64])  # the bias, served
        finally:
            engine.close()
        assert not engine.health.healthy
        events = engine.health.to_dict()["events"]
        assert any(e["test"].startswith("qa:") for e in events)
        qa_event = next(e for e in events if e["test"].startswith("qa:"))
        assert "detail" in qa_event and "p_value" in qa_event["detail"]
        # no transfer-level defense fired: the bytes were "valid"
        chunks = engine.status()["chunks"]
        assert chunks["crc_rejects"] == 0 and chunks["screen_rejects"] == 0

    def test_engine_without_qa_reports_none(self):
        engine = ServeEngine(STREAM, workers=0)
        engine.start()
        try:
            engine.generate_range(0, 1024)
        finally:
            engine.close()
        assert engine.status()["qa"] is None


class TestSidecarMechanics:
    def test_bind_latches_health_with_plugin_detail(self):
        def zero_trap(bits):
            return PluginResult(status="ok", p_values=(0.0,))

        sidecar = QASidecar(
            StreamingEvaluator([QAPlugin("ZeroTrap", zero_trap)], window_bytes=64)
        )

        class FakeHealth:
            def __init__(self):
                self.latches = []

            def latch(self, test, detail=None):
                self.latches.append((test, detail))

        health = FakeHealth()
        sidecar.bind(health)
        sidecar.start()
        sidecar.observe(b"\x00" * 64)
        sidecar.close()
        assert health.latches and health.latches[0][0] == "qa:ZeroTrap"
        assert health.latches[0][1]["window"] == 0

    def test_full_queue_drops_from_qa_not_from_serving(self):
        def slow(bits):
            time.sleep(0.05)
            return TestResult("slow", [1.0])

        sidecar = QASidecar(
            StreamingEvaluator([QAPlugin("Slow", slow)], window_bytes=64),
            queue_chunks=1,
        )
        sidecar.start()
        try:
            for _ in range(50):
                sidecar.observe(b"\x55" * 64)  # far faster than 50ms/window
        finally:
            sidecar.close(timeout=30)
        assert sidecar.dropped_chunks > 0
        assert sidecar.status()["dropped_chunks"] == sidecar.dropped_chunks
        # every chunk that entered the queue was evaluated, none lost
        evaluated = sidecar.evaluator.windows_seen
        assert evaluated + sidecar.dropped_chunks == 50

    def test_plugin_crash_is_contained(self):
        def buggy(bits):
            raise ValueError("plugin bug")

        # min_bits matches the window so the crash is NOT a floor skip
        sidecar = QASidecar(
            StreamingEvaluator([QAPlugin("Buggy", buggy, min_bits=512)], window_bytes=64)
        )
        sidecar.start()
        sidecar.observe(b"\xaa" * 64)
        sidecar.close()
        assert sidecar.errors == 1
        assert sidecar.healthy  # a buggy plugin is not an unhealthy stream
        assert sidecar.status()["sidecar_errors"] == 1

    def test_close_is_idempotent_and_observe_after_close_is_noop(self):
        sidecar = _sidecar()
        sidecar.start()
        sidecar.close()
        sidecar.close()
        sidecar.observe(b"\x00" * WINDOW)
        assert sidecar.evaluator.bytes_seen == 0

    def test_queue_chunks_validated(self):
        with pytest.raises(SpecificationError):
            _sidecar(queue_chunks=0)
