"""Fault-injection harness: plan validation, determinism, serialisation,
env-var activation, and each fault kind's observable effect."""

import time

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan, InjectedCrash, StuckBSRNG


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            Fault("explode", 0)

    def test_negative_keys_rejected(self):
        with pytest.raises(SpecificationError):
            Fault("crash", -1)
        with pytest.raises(SpecificationError):
            Fault("crash", 0, attempt=-1)

    def test_delay_needs_positive_duration(self):
        with pytest.raises(SpecificationError):
            Fault("delay", 0, delay=0.0)

    def test_corrupt_needs_positive_count(self):
        with pytest.raises(SpecificationError):
            Fault("corrupt", 0, corrupt_bytes=0)

    def test_stuck_byte_range(self):
        with pytest.raises(SpecificationError):
            Fault("stuck", 0, stuck_byte=256)


class TestFaultPlan:
    def test_matching_is_exact(self):
        plan = FaultPlan((Fault("crash", 1, 0), Fault("crash", 1, 2)))
        assert len(plan.matching(1, 0)) == 1
        assert plan.matching(1, 1) == []
        assert plan.matching(0, 0) == []

    def test_crash_raises_injected(self):
        plan = FaultPlan((Fault("crash", 3, 1),))
        plan.pre_generate(3, 0)  # wrong attempt: no-op
        with pytest.raises(InjectedCrash):
            plan.pre_generate(3, 1)

    def test_delay_sleeps(self):
        plan = FaultPlan((Fault("delay", 0, 0, delay=0.05),))
        t0 = time.perf_counter()
        plan.pre_generate(0, 0)
        assert time.perf_counter() - t0 >= 0.05

    def test_corrupt_is_deterministic_and_real(self):
        plan = FaultPlan((Fault("corrupt", 0, 0, corrupt_bytes=4),), seed=9)
        payload = bytes(range(64))
        a = plan.post_generate(0, 0, payload)
        b = plan.post_generate(0, 0, payload)
        assert a == b != payload
        assert sum(x != y for x, y in zip(a, payload)) == 4

    def test_stuck_replaces_payload(self):
        plan = FaultPlan((Fault("stuck", 0, 0, stuck_byte=0x42),))
        out = plan.post_generate(0, 0, bytes(range(16)))
        assert out == b"\x42" * 16

    def test_json_roundtrip(self):
        plan = FaultPlan(
            (Fault("crash", 1, 0), Fault("delay", 2, 1, delay=0.5), Fault("corrupt", 0, 0)),
            seed=77,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None

    def test_env_var_activates_injection(self, monkeypatch):
        # no constructor plan: the worker picks the plan up from the env,
        # which is how spawn-context workers receive it too
        plan = FaultPlan((Fault("crash", 0, 0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        gen = MultiDeviceGenerator("xorwow", seed=2, lanes=64, n_devices=2, block_bytes=256)
        out = gen.generate(4, parallel=True)
        assert out == gen.sequential_reference(4)
        assert any(e.kind == "error" and e.partition == 0 for e in gen.last_report.events)


class TestStuckBSRNG:
    def test_honest_prefix_then_constant(self):
        from repro.core.generator import BSRNG

        stuck = StuckBSRNG("xorwow", seed=6, lanes=64, stuck_byte=0x11, stuck_after=10)
        honest = BSRNG("xorwow", seed=6, lanes=64).random_bytes(10)
        data = stuck.random_bytes(40)
        assert data[:10] == honest
        assert data[10:] == b"\x11" * 30
