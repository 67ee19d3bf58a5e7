"""Parallel NIST battery: shard planning, sequential conformance,
supervision (retry / timeout / CRC / degrade) and telemetry."""

import numpy as np
import pytest

from repro import obs
from repro.errors import InsufficientDataError, SpecificationError
from repro.nist import ALL_TESTS, run_suite_parallel, run_suite_sequential
from repro.nist.parallel import plan_shards
from repro.nist.result import TestResult as NistResult
from repro.robust.faults import Fault, FaultPlan

FAST = ("Frequency", "BlockFrequency", "Runs", "CumulativeSums", "Serial")
CIPHERS = ("mickey2", "grain", "trivium", "aes128ctr")


def _assert_same_aggregates(par, seq):
    """Bit-identical SuiteReport contents (supervision excluded)."""
    assert par.per_test == seq.per_test
    assert par.skipped == seq.skipped
    assert par.errors == seq.errors
    assert (par.n_sequences, par.n_bits) == (seq.n_sequences, seq.n_bits)


class TestPlanShards:
    def test_covers_every_sequence_and_test_exactly_once(self):
        shards = plan_shards(13, FAST, workers=4)
        for name in FAST:
            covered = sorted(
                i
                for s in shards
                if name in s.tests
                for i in range(s.seq_start, s.seq_start + s.n_seqs)
            )
            assert covered == list(range(13)), name

    def test_deterministic(self):
        assert plan_shards(20, FAST, 4) == plan_shards(20, FAST, 4)

    def test_few_sequences_split_tests_instead(self):
        # 2 sequences cannot fill 4 workers with sequence chunks alone;
        # the planner must fan out across test groups
        shards = plan_shards(2, FAST, workers=4)
        assert len(shards) >= 4
        assert any(len(s.tests) < len(FAST) for s in shards)

    def test_many_sequences_keep_tests_together(self):
        # plenty of chunks: one test group (battery order), no redundant
        # regeneration
        shards = plan_shards(64, FAST, workers=4)
        assert all(set(s.tests) == set(FAST) for s in shards)
        assert len(shards) == 8  # 2 shards per worker

    def test_groups_are_cost_balanced(self):
        shards = plan_shards(1, tuple(ALL_TESTS), workers=2, test_groups=2)
        groups = {s.tests for s in shards}
        assert len(groups) == 2
        # LinearComplexity dwarfs the battery; it must sit alone-ish, not
        # packed with the other heavy tests
        heavy = next(g for g in groups if "LinearComplexity" in g)
        assert "Serial" not in heavy and "CumulativeSums" not in heavy

    def test_validation(self):
        with pytest.raises(SpecificationError):
            plan_shards(0, FAST, 4)
        with pytest.raises(SpecificationError):
            plan_shards(4, FAST, 0)
        with pytest.raises(SpecificationError):
            plan_shards(4, ("NoSuchTest",), 4)
        with pytest.raises(SpecificationError):
            plan_shards(4, (), 4)


@pytest.fixture(scope="module")
def sequential_reports():
    """Reference batteries, one per cipher (shared across worker counts)."""
    return {
        algo: run_suite_sequential(
            algo, seed=7, lanes=256, n_sequences=4, n_bits=2000, tests=FAST
        )
        for algo in CIPHERS
    }


class TestConformance:
    """run_suite_parallel must reproduce run_suite bit for bit."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("algorithm", CIPHERS)
    def test_matches_sequential(self, algorithm, workers, sequential_reports):
        par = run_suite_parallel(
            algorithm,
            seed=7,
            lanes=256,
            n_sequences=4,
            n_bits=2000,
            tests=FAST,
            workers=workers,
        )
        _assert_same_aggregates(par, sequential_reports[algorithm])

    def test_matches_plain_run_suite_stream(self):
        # the conformance target is the existing sequential entry point,
        # not just the convenience wrapper
        from repro.core.generator import BSRNG
        from repro.nist import run_suite

        rng = BSRNG("mickey2", seed=11, lanes=256)
        seq = run_suite(
            lambda i: rng.random_bits(3000), 6, tests={k: ALL_TESTS[k] for k in FAST}
        )
        par = run_suite_parallel(
            "mickey2", seed=11, lanes=256, n_sequences=6, n_bits=3000,
            tests=FAST, workers=2,
        )
        _assert_same_aggregates(par, seq)

    def test_spawn_context(self):
        # shard payloads carry test *names*; a spawn worker re-imports
        # the battery, so nothing unpicklable may ride along
        seq = run_suite_sequential(
            "mickey2", seed=3, lanes=128, n_sequences=2, n_bits=1000,
            tests=("Frequency",),
        )
        par = run_suite_parallel(
            "mickey2", seed=3, lanes=128, n_sequences=2, n_bits=1000,
            tests=("Frequency",), workers=2, mp_context="spawn",
        )
        _assert_same_aggregates(par, seq)

    def test_skipped_tests_match(self):
        # FFT needs 1000 bits: skipped identically on both paths
        tests = ("Frequency", "FFT")
        seq = run_suite_sequential(
            "mickey2", seed=5, lanes=128, n_sequences=3, n_bits=600, tests=tests
        )
        par = run_suite_parallel(
            "mickey2", seed=5, lanes=128, n_sequences=3, n_bits=600,
            tests=tests, workers=2,
        )
        assert "FFT" in par.skipped
        _assert_same_aggregates(par, seq)

    def test_validation(self):
        with pytest.raises(SpecificationError):
            run_suite_parallel("mickey2", n_sequences=2, n_bits=0, workers=2)
        with pytest.raises(SpecificationError):
            run_suite_parallel("mickey2", n_sequences=2, n_bits=100, workers=0)
        with pytest.raises(SpecificationError):
            run_suite_parallel(
                "mickey2", n_sequences=2, n_bits=100, tests=("Nope",), workers=2
            )


def _drop_when_first_bit_set(bits):
    """A deterministic partially-failing test: drops ~half the sequences
    based on sequence *content*, so every process agrees on which."""
    if bits[0] == 1:
        raise InsufficientDataError("first bit set")
    return NistResult("flaky", [0.3, 0.7])


class TestPartialDrops:
    def test_partial_drop_counts_match_sequential(self, monkeypatch):
        # fork workers inherit the patched registry; the payload itself
        # only ever carries the test's *name*
        monkeypatch.setitem(ALL_TESTS, "Flaky", _drop_when_first_bit_set)
        tests = ("Frequency", "Flaky")
        seq = run_suite_sequential(
            "mickey2", seed=21, lanes=128, n_sequences=8, n_bits=1000, tests=tests
        )
        par = run_suite_parallel(
            "mickey2", seed=21, lanes=128, n_sequences=8, n_bits=1000,
            tests=tests, workers=2, mp_context="fork",
        )
        assert 0 < seq.errors.get("Flaky", 0) < 8  # genuinely partial
        _assert_same_aggregates(par, seq)
        assert f"[dropped {seq.errors['Flaky']}/8 seqs]" in par.to_table()


class TestSupervision:
    def _run(self, fault_plan=None, **kw):
        return run_suite_parallel(
            "mickey2",
            seed=7,
            lanes=256,
            n_sequences=4,
            n_bits=2000,
            tests=FAST,
            workers=2,
            fault_plan=fault_plan,
            **kw,
        )

    def test_crashed_shard_is_retried_and_identical(self, sequential_reports):
        plan = FaultPlan(faults=(Fault("crash", partition=0, attempt=0),))
        par = self._run(fault_plan=plan)
        _assert_same_aggregates(par, sequential_reports["mickey2"])
        sup = par.supervision
        assert sup.attempts[0] >= 2 and not sup.degraded
        assert any(e.kind == "error" for e in sup.events)

    def test_corrupt_payload_is_caught_by_crc(self, sequential_reports):
        plan = FaultPlan(faults=(Fault("corrupt", partition=1, attempt=0, corrupt_bytes=4),))
        par = self._run(fault_plan=plan)
        _assert_same_aggregates(par, sequential_reports["mickey2"])
        assert any(e.kind == "corrupt" for e in par.supervision.events)

    def test_pool_exhaustion_degrades_to_inline(self, sequential_reports):
        plan = FaultPlan(
            faults=tuple(Fault("crash", partition=0, attempt=a) for a in range(3))
        )
        par = self._run(fault_plan=plan, max_retries=2)
        _assert_same_aggregates(par, sequential_reports["mickey2"])
        assert par.supervision.degraded

    def test_hung_shard_times_out_not_hangs(self, sequential_reports):
        plan = FaultPlan(faults=(Fault("delay", partition=0, attempt=0, delay=30.0),))
        par = self._run(fault_plan=plan, timeout=1.0)
        _assert_same_aggregates(par, sequential_reports["mickey2"])
        assert any(e.kind == "timeout" for e in par.supervision.events)


class TestTelemetry:
    def test_shard_metrics_merge_into_parent(self):
        with obs.scoped() as reg:
            run_suite_parallel(
                "mickey2", seed=7, lanes=128, n_sequences=4, n_bits=1000,
                tests=("Frequency", "Runs"), workers=2,
            )
            snap = reg.snapshot()
        entries = snap["metrics"]
        names = {e["name"] for e in entries}
        assert "repro_nist_shards_total" in names
        timed = [e for e in entries if e["name"] == "repro_nist_test_seconds"]
        assert timed, names
        assert all("shard" in e["labels"] and "test" in e["labels"] for e in timed)

    def test_fleet_never_outgrows_its_workers(self):
        # eight shards queue for two members: the battery's fleet keeps
        # its target, never scales, and launches no third member
        with obs.scoped() as reg:
            run_suite_parallel(
                "mickey2", seed=7, lanes=128, n_sequences=8, n_bits=1000,
                tests=("Frequency",), workers=2, seqs_per_shard=1,
            )
            entries = reg.snapshot()["metrics"]

        def values(name):
            return [e["value"] for e in entries if e["name"] == name]

        assert values("repro_fleet_jobs_total") == [8]
        assert values("repro_fleet_scale_events_total") == []
        assert values("repro_fleet_target_workers") == [2]
        assert sum(values("repro_fleet_workers")) == 2  # members ever launched
