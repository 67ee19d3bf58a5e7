"""``RangeSource``: the per-worker cache behind every served stream range.

Three tiers answer a draw of ``[offset, offset + n)``: the window of
recently returned ranges (a retried chunk replays without advancing any
generator), then the generator fronts (continue one, or forward-skip from
the nearest one behind), and only then a rebuild from seed.  These tests
pin each tier's bookkeeping, the bounds of both caches, that a fleet
job requeued after a receipt failure replays from its member's window,
and — through a whole engine — that a screen trip on a correct stream is
served once, never retried.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SpecificationError
from repro.fleet import FleetConfig, FleetController
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan
from repro.serve.engine import RangeSource, ServeEngine, StreamConfig

STREAM = StreamConfig(algorithm="trivium", seed=0, lanes=64)

#: The default served stream (trivium, seed 0, 4096 lanes): under the
#: 2^-20 screen its first RCT trip lands in the 64 KiB chunk at 655,360.
DEFAULT_STREAM = StreamConfig(algorithm="trivium", seed=0)
CHUNK = 1 << 16
TRIP_CHUNK = 10
FIRST_RCT_POSITION = 685_976


def offline(offset: int, n: int, config: StreamConfig = STREAM) -> bytes:
    rng = config.make_rng()
    rng.skip_bytes(offset)
    return rng.read(n)


def tiers(source: RangeSource) -> tuple[int, int, int]:
    return source.rebuilds, source.forward_skips, source.replays


def positions(source: RangeSource) -> dict[int, int]:
    """Each cached front's next offset -> its generator's position."""
    return {key: rng.tell() for key, rng in source._streams.items()}


class TestFronts:
    def test_continuing_a_front_costs_nothing(self):
        source = RangeSource(STREAM)
        first = source.read_range(0, 100)
        second = source.read_range(100, 50)
        assert first + second == offline(0, 150)
        assert tiers(source) == (1, 0, 0)  # the one rebuild is the cold start
        assert list(source._streams) == [150]

    def test_forward_skip_from_the_nearest_front_behind(self):
        source = RangeSource(STREAM)
        source.read_range(500, 10)  # front at 510
        source.read_range(0, 10)  # behind it: a second front at 10
        assert tiers(source) == (2, 0, 0)
        assert source.read_range(1000, 20) == offline(1000, 20)
        assert tiers(source) == (2, 1, 0)
        # the nearer front (510) paid the gap; the one at 10 is untouched
        assert sorted(source._streams) == [10, 1020]

    def test_rebuild_when_behind_every_front(self):
        source = RangeSource(STREAM)
        source.read_range(500, 10)
        assert source.read_range(100, 10) == offline(100, 10)
        assert tiers(source) == (2, 0, 0)
        assert sorted(source._streams) == [110, 510]

    def test_fronts_are_lru_bounded(self):
        source = RangeSource(STREAM, max_streams=2)
        source.read_range(0, 10)  # front 10
        source.read_range(200, 10)  # front 10 moved on: only 210
        source.read_range(100, 10)  # rebuild: fronts 210, 110
        source.read_range(210, 10)  # continue 210 -> 220, now most recent
        source.read_range(0, 5)  # rebuild evicts the least recent front (110)
        assert sorted(source._streams) == [5, 220]
        assert len(source._streams) <= source.max_streams

    def test_next_offset_collision_evicts_no_other_front(self):
        source = RangeSource(STREAM, max_streams=2)
        source.read_range(100, 10)
        source.read_range(0, 10)
        assert sorted(source._streams) == [10, 110]
        # rebuilds onto next offset 10, replacing only the front keyed 10
        assert source.read_range(5, 5) == offline(5, 5)
        assert sorted(source._streams) == [10, 110]
        assert source.read_range(110, 10) == offline(110, 10)
        assert source.rebuilds == 3 and source.forward_skips == 0


class TestReplayWindow:
    def test_repeat_draw_replays_without_advancing_a_generator(self):
        source = RangeSource(STREAM)
        first = source.read_range(0, 64)
        second = source.read_range(64, 64)
        before, fronts = tiers(source), positions(source)
        assert source.read_range(0, 64) is first
        assert source.read_range(64, 64) is second
        rebuilds, skips, replays = tiers(source)
        assert (rebuilds, skips) == before[:2]
        assert replays == before[2] + 2
        assert positions(source) == fronts

    def test_window_is_keyed_by_offset_and_length(self):
        source = RangeSource(STREAM)
        source.read_range(0, 64)
        assert source.read_range(0, 32) == offline(0, 32)  # a shorter range is not a replay
        assert source.replays == 0
        assert list(source._recent) == [(0, 64), (0, 32)]

    def test_window_holds_at_most_max_streams_ranges(self):
        source = RangeSource(STREAM, max_streams=3)
        for k in range(10):
            source.read_range(16 * k, 16)
            assert len(source._recent) <= source.max_streams
        assert list(source._recent) == [(16 * k, 16) for k in (7, 8, 9)]
        source.read_range(0, 16)  # aged out: regenerated, not replayed
        assert source.replays == 0 and source.rebuilds == 2

    def test_window_holds_the_last_replay_ranges(self):
        # a member keeps as many ranges as it has jobs in flight, whatever
        # their size; an inline source that nothing retries keeps none
        source = RangeSource(STREAM, replay=2)
        for k in range(4):
            source.read_range(40 * k, 40)
        assert list(source._recent) == [(80, 40), (120, 40)]
        assert source.read_range(80, 40) == offline(80, 40) and source.replays == 1
        none = RangeSource(STREAM, replay=0)
        none.read_range(0, 40)
        assert not none._recent
        with pytest.raises(SpecificationError):
            RangeSource(STREAM, replay=-1)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        draws=st.lists(
            st.tuples(st.integers(0, 600), st.integers(0, 80)),
            min_size=1,
            max_size=14,
        ).map(lambda ds: ds + ds[: len(ds) // 2]),  # and some repeats
        max_streams=st.integers(1, 4),
    )
    def test_any_draw_sequence_matches_the_offline_stream(self, draws, max_streams):
        source = RangeSource(STREAM, max_streams=max_streams)
        stream = offline(0, 700)
        for offset, n in draws:
            data = source.read_range(offset, n)
            assert data == stream[offset : offset + n]
            assert len(source._streams) <= max_streams
            assert len(source._recent) <= max_streams


def generator_total(reg, name: str) -> int:
    """A member-shipped generator counter, summed over its series."""
    return sum(
        entry["value"] for entry in reg.snapshot()["metrics"] if entry["name"] == name
    )


class TestPoolRetry:
    def test_retried_chunk_replays_in_the_worker(self, monkeypatch):
        # one member serves chunk X and X+n … X+3n; its first result is
        # corrupted after the receipt, so chunk X is requeued behind X+n
        # and must replay from the member's window: the generator draws
        # each byte once and seeks (skips X bytes) once, never rebuilding
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        x, n = 4096, 1024
        plan = FaultPlan((Fault("corrupt", 0, 0),))
        config = FleetConfig(workers=1, chunk_bytes=n, heartbeat_interval=0.05)
        with obs.scoped() as reg:
            with FleetController(STREAM, config, fault_plan=plan) as fleet:
                data = fleet.read_range(x, 4 * n, timeout=120.0)
                member = fleet.members[0]
                # the first heartbeat after the last result carries the
                # member's delta covering every job
                beats = member.heartbeats
                deadline = time.monotonic() + 30.0
                while member.heartbeats <= beats:
                    assert time.monotonic() < deadline, "no heartbeat after the last job"
                    fleet.pump(0.05)
                status = fleet.status()
        assert data == offline(x, 4 * n)
        assert status["counters"]["receipt_failures"] == 1
        assert status["counters"]["requeues"] == 1
        assert generator_total(reg, "repro_generator_emitted_bytes_total") == 4 * n
        assert generator_total(reg, "repro_generator_skipped_bytes_total") == x

    def test_screen_trip_keeps_its_verdicts_and_bytes(self, monkeypatch):
        # the tripping chunk's receipt verified, so its bytes are the
        # stream's: it is served once, counted and latched, never retried
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        eng = ServeEngine(DEFAULT_STREAM, workers=1)
        eng.start()
        try:
            served = b"".join(eng.generate_range(k * CHUNK, CHUNK, chunk_id=k) for k in range(12))
            chunks = eng.status()["chunks"]
            health = eng.health.to_dict()
        finally:
            eng.close()
        assert served == offline(0, 12 * CHUNK, DEFAULT_STREAM)
        assert (chunks["screen_rejects"], chunks["retries"], chunks["degraded"]) == (1, 0, 0)
        assert chunks["chunks_ok"] == 12
        events = health["events"]
        assert events[0]["test"] == "rct" and events[0]["position"] == FIRST_RCT_POSITION
        assert TRIP_CHUNK * CHUNK < FIRST_RCT_POSITION < (TRIP_CHUNK + 1) * CHUNK
        assert health["bytes_screened"] == 12 * CHUNK  # the served trip chunk counts
