"""Health tests (SP 800-90B RCT/APT + FIPS startup gate): cutoff
derivation, streaming state across buffers, and the one latch's sticky
error state in the service and the monitored wrapper."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.generator import BSRNG
from repro.errors import HealthTestError, SpecificationError
from repro.obs import flight
from repro.robust.faults import StuckBSRNG
from repro.robust.health import (
    APT_WINDOW,
    AdaptiveProportionTest,
    HealthMonitoredBSRNG,
    HealthScreen,
    HealthState,
    RepetitionCountTest,
    apt_cutoff,
    rct_cutoff,
    startup_self_test,
)
from repro.serve.engine import StreamConfig


class TestCutoffs:
    def test_rct_90b_worked_value(self):
        # SP 800-90B: C = 1 + ceil(-log2(alpha)/H); alpha=2^-30, H=8 -> 5
        assert rct_cutoff(2.0**-30, 8.0) == 5

    def test_rct_binary_source(self):
        # H=1 bit/sample: the full 30-sample run bound
        assert rct_cutoff(2.0**-30, 1.0) == 31

    def test_rct_tighter_alpha_raises_cutoff(self):
        assert rct_cutoff(2.0**-40, 8.0) >= rct_cutoff(2.0**-20, 8.0)

    def test_apt_monotone_in_alpha(self):
        assert apt_cutoff(2.0**-40) >= apt_cutoff(2.0**-10)

    def test_apt_sane_range(self):
        # full-entropy bytes over 512 samples: expect ~2 recurrences, so the
        # cutoff sits well above the mean and well below the window
        c = apt_cutoff(2.0**-30, 8.0, 512)
        assert 5 < c < 64

    def test_apt_tail_never_reached(self):
        # impossibly small alpha: the test can never fire
        assert apt_cutoff(1e-300, 8.0, 16) == 17

    def test_invalid_parameters(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(SpecificationError):
                rct_cutoff(alpha=bad)
        with pytest.raises(SpecificationError):
            rct_cutoff(entropy_per_sample=0.0)
        with pytest.raises(SpecificationError):
            apt_cutoff(window=1)


class TestRepetitionCount:
    def test_constant_buffer_detected_at_cutoff(self):
        rct = RepetitionCountTest()
        at = rct.update(np.full(64, 0xAA, dtype=np.uint8))
        assert at == rct.cutoff - 1  # fails the moment the run reaches C

    def test_run_spanning_buffers(self):
        rct = RepetitionCountTest()
        cut = rct.cutoff
        # cut-1 repeats at the end of buffer one: no failure yet
        buf1 = np.concatenate([np.arange(10, dtype=np.uint8), np.full(cut - 1, 7, np.uint8)])
        assert rct.update(buf1) is None
        # one more sample of the same value completes the run
        assert rct.update(np.array([7], dtype=np.uint8)) == 0

    def test_healthy_stream_passes(self):
        rct = RepetitionCountTest()
        data = np.frombuffer(BSRNG("xorwow", seed=3, lanes=64).random_bytes(1 << 16), np.uint8)
        assert rct.update(data) is None

    def test_interrupted_run_resets(self):
        rct = RepetitionCountTest()
        cut = rct.cutoff
        pattern = np.tile(
            np.concatenate([np.full(cut - 1, 5, np.uint8), np.array([9], np.uint8)]), 20
        )
        assert rct.update(pattern) is None

    def test_reset_clears_carry(self):
        rct = RepetitionCountTest()
        rct.update(np.full(rct.cutoff - 1, 3, np.uint8))
        rct.reset()
        assert rct.update(np.full(rct.cutoff - 1, 3, np.uint8)) is None


class TestAdaptiveProportion:
    def test_constant_window_detected(self):
        apt = AdaptiveProportionTest()
        assert apt.update(np.full(APT_WINDOW, 0x55, dtype=np.uint8)) is not None

    def test_detection_spans_buffers(self):
        apt = AdaptiveProportionTest()
        # feed the biased stream 17 bytes at a time: state must carry
        biased = np.zeros(APT_WINDOW, dtype=np.uint8)
        hit = None
        for start in range(0, APT_WINDOW, 17):
            hit = apt.update(biased[start : start + 17])
            if hit is not None:
                break
        assert hit is not None

    def test_healthy_stream_passes(self):
        apt = AdaptiveProportionTest()
        data = np.frombuffer(BSRNG("xorwow", seed=9, lanes=64).random_bytes(1 << 16), np.uint8)
        assert apt.update(data) is None

    def test_window_rollover(self):
        apt = AdaptiveProportionTest()
        # constant value only *between* windows: each window sees a clean ref
        data = np.arange(4 * APT_WINDOW, dtype=np.int64) % 251
        assert apt.update(data.astype(np.uint8)) is None


class TestHealthScreen:
    def test_position_counts_clean_bytes_across_buffers(self):
        screen = HealthScreen()
        clean = np.arange(256, dtype=np.uint8)
        assert screen.update(clean.tobytes()) is None  # bytes-like input
        assert screen.update(clean) is None
        assert screen.position == 512

    def test_failure_is_positioned_uncounted_and_resets(self):
        screen = HealthScreen()
        screen.update(np.arange(100, dtype=np.uint8))
        stuck = np.zeros(10, dtype=np.uint8)
        event = screen.update(stuck)
        cutoff = screen.rct.cutoff
        assert (event.test, event.position) == ("rct", 100 + cutoff - 1)
        assert "repeated" in event.detail
        assert screen.position == 100  # the failing buffer is not counted
        # reset-on-failure: a short run no longer continues the old one
        assert screen.update(stuck[: cutoff - 1]) is None


class TestHealthState:
    def test_served_failing_chunks_keep_positions_on_the_stream(self):
        # the service latch serves a failing chunk, so unlike the bare
        # screen it counts it: later events stay on the served stream.
        # Trivium seed 0 holds exactly two 4-byte runs (the 2^-20 RCT
        # cutoff) in its first 68.5 MB, ending at these offsets.
        state = HealthState(2.0**-20)
        rng = StreamConfig("trivium", seed=0).make_rng()
        chunk, served = 1 << 16, 0
        while len(state.events) < 2 and served < 70_000_000:
            state.screen(rng.read(chunk))
            served += chunk
        assert [e["position"] for e in state.events] == [685_976, 68_412_101]
        assert state.to_dict()["bytes_screened"] == served
        assert not state.healthy

    def test_events_keep_the_first_latch_and_the_most_recent(self):
        # a long-running daemon latches again and again (about once per
        # 16 MiB of a correct stream at the serve alpha); /healthz must
        # not grow with it
        state = HealthState(2.0**-20)
        for k in range(200):
            state.latch(f"qa:drill{k}")
        events = state.to_dict()["events"]
        assert len(events) == HealthState.EVENTS_KEPT == 50
        assert events[0]["test"] == "qa:drill0"
        assert [e["test"] for e in events[1:]] == [f"qa:drill{k}" for k in range(151, 200)]

    def test_flight_dump_only_when_the_verdict_flips(self, tmp_path, monkeypatch):
        # a stream that keeps tripping while latched (serve_bulk counts
        # dozens of trips a run) writes one dump, not one per trip; every
        # trip is still recorded and counted
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, str(tmp_path))
        flight.disable()
        flight._env_checked = False  # the recorder comes from the environment
        stuck = np.zeros(64, dtype=np.uint8)
        try:
            with obs.scoped() as reg:
                state = HealthState(2.0**-20)
                assert state.screen(stuck) is not None
                assert state.screen(stuck) is not None
                assert len(list(tmp_path.glob("*-health.json"))) == 1
                state.reset()
                assert state.screen(stuck) is not None
                state.latch("qa:drill")  # already unhealthy: no dump
                dumps = sorted(tmp_path.glob("*-health.json"))
            assert len(dumps) == 2
            entries = json.loads(dumps[-1].read_text())["entries"]
            assert [e["test"] for e in entries if e["kind"] == "health-failure"] == ["rct"] * 3
            assert len(state.events) == 4
            failures = [m for m in reg.snapshot()["metrics"]
                        if m["name"] == "repro_serve_health_failures_total"]
            assert sum(m["value"] for m in failures) == 4
        finally:
            flight.disable()


class TestStartupSelfTest:
    def test_healthy_generator_passes(self):
        report = startup_self_test(BSRNG("xorwow", seed=2, lanes=64))
        assert report.passed

    def test_stuck_generator_rejected(self):
        with pytest.raises(HealthTestError):
            startup_self_test(StuckBSRNG("xorwow", seed=2, lanes=64, stuck_byte=0))


class TestHealthMonitoredBSRNG:
    def test_transparent_for_healthy_stream(self):
        # without the startup gate, the monitored stream IS the plain stream
        mon = HealthMonitoredBSRNG(BSRNG("xorwow", seed=4, lanes=64), startup_test=False)
        plain = BSRNG("xorwow", seed=4, lanes=64)
        assert mon.random_bytes(4096) == plain.random_bytes(4096)
        assert mon.health.bytes_screened == 4096 and not mon.health.events

    def test_startup_consumes_block(self):
        # the power-up gate consumes 20,000 bits before the first emission
        mon = HealthMonitoredBSRNG("xorwow", seed=4, lanes=64)
        plain = BSRNG("xorwow", seed=4, lanes=64)
        plain.skip_bytes(2500)
        assert mon.random_bytes(512) == plain.random_bytes(512)
        assert mon.startup_report is not None and mon.startup_report.passed

    def test_stuck_raises_within_one_buffer(self):
        stuck = StuckBSRNG("xorwow", seed=1, lanes=64, stuck_byte=0xAA, stuck_after=100)
        mon = HealthMonitoredBSRNG(stuck, startup_test=False)
        with pytest.raises(HealthTestError, match="rct"):
            mon.random_bytes(256)
        assert mon.health.events and mon.health.events[0]["test"] == "rct"

    def test_latch_holds_until_reset(self):
        # the FIPS error state: once tripped, the monitor emits nothing,
        # even when its source has recovered, until the latch is reset
        mon = HealthMonitoredBSRNG(BSRNG("xorwow", seed=4, lanes=64), startup_test=False)
        real = mon.inner.random_uint8
        mon.inner.random_uint8 = lambda n: np.zeros(n, dtype=np.uint8)
        with pytest.raises(HealthTestError, match="rct"):
            mon.random_bytes(4096)
        mon.inner.random_uint8 = real
        for draw in (mon.random_bytes, mon.random_uint64, mon.random_bits, mon.random):
            with pytest.raises(HealthTestError, match="latched"):
                draw(16)
        assert not mon.health.healthy and len(mon.health.events) == 1
        mon.health.reset()
        assert len(mon.random_bytes(4096)) == 4096
        assert mon.health.healthy

    def test_events_bounded_like_the_service(self):
        mon = HealthMonitoredBSRNG("xorwow", seed=4, lanes=64, startup_test=False)
        mon.inner.random_uint8 = lambda n: np.zeros(n, dtype=np.uint8)
        for _ in range(200):
            with pytest.raises(HealthTestError, match="rct"):
                mon.random_bytes(64)
            mon.health.reset()
        events = mon.health.events
        assert len(events) == HealthState.EVENTS_KEPT
        assert events[0]["position"] == 4  # the first latch stays
        assert events[-1]["position"] == 199 * 64 + 4

    def test_draw_api_shapes(self):
        mon = HealthMonitoredBSRNG("xorwow", seed=5, lanes=64, startup_test=False)
        assert mon.random_uint64(4).shape == (4,)
        assert mon.random_uint32(3).dtype == np.uint32
        assert mon.random_bits(17).size == 17
        assert ((0.0 <= mon.random(8)) & (mon.random(8) < 1.0)).all()
        assert mon.random_bytes(0) == b""

    def test_reseed_walks_deterministic_sequence(self):
        a = BSRNG("xorwow", seed=10, lanes=64)
        b = BSRNG("xorwow", seed=10, lanes=64)
        a.reseed()
        b.reseed()
        assert a.seed == b.seed != 10
        assert a.random_bytes(64) == b.random_bytes(64)
        a.reseed()
        assert a.seed != b.seed  # reseed count separates the streams


# -- differential: vectorised screens vs a per-sample scalar oracle ---------------
class _ScalarRCT:
    """Per-sample oracle for :class:`RepetitionCountTest`."""

    def __init__(self, cutoff: int) -> None:
        self.cutoff = cutoff
        self.reset()

    def reset(self) -> None:
        self._last, self._run = None, 0

    def update(self, data) -> int | None:
        fail = None
        for i, x in enumerate(data.tolist()):
            if x == self._last:
                self._run += 1
            else:
                self._last, self._run = x, 1
            if fail is None and self._run >= self.cutoff:
                fail = i
        return fail


class _ScalarAPT:
    """Per-sample oracle for :class:`AdaptiveProportionTest`: the verdict
    is taken where a window closes or the buffer ends, so a failing
    offset is the last sample of that window, or of the buffer."""

    def __init__(self, cutoff: int, window: int = APT_WINDOW) -> None:
        self.cutoff, self.window = cutoff, window
        self.reset()

    def reset(self) -> None:
        self._ref, self._seen, self._count = None, 0, 0

    def update(self, data) -> int | None:
        last = data.size - 1
        for i, x in enumerate(data.tolist()):
            if self._ref is None:
                self._ref, self._seen, self._count = x, 1, 1
                continue  # the opening sample is never a verdict point
            self._seen += 1
            self._count += x == self._ref
            if self._seen == self.window or i == last:
                if self._count >= self.cutoff:
                    return i
                if self._seen == self.window:
                    self._ref = None
        return None


#: (alpha, entropy_per_sample) pairs spanning RCT cutoffs 2 .. 41 and APT
#: cutoffs from a handful up to most of the window
_SCREEN_PARAMS = [(0.3, 8.0), (2.0**-20, 8.0), (2.0**-30, 8.0), (2.0**-20, 2.0),
                  (2.0**-30, 1.0), (2.0**-20, 0.5)]


@st.composite
def _screened_streams(draw):
    alpha, h = draw(st.sampled_from(_SCREEN_PARAMS))
    alphabet = draw(st.integers(2, 256))
    size = draw(st.integers(0, 6000))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).integers(0, alphabet, size, dtype=np.uint8)
    # constant and near-constant windows on a fresh stream's window grid:
    # every stride-th sample differs, so a window keeps at least half its
    # samples equal to its first (counts of 256 to 512 in one row)
    for k in draw(st.lists(st.integers(0, max(size // APT_WINDOW - 1, 0)), max_size=3)):
        window = data[k * APT_WINDOW : (k + 1) * APT_WINDOW]
        value = draw(st.integers(0, alphabet - 1))
        window[:] = value
        stride = draw(st.sampled_from([0, 2, 3, 5, 8, 64]))
        if stride:
            window[stride - 1 :: stride] = (value + 1) % alphabet
    # arbitrary seams, and seams on window boundaries of a fresh stream
    seams = st.one_of(st.integers(0, size), st.integers(0, size // APT_WINDOW).map(
        lambda k: k * APT_WINDOW))
    cuts = sorted(draw(st.lists(seams, max_size=8)))
    for seam in cuts:  # constant runs planted across chunk seams
        if draw(st.booleans()):
            length = draw(st.integers(1, 45))
            start = max(0, seam - draw(st.integers(0, length)))
            data[start : start + length] = draw(st.integers(0, alphabet - 1))
    bounds = [0, *cuts, size]
    for a, b in zip(bounds, bounds[1:]):  # trailing runs spanning whole buffers
        if b - a <= 48 and draw(st.booleans()):
            data[max(0, a - draw(st.integers(0, 8))) : b] = draw(st.integers(0, alphabet - 1))
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    return alpha, h, chunks


class TestVectorisedScreensMatchScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_screened_streams())
    def test_fail_offsets_and_carried_state(self, case):
        alpha, h, chunks = case
        rct, apt = RepetitionCountTest(alpha, h), AdaptiveProportionTest(alpha, h)
        o_rct, o_apt = _ScalarRCT(rct.cutoff), _ScalarAPT(apt.cutoff)
        # the production call pattern (HealthState.screen): APT runs only
        # when RCT passed, and any failure resets both tests
        for chunk in chunks:
            got, want = rct.update(chunk), o_rct.update(chunk)
            assert got == want
            assert (rct._last, rct._run) == (o_rct._last, o_rct._run)
            if got is None:
                got, want = apt.update(chunk), o_apt.update(chunk)
                assert got == want
                assert (apt._ref, apt._seen, apt._count) == (
                    o_apt._ref,
                    o_apt._seen,
                    o_apt._count,
                )
            if got is not None:
                for test in (rct, apt, o_rct, o_apt):
                    test.reset()

    @settings(max_examples=100, deadline=None)
    @given(case=_screened_streams())
    def test_apt_alone_counts_constant_windows(self, case):
        # without the RCT in front the APT sees the constant windows
        # (up to all 512 samples matching), which the RCT trips on first
        alpha, h, chunks = case
        apt = AdaptiveProportionTest(alpha, h)
        oracle = _ScalarAPT(apt.cutoff)
        for chunk in chunks:
            got = apt.update(chunk)
            assert got == oracle.update(chunk)
            assert (apt._ref, apt._seen, apt._count) == (
                oracle._ref,
                oracle._seen,
                oracle._count,
            )
            if got is not None:
                apt.reset()
                oracle.reset()


# -- differential: the screen vs the scalar oracles on biased streams --------------
class TestScreenMatchesScalarOracleOnBiasedStreams:
    @pytest.mark.parametrize("mask", [0x00, 0xFE, 0x03])
    @pytest.mark.parametrize("alpha", [2.0**-20, 2.0**-30])
    def test_biased_stream_events_and_state(self, mask, alpha):
        # the serve bias drills' masks over a real stream, cut at seams
        # that are not window multiples: the screen's events and carried
        # state are the per-sample oracles' under the screen's call pattern
        data = np.frombuffer(BSRNG("trivium", seed=1).read(1 << 21), np.uint8) & mask
        screen = HealthScreen(alpha)
        o_rct, o_apt = _ScalarRCT(screen.rct.cutoff), _ScalarAPT(screen.apt.cutoff)
        sizes = itertools.cycle([1, 3, 700, 4096, 9000, 65536])
        events, pos, clean = 0, 0, 0  # a failing buffer is not screened clean
        while pos < data.size:
            chunk = data[pos : pos + next(sizes)]
            got = screen.update(chunk)
            want = o_rct.update(chunk)
            test = "rct"
            if want is None:
                want, test = o_apt.update(chunk), "apt"
            assert (got is None) == (want is None)
            if got is not None:
                events += 1
                assert (got.test, got.position) == (test, clean + want)
                o_rct.reset()
                o_apt.reset()
            else:
                clean += chunk.size
            pos += chunk.size
            assert (screen.rct._last, screen.rct._run) == (o_rct._last, o_rct._run)
            assert (screen.apt._ref, screen.apt._seen, screen.apt._count) == (
                o_apt._ref,
                o_apt._seen,
                o_apt._count,
            )
        if alpha == 2.0**-20:
            assert events  # every drill mask trips the serve screen
