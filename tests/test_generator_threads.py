"""Thread-safety regression tests for :class:`BSRNG`.

The serve daemon multiplexes one logical stream across threads, so the
generator's draw/seek/reseed surface must be safe to hammer from many
threads at once.  Each thread atomically captures ``(tell(), read(n))``
pairs under the documented ``rng.lock`` idiom; afterwards the pairs are
reassembled by offset and must reproduce the single-threaded reference
stream bit for bit — any torn refill, lost position update, or
double-served buffer shows up as a CRC mismatch or a coverage gap.
"""

from __future__ import annotations

import random
import threading
import zlib

import pytest

from repro.core.generator import BSRNG
from repro.robust.supervisor import payload_crc

ALGO = "trivium"
LANES = 256


def hammer(rng: BSRNG, threads: int, reads_per_thread: int, chunk: int):
    """Concurrent atomic (offset, data) captures; returns the pair list."""
    captured: list[tuple[int, bytes]] = []
    sink_lock = threading.Lock()
    start = threading.Barrier(threads)

    def worker() -> None:
        local = []
        start.wait()
        for _ in range(reads_per_thread):
            # the documented compound idiom: position and bytes must be
            # captured atomically or interleaving tears the stream
            with rng.lock:
                offset = rng.tell()
                data = rng.read(chunk)
            local.append((offset, data))
        with sink_lock:
            captured.extend(local)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return captured


class TestThreadedReads:
    def test_hammered_stream_matches_reference_crc(self):
        threads, reads, chunk = 8, 25, 1024
        rng = BSRNG(ALGO, seed=123, lanes=LANES)
        captured = hammer(rng, threads, reads, chunk)

        total = threads * reads * chunk
        assert rng.tell() == total

        # every offset must appear exactly once and tile the stream
        offsets = sorted(off for off, _ in captured)
        assert offsets == list(range(0, total, chunk))

        stream = b"".join(data for _, data in sorted(captured))
        reference = BSRNG(ALGO, seed=123, lanes=LANES).read(total)
        assert zlib.crc32(stream) == zlib.crc32(reference)
        assert stream == reference

    def test_concurrent_skip_and_read_keep_position_consistent(self):
        rng = BSRNG(ALGO, seed=9, lanes=LANES)
        consumed = []
        lock = threading.Lock()

        def worker(do_skip: bool) -> None:
            for _ in range(20):
                with rng.lock:
                    if do_skip:
                        before = rng.tell()
                        rng.skip_bytes(96)
                        assert rng.tell() == before + 96
                        with lock:
                            consumed.append(96)
                    else:
                        before = rng.tell()
                        data = rng.read(64)
                        assert rng.tell() == before + 64
                        with lock:
                            consumed.append(len(data))

        workers = [threading.Thread(target=worker, args=(i % 2 == 0,)) for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert rng.tell() == sum(consumed)

    def test_reseed_resets_position_under_contention(self):
        rng = BSRNG(ALGO, seed=77, lanes=LANES)
        stop = threading.Event()
        errors: list[Exception] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    rng.read(128)
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for r in readers:
            r.start()
        for _ in range(10):
            with rng.lock:
                rng.reseed(5)
                assert rng.tell() == 0
        stop.set()
        for r in readers:
            r.join()
        assert not errors

    def test_read_is_alias_of_random_bytes(self):
        a = BSRNG(ALGO, seed=3, lanes=LANES)
        b = BSRNG(ALGO, seed=3, lanes=LANES)
        assert a.read(512) == b.random_bytes(512)


class TestPositionTracking:
    @pytest.mark.parametrize("skip", [0, 1, 17, 4096])
    def test_tell_tracks_reads_and_skips(self, skip):
        rng = BSRNG(ALGO, seed=1, lanes=LANES)
        assert rng.tell() == 0
        rng.read(100)
        assert rng.tell() == 100
        rng.skip_bytes(skip)
        assert rng.tell() == 100 + skip

    def test_skip_equals_read_and_discard(self):
        a = BSRNG(ALGO, seed=4, lanes=LANES)
        b = BSRNG(ALGO, seed=4, lanes=LANES)
        a.skip_bytes(1000)
        b.read(1000)
        assert a.read(256) == b.read(256)

    def test_payload_crc_matches_zlib_fast_path(self):
        # the fleet receipt is plain zlib.crc32 over the buffer as given:
        # a generator draw and a copy of it agree
        data = BSRNG(ALGO, seed=6, lanes=LANES).read(4096)
        assert payload_crc(data) == payload_crc(bytearray(data))


class TestInterleavedOpsReplay:
    def test_interleaved_read_skip_reseed_replays_on_unprefetched_twin(self):
        """Hammer read/skip_bytes/reseed from many threads against a
        prefetch-enabled generator, logging the exact op order under
        ``rng.lock``; replaying that log on a prefetch-disabled twin must
        agree byte-for-byte and position-for-position.  Any interaction
        between an in-flight prefetched refill and a seek or reseed —
        double-served buffers, native seeks past unconsumed refills —
        shows up as a data or ``tell()`` divergence."""
        threads = 6
        rng = BSRNG(ALGO, seed=21, lanes=LANES, prefetch=True)
        ops: list[tuple[str, int, bytes | None, int]] = []
        start = threading.Barrier(threads)

        def worker(tid: int) -> None:
            dice = random.Random(tid)  # deterministic per-thread op mix
            start.wait()
            for _ in range(15):
                pick = dice.random()
                with rng.lock:  # one op + its log entry are atomic
                    if pick < 0.6:
                        n = dice.choice([64, 1024, 3000])
                        ops.append(("read", n, rng.read(n), rng.tell()))
                    elif pick < 0.9:
                        n = dice.choice([1, 512, 8192])
                        rng.skip_bytes(n)
                        ops.append(("skip", n, None, rng.tell()))
                    else:
                        s = dice.randrange(1000)
                        rng.reseed(s)
                        ops.append(("reseed", s, None, rng.tell()))

        workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len(ops) == threads * 15

        twin = BSRNG(ALGO, seed=21, lanes=LANES, prefetch=False)
        replayed = hammered = b""
        for kind, arg, data, pos in ops:
            if kind == "read":
                chunk = twin.read(arg)
                replayed += chunk
                hammered += data
            elif kind == "skip":
                twin.skip_bytes(arg)
            else:
                twin.reseed(arg)
            assert twin.tell() == pos
        assert zlib.crc32(replayed) == zlib.crc32(hammered)
        assert replayed == hammered


class TestFailedRefillRecovery:
    def test_failed_prefetch_refill_raises_once_then_recovers(self):
        """A refill that fails on the prefetch worker must surface to
        exactly one draw and then clear: the poisoned future used to stay
        parked in ``_pending``, so every later draw, seek and — fatally —
        ``reseed()`` (the designated recovery action) re-raised the same
        stale exception forever."""
        rng = BSRNG(ALGO, seed=5, lanes=LANES, prefetch=True)
        ref = BSRNG(ALGO, seed=5, lanes=LANES, prefetch=False)
        chunk = rng._source.refill_bytes
        real = rng._source.next_words
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 3:  # the first *prefetched* refill
                raise RuntimeError("injected refill failure")
            return real()

        rng._source.next_words = flaky
        got = [rng.read(chunk), rng.read(chunk)]
        with pytest.raises(RuntimeError, match="injected refill failure"):
            rng.read(chunk)  # consumes the poisoned background refill
        # the failure raised before the source advanced, so the retry
        # regenerates the identical refill: the stream has no gap
        got.append(rng.read(chunk))
        got.append(rng.read(chunk))
        assert b"".join(got) == ref.read(4 * chunk)
        assert rng.tell() == 4 * chunk
        # recovery action works and yields a fresh, correct stream
        rng.reseed(5)
        assert rng.tell() == 0
        assert rng.read(chunk) == BSRNG(ALGO, seed=5, lanes=LANES).read(chunk)

    def test_failed_synchronous_refill_raises_once_then_recovers(self):
        rng = BSRNG(ALGO, seed=8, lanes=LANES, prefetch=False)
        real = rng._source.next_words
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected refill failure")
            return real()

        rng._source.next_words = flaky
        with pytest.raises(RuntimeError, match="injected refill failure"):
            rng.read(64)
        assert rng.read(64) == BSRNG(ALGO, seed=8, lanes=LANES).read(64)
