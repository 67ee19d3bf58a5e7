"""Grid chunks: every lease is served from whole chunks of the stream.

The daemon cuts the stream at multiples of ``chunk_bytes`` from offset
0.  Each grid chunk is one fleet submission, accepted once (receipt,
screen, QA), and every lease writes slices of the chunks it overlaps.
A lease's first and last chunk may hold a neighbouring lease's bytes;
those sit in a shared table, so the neighbour reuses them instead of
starting a member round trip of its own.  These tests pin:

* sixteen consecutive 4 KiB requests complete one fleet job; the
  seventeenth starts a second;
* a lease straddling two chunks, ``/v1/stream`` frames straddling
  chunks, and concurrent clients sharing chunks are all bit-identical
  to the offline replay;
* each grid chunk is screened and QA-observed exactly once;
* a failed or cancelled shared chunk is forgotten and submitted again
  by a later lease, while a holder that leaves as it waits does not
  cancel a chunk another holder still needs;
* a client that never reads its bulk response does not hold up a
  neighbour whose small lease falls in the bulk lease's last chunk;
* a ``/v1/stream`` frame wider than the window is generated while the
  one before it is written, and an unread open-ended stream of 1-byte
  frames holds at most ``queue_depth`` leases and writes at most
  ``queue_depth`` frames between two turns of the loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import socket
import threading
import time
import urllib.error

import pytest

from repro.fleet import FleetConfig
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan
from repro.serve import DaemonConfig, ServeDaemon, ServeEngine
from tests.test_serve_http import STREAM, _wait_for, get, offline_bytes, running_daemon

# a short drain: a member relaunched after a failure may still hold a
# test client's socket, so the daemon never sees that client hang up
grid_daemon = functools.partial(running_daemon, drain_grace=0.5)


class RecordingQA:
    """A stand-in QA sidecar that records every chunk it observes."""

    def __init__(self) -> None:
        self.observed: list[bytes] = []

    def bind(self, health) -> None:
        pass

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def observe(self, data: bytes) -> None:
        self.observed.append(bytes(data))

    def status(self) -> dict:
        return {"observed": len(self.observed)}


def record_submits(daemon: ServeDaemon) -> list[int]:
    """The offsets the engine is asked to submit, from now on."""
    submitted: list[int] = []
    real_submit = daemon.engine.submit

    def recording_submit(offset, n, *args):
        submitted.append(offset)
        return real_submit(offset, n, *args)

    daemon.engine.submit = recording_submit
    return submitted


def fetch(url: str) -> tuple[int, bytes]:
    """A 200 response's lease offset and body."""
    status, headers, body = get(url)
    assert status == 200
    return int(headers["X-Repro-Lease-Offset"]), body


def fleet_jobs(daemon: ServeDaemon) -> int:
    return daemon.engine.status()["fleet"]["counters"]["jobs_completed"]


def test_sixteen_small_requests_complete_one_fleet_job():
    with grid_daemon(chunk_bytes=65536) as (daemon, base):
        for k in range(16):
            offset, body = fetch(f"{base}/v1/bytes?n=4096")
            assert (offset, body) == (4096 * k, offline_bytes(4096 * k, 4096))
            assert fleet_jobs(daemon) == 1, f"request {k} started a fleet job of its own"
        offset, body = fetch(f"{base}/v1/bytes?n=4096")
        assert body == offline_bytes(offset, 4096)
        assert fleet_jobs(daemon) == 2
        assert daemon.engine.stats.chunks_ok == 2
        # idle, the table keeps only the chunk the next lease starts in
        assert list(daemon._shared) == [1]


def test_straddling_leases_and_frames_replay_offline():
    with grid_daemon(chunk_bytes=2048) as (daemon, base):
        for url, n in [
            (f"{base}/v1/bytes?n=1000", 1000),  # [0, 1000): inside chunk 0
            (f"{base}/v1/bytes?n=3000", 3000),  # [1000, 4000): straddles 0 and 1
            (f"{base}/v1/stream?n=7000&chunk=1500", 7000),  # frames straddle 1 to 5
        ]:
            offset, body = fetch(url)
            assert len(body) == n and body == offline_bytes(offset, n)
        offset, body = fetch(f"{base}/v1/bytes?n=300&format=hex")
        assert body == offline_bytes(offset, 300).hex().encode() + b"\n"
        # [0, 11300) is grid chunks 0-5, each submitted and accepted once
        assert daemon.engine.stats.chunks_ok == fleet_jobs(daemon) == 6


def test_concurrent_clients_sharing_chunks_each_screened_and_observed_once():
    qa = RecordingQA()
    with grid_daemon(chunk_bytes=2048, qa=qa) as (daemon, base):
        screened: list[bytes] = []
        real_screen = daemon.engine.health.screen

        def recording_screen(data):
            screened.append(bytes(data))
            return real_screen(data)

        daemon.engine.health.screen = recording_screen
        results: list[tuple[int, bytes]] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        def client(sizes) -> None:
            try:
                barrier.wait()
                for n in sizes:
                    results.append(fetch(f"{base}/v1/bytes?n={n}"))
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(sizes,))
            for sizes in ([512] * 12, [300, 700, 1500, 100, 5000, 64, 900, 2048])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for offset, body in results:
            assert body == offline_bytes(offset, len(body))
        high_water = daemon.leases.high_water
        chunks_ok = daemon.engine.stats.chunks_ok
    grid = -(-high_water // 2048)  # grid chunks under the leased prefix
    assert chunks_ok == grid
    expected = {offline_bytes(g * 2048, 2048) for g in range(grid)}
    for seen in (screened, qa.observed):
        assert len(seen) == grid and set(seen) == expected


def test_failed_shared_chunk_is_forgotten_and_submitted_again(monkeypatch):
    # member 0 crashes on its first job, grid chunk 0; with no eviction
    # budget and no inline degrade that fails the chunk and the request
    plan = FaultPlan(faults=(Fault(kind="crash", partition=0, attempt=0),))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    fleet = FleetConfig(degrade_inline=False, max_evictions=0)
    with grid_daemon(chunk_bytes=2048, fleet=fleet) as (daemon, base):
        submitted = record_submits(daemon)
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{base}/v1/bytes?n=100")
        assert err.value.code == 503
        assert _wait_for(lambda: 0 not in daemon._shared)
        # the next lease starts in the same chunk: a fresh member serves it
        offset, body = fetch(f"{base}/v1/bytes?n=100")
        assert (offset, body) == (100, offline_bytes(100, 100))
        assert submitted == [0, 0]


async def _drain(daemon: ServeDaemon, lease) -> bytes:
    return b"".join([piece async for piece in daemon._pipeline(daemon._pieces(lease))])


def _run_on_loop(monkeypatch, scenario):
    """Run *scenario(daemon, submitted)* on a loop that pumps a one-member
    fleet whose first job takes a second, as the daemon's loop does."""
    plan = FaultPlan(faults=(Fault(kind="delay", partition=0, attempt=0, delay=1.0),))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())

    async def main():
        daemon = ServeDaemon(ServeEngine(STREAM, workers=1), DaemonConfig(chunk_bytes=2048))
        daemon.engine.start(chunk_bytes=2048, loop=asyncio.get_running_loop())
        try:
            return await scenario(daemon, record_submits(daemon))
        finally:
            daemon.engine.close()

    return asyncio.run(main())


def test_a_frame_wider_than_the_window_generates_while_the_one_before_is_written(
    monkeypatch,
):
    async def scenario(daemon, submitted):
        # frames of four 2 KiB grid chunks, as wide as the default window
        lease = daemon._lease(4 * 8192, "a")
        pipeline = daemon._pipeline(daemon._pieces(lease, 8192))
        first = await pipeline.__anext__()
        in_flight = sorted(submitted)  # as the consumer writes frame 0
        await pipeline.aclose()
        daemon._release(lease)
        return first, in_flight

    first, in_flight = _run_on_loop(monkeypatch, scenario)
    assert first == offline_bytes(0, 8192)
    assert in_flight == [2048 * g for g in range(8)], "frame 1 was not in flight"


def test_holder_leaving_as_it_waits_keeps_the_chunk_for_the_other(monkeypatch):
    async def scenario(daemon, submitted):
        a, b = daemon._lease(100, "a"), daemon._lease(100, "b")  # both in chunk 0
        task_a = asyncio.create_task(_drain(daemon, a))
        task_b = asyncio.create_task(_drain(daemon, b))
        await asyncio.sleep(0.3)  # both wait on chunk 0, which A submitted
        task_a.cancel()  # A goes away while it waits
        with contextlib.suppress(asyncio.CancelledError):
            await task_a
        daemon._release(a)
        body = await asyncio.wait_for(task_b, 30)
        daemon._release(b)
        return body, list(submitted), daemon.engine.status()["fleet"]["counters"]

    body, submitted, counters = _run_on_loop(monkeypatch, scenario)
    assert body == offline_bytes(100, 100)
    assert submitted == [0], "B resubmitted a chunk A's departure should have kept"
    assert counters["jobs_completed"] == 1 and counters["stale_results"] == 0


def test_cancelled_shared_chunk_is_forgotten_and_submitted_again(monkeypatch):
    async def scenario(daemon, submitted):
        a = daemon._lease(100, "a")
        task_a = asyncio.create_task(_drain(daemon, a))
        await asyncio.sleep(0.3)
        task_a.cancel()  # the only holder leaves: the chunk is cancelled
        with contextlib.suppress(asyncio.CancelledError):
            await task_a
        daemon._release(a)
        forgotten = 0 not in daemon._shared
        b = daemon._lease(100, "b")
        body = await asyncio.wait_for(_drain(daemon, b), 30)
        daemon._release(b)
        return forgotten, body, list(submitted)

    forgotten, body, submitted = _run_on_loop(monkeypatch, scenario)
    assert forgotten
    assert body == offline_bytes(100, 100)
    assert submitted == [0, 0]


def test_stalled_bulk_reader_does_not_block_a_neighbour_in_its_last_chunk():
    total = (16 << 20) + 100  # far beyond socket buffers; ends inside a chunk
    with grid_daemon(chunk_bytes=2048) as (daemon, base):
        submitted = record_submits(daemon)
        with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30) as sock:
            sock.sendall(b"GET /v1/bytes?n=%d HTTP/1.1\r\nHost: x\r\n\r\n" % total)
            # A never reads: wait until its pipeline stalls
            stalled, deadline = -1, time.monotonic() + 60
            while time.monotonic() < deadline:
                time.sleep(0.5)
                served = daemon.status()["server"]["bytes_served"]
                if served == stalled:
                    break
                stalled = served
            assert stalled < total, "the daemon served a reader that never read"
            last = total // 2048 * 2048  # A's last grid chunk, never reached by A
            assert last not in submitted
            t0 = time.monotonic()
            offset, body = fetch(f"{base}/v1/bytes?n=100")
            elapsed = time.monotonic() - t0
            assert offset == total and body == offline_bytes(total, 100)
            assert elapsed < 10, f"B waited {elapsed:.1f}s behind A's stalled pipeline"
            assert submitted.count(last) == 1, "B must submit A's last chunk itself"
            assert daemon.status()["server"]["bytes_served"] == stalled + 100, "A moved"
        # A hung up mid-body: its lease and holds go
        assert _wait_for(lambda: daemon.status()["leases"]["active"] == 0)
        assert _wait_for(lambda: list(daemon._shared) == [last // 2048])


def test_open_ended_stream_of_tiny_frames_holds_at_most_queue_depth_leases():
    # every 1-byte frame is a lease of its own: a window that counted
    # only open grid chunks would grant ~(queue_depth - 1) x 64 Ki leases
    # at once, all on the loop, before a neighbour got a turn
    with grid_daemon(chunk_bytes=65536, queue_depth=4) as (daemon, base):
        with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30) as sock:
            sock.sendall(b"GET /v1/stream?chunk=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            # the stream is never read
            assert _wait_for(lambda: daemon.status()["server"]["bytes_served"] > 0)
            held: list[int] = []

            def sample(seconds: float) -> None:
                deadline = time.monotonic() + seconds
                while time.monotonic() < deadline:
                    held.append(daemon.status()["leases"]["active"])
                    time.sleep(0.01)

            sampler = threading.Thread(target=sample, args=(2.0,))
            sampler.start()
            t0 = time.monotonic()
            offset, body = fetch(f"{base}/v1/bytes?n=4096")
            elapsed = time.monotonic() - t0
            sampler.join()
            assert body == offline_bytes(offset, 4096)
            assert elapsed < 5, f"the neighbour waited {elapsed:.1f}s"
            # the stream's pieces, plus the neighbour's lease while it ran
            assert max(held) <= daemon.config.queue_depth + 1, max(held)
        assert _wait_for(lambda: daemon.status()["leases"]["active"] == 0)


def test_a_stream_of_tiny_frames_yields_the_loop_every_queue_depth_frames():
    # frames cut from an accepted chunk into a socket with room never
    # wait: without a yield the stream writes a whole 64 KiB chunk of
    # 1-byte frames before any neighbour runs
    with grid_daemon(chunk_bytes=65536, queue_depth=4) as (daemon, base):
        loop, done = daemon._loop, threading.Event()
        served: list[int] = []  # bytes served, one sample per loop turn

        def probe() -> None:
            served.append(daemon._bytes_served)
            if not done.is_set():
                loop.call_soon(probe)

        loop.call_soon_threadsafe(probe)
        with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30) as sock:
            sock.sendall(b"GET /v1/stream?chunk=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            # the stream is never read: wait until the socket stalls it
            stalled, deadline = -1, time.monotonic() + 30
            while time.monotonic() < deadline:
                time.sleep(0.5)
                if daemon._bytes_served == stalled:
                    break
                stalled = daemon._bytes_served
            done.set()
            assert stalled > 4 * daemon.config.queue_depth, stalled
            turns = list(zip(served, served[1:]))
            frames = max(later - earlier for earlier, later in turns)
            assert frames <= daemon.config.queue_depth, frames


def _stream_frames(port: int, query: str) -> tuple[list[int], bytes, int]:
    """The frame sizes, body and lease offset of one ``/v1/stream`` response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        head = f"GET /v1/stream?{query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        sock.sendall(head.encode())
        raw = b""
        while piece := sock.recv(1 << 16):
            raw += piece
    head, rest = raw.split(b"\r\n\r\n", 1)
    (offset,) = [
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"x-repro-lease-offset")
    ]
    frames, body = [], b""
    while True:
        size, rest = rest.split(b"\r\n", 1)
        if not int(size, 16):
            return frames, body, offset
        frames.append(int(size, 16))
        body, rest = body + rest[: frames[-1]], rest[frames[-1] + 2 :]


@pytest.mark.parametrize(("chunk_bytes", "frame"), [(2048, 2048), (1 << 17, 1 << 16)])
def test_default_stream_frame_is_the_grid_chunk_up_to_64_kib(chunk_bytes, frame):
    # a wider grid does not widen the frames an unread stream holds
    with grid_daemon(chunk_bytes=chunk_bytes) as (daemon, base):
        n = 2 * frame + 100
        frames, body, offset = _stream_frames(daemon.bound_port, f"n={n}")
        assert frames == [frame, frame, 100]
        assert body == offline_bytes(offset, n)
