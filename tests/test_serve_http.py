"""End-to-end tests for the serve daemon over real HTTP.

Each fixture boots a full daemon (asyncio server + lease manager +
supervised worker fleet) on an ephemeral port in a background thread and
tears it down through the graceful-drain path, so every test run also
exercises startup and shutdown.  The acceptance-critical checks live
here:

* bytes served to concurrent clients are bit-identical to an offline
  :class:`BSRNG` positioned at the announced lease offsets, and the
  granted ranges never overlap;
* ``/metrics`` passes the Prometheus exposition linter in-process;
* an injected *stuck* fault is caught by the CRC receipt (the job is
  requeued and the request completes, ``/healthz`` stays healthy), while
  a defective generator's CRC-clean bytes are served once and latch
  ``/healthz`` unhealthy;
* an injected worker *crash* is absorbed by supervision — the client
  sees a clean 200, never an error.

Fault plans are keyed the fleet's way, ``(worker_id, job_index)``: a
member's n-th job.  A replacement member gets the next worker id.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro import obs
from repro.obs.promlint import lint
from repro.fleet import FleetConfig
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan
from repro.serve import DaemonConfig, ServeDaemon, ServeEngine, StreamConfig
from repro.serve.loadgen import fetch_bytes, percentile, run_load

STREAM = StreamConfig(algorithm="trivium", seed=2024, lanes=256)


@contextmanager
def running_daemon(
    workers: int = 1,
    chunk_bytes: int = 2048,
    queue_depth: int = 2,
    screen: bool = True,
    fleet: FleetConfig | None = None,
    journal_path: str | None = None,
    qa=None,
    drain_grace: float = 10.0,
    idle_timeout: float = 30.0,
):
    engine = ServeEngine(STREAM, workers=workers, screen=screen, fleet=fleet, qa=qa)
    daemon = ServeDaemon(
        engine,
        DaemonConfig(
            port=0,
            chunk_bytes=chunk_bytes,
            queue_depth=queue_depth,
            drain_grace=drain_grace,
            idle_timeout=idle_timeout,
            journal_path=journal_path,
        ),
    )
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()), daemon=True)
    thread.start()
    assert daemon.started.wait(30), "daemon failed to start"
    try:
        yield daemon, f"http://127.0.0.1:{daemon.bound_port}"
    finally:
        daemon.shutdown_threadsafe()
        thread.join(20)
        assert not thread.is_alive(), "daemon failed to drain"
        obs.disable_metrics()
        obs.registry().clear()


@pytest.fixture(scope="module")
def daemon():
    """One shared healthy daemon for the read-only endpoint tests."""
    with running_daemon() as pair:
        yield pair


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, dict(resp.headers), resp.read()


def offline_bytes(offset: int, n: int) -> bytes:
    rng = STREAM.make_rng()
    rng.skip_bytes(offset)
    return rng.read(n)


class TestBytesEndpoint:
    def test_two_concurrent_clients_conform_and_do_not_overlap(self, daemon):
        _, base = daemon
        results: list[tuple[int, bytes]] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        def client() -> None:
            try:
                barrier.wait()
                for _ in range(3):
                    _, headers, body = get(f"{base}/v1/bytes?n=5000")
                    results.append((int(headers["X-Repro-Lease-Offset"]), body))
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6

        spans = sorted((off, off + len(body)) for off, body in results)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b, "concurrent leases overlap"

        for offset, body in results:
            assert body == offline_bytes(offset, len(body)), (
                f"served bytes at offset {offset} differ from the offline stream"
            )

    def test_hex_format(self, daemon):
        _, base = daemon
        _, headers, body = get(f"{base}/v1/bytes?n=100&format=hex")
        offset = int(headers["X-Repro-Lease-Offset"])
        assert body == offline_bytes(offset, 100).hex().encode() + b"\n"

    def test_lease_is_released_after_response(self, daemon):
        _, base = daemon
        get(f"{base}/v1/bytes?n=64")
        status = json.loads(get(f"{base}/v1/status")[2])
        assert status["leases"]["active"] == 0

    def test_bad_requests(self, daemon):
        _, base = daemon
        for url, expected in [
            (f"{base}/v1/bytes?n=nope", 400),
            (f"{base}/v1/bytes?n=64&format=dec", 400),
            (f"{base}/nope", 404),
        ]:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(url)
            assert err.value.code == expected


class TestStreamEndpoint:
    def test_bounded_stream_conforms(self, daemon):
        _, base = daemon
        _, headers, body = get(f"{base}/v1/stream?n=9000&chunk=1000")
        offset = int(headers["X-Repro-Lease-Offset"])
        assert len(body) == 9000
        assert body == offline_bytes(offset, 9000)

    def test_slow_reader_hits_backpressure_not_buffers(self, daemon):
        d, base = daemon
        total = 16 << 20  # far beyond transport high-water + kernel buffers
        before = d.status()["server"]["bytes_served"]
        with socket.create_connection(("127.0.0.1", d.bound_port), timeout=30) as sock:
            sock.sendall(
                b"GET /v1/stream?n=%d&chunk=4096 HTTP/1.1\r\n"
                b"Host: x\r\nConnection: close\r\n\r\n" % total
            )
            sock.settimeout(60)
            # do not read: the producer must stall (stop making progress)
            # once queue_depth chunks + transport high-water + kernel socket
            # buffers are full — it must NOT run through to total
            stalled, deadline = -1, time.monotonic() + 60
            while time.monotonic() < deadline:
                time.sleep(0.5)
                now = d.status()["server"]["bytes_served"] - before
                if now == stalled:
                    break  # two consecutive samples: producer has stalled
                stalled = now
            assert stalled < total, (
                f"producer served all {stalled} bytes to a reader that never read"
            )
            chunks = []
            while True:
                piece = sock.recv(1 << 16)
                if not piece:
                    break
                chunks.append(piece)
        payload = b"".join(chunks)
        assert b"0\r\n\r\n" in payload[-10:], "chunked stream must terminate cleanly"


class TestOperationalEndpoints:
    def test_healthz_healthy(self, daemon):
        _, base = daemon
        status, _, body = get(f"{base}/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["healthy"] is True and doc["draining"] is False

    def test_metrics_lint_clean(self, daemon):
        _, base = daemon
        get(f"{base}/v1/bytes?n=256")  # ensure serve metrics exist
        _, headers, body = get(f"{base}/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "repro_serve_requests_total" in text
        assert lint(text) == [], f"/metrics failed the exposition linter: {lint(text)}"

    def test_status_document(self, daemon):
        _, base = daemon
        doc = json.loads(get(f"{base}/v1/status")[2])
        assert doc["engine"]["stream"]["algorithm"] == STREAM.algorithm
        assert doc["server"]["requests_total"] > 0
        assert doc["leases"]["high_water_bytes"] >= 0
        assert doc["engine"]["health"]["healthy"] is True


class TestLeaseAccounting:
    def test_only_requests_count_as_leases(self):
        # three 8 KiB requests become twelve 2 KiB fleet jobs; the
        # daemon's lease series count the three requests, not the jobs
        with running_daemon(workers=1, chunk_bytes=2048) as (_, base):
            leases = obs.registry().counter("repro_serve_leases_total")
            before = leases.value
            for _ in range(3):
                assert get(f"{base}/v1/bytes?n=8192")[0] == 200
            assert leases.value - before == 3


class TestLoadgenClient:
    def test_run_load_round_trip(self, daemon):
        _, base = daemon
        d, _ = daemon
        result = asyncio.run(
            run_load(
                "127.0.0.1",
                d.bound_port,
                concurrency=2,
                requests_per_client=3,
                n_bytes=2048,
            )
        )
        assert result.errors == 0
        assert result.requests == 6
        assert result.bytes_received == 6 * 2048
        assert result.p50_ms > 0 and result.p99_ms >= result.p50_ms
        spans = sorted(result.leases)
        for (off_a, len_a), (off_b, _) in zip(spans, spans[1:]):
            assert off_a + len_a <= off_b

    def test_percentile_interpolates(self):
        assert percentile([], 50) == 0.0
        assert percentile([5.0], 99) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)


def _wait_for(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestChunkPipeline:
    def test_chunks_are_screened_in_stream_order(self, monkeypatch):
        # member 0's first job sleeps while the other member finishes
        # the chunks behind it: acceptance (CRC, screen, QA) must still
        # run in stream order
        plan = FaultPlan(faults=(Fault(kind="delay", partition=0, attempt=0, delay=1.0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        with running_daemon(workers=2, queue_depth=4) as (daemon, base):
            health = daemon.engine.health
            screened: list[bytes] = []
            real_screen = health.screen

            def recording_screen(data):
                screened.append(bytes(data))
                return real_screen(data)

            health.screen = recording_screen
            _, headers, body = get(f"{base}/v1/bytes?n=16384")
        offset = int(headers["X-Repro-Lease-Offset"])
        assert body == offline_bytes(offset, 16384)
        assert len(screened) == 8
        at = offset
        for piece in screened:
            assert piece == offline_bytes(at, len(piece)), f"chunk at {at} screened out of order"
            at += len(piece)
        assert at == offset + 16384

    def test_stalled_bytes_reader_stops_generation_queue_depth_ahead(self):
        # a daemon of its own: 16 MiB of stream would carry the shared
        # daemon past an RCT false positive at the 2^-20 cutoff
        total = 16 << 20  # far beyond transport high-water + kernel buffers
        with running_daemon() as (d, _):
            submitted = []
            real_submit = d.engine.submit

            def recording_submit(offset, n, *args):
                submitted.append(n)
                return real_submit(offset, n, *args)

            d.engine.submit = recording_submit
            with socket.create_connection(("127.0.0.1", d.bound_port), timeout=30) as sock:
                sock.sendall(b"GET /v1/bytes?n=%d HTTP/1.1\r\nHost: x\r\n\r\n" % total)
                # do not read: the pipeline must stall with at most
                # queue_depth chunks generated beyond what the socket took
                stalled, deadline = -1, time.monotonic() + 60
                while time.monotonic() < deadline:
                    time.sleep(0.5)
                    served = d.status()["server"]["bytes_served"]
                    if served == stalled:
                        break
                    stalled = served
                ahead = sum(submitted) - stalled
                assert stalled < total, "the daemon served a reader that never read"
                assert 0 < ahead <= d.config.queue_depth * d.config.chunk_bytes
            # the reader hung up mid-body: its lease must not stay active
            assert _wait_for(lambda: d.status()["leases"]["active"] == 0)

    def test_failure_of_first_chunk_is_a_clean_503(self, monkeypatch):
        # members 0, 1 and 2 each crash on their first job, the first
        # chunk's: the eviction budget of 2 is spent, degrading is off
        plan = FaultPlan(
            faults=tuple(Fault(kind="crash", partition=w, attempt=0) for w in range(3))
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        fleet = FleetConfig(degrade_inline=False, max_evictions=2)
        with running_daemon(workers=1, fleet=fleet) as (daemon, base):
            with pytest.raises(urllib.error.HTTPError) as err:
                get(f"{base}/v1/bytes?n=3000")
            assert err.value.code == 503
            assert daemon.status()["leases"]["active"] == 0

    def test_failure_after_head_closes_connection_and_releases_lease(self, monkeypatch):
        # chunk 1 of 3 crashes every member that runs it — member 0 as
        # its second job, members 1 and 2 as their first — and degrading
        # is off: the 200 head and chunk 0 are already out, so the daemon
        # must cut the connection (truncated body), not write a second
        # status line
        plan = FaultPlan(
            faults=(
                Fault(kind="crash", partition=0, attempt=1),
                Fault(kind="crash", partition=1, attempt=0),
                Fault(kind="crash", partition=2, attempt=0),
            )
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        fleet = FleetConfig(degrade_inline=False, max_evictions=2)
        with running_daemon(workers=1, chunk_bytes=1024, fleet=fleet) as (
            daemon,
            base,
        ):
            with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30) as sock:
                sock.sendall(b"GET /v1/bytes?n=3000 HTTP/1.1\r\nHost: x\r\n\r\n")
                received = b""
                while piece := sock.recv(65536):  # until the daemon closes
                    received += piece
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            assert b"Content-Length: 3000" in head
            assert body == offline_bytes(0, 1024), "exactly chunk 0, then the cut"
            assert _wait_for(lambda: daemon.status()["leases"]["active"] == 0)
            assert daemon.engine.status()["chunks"]["worker_errors"] == 3
            # the daemon keeps serving afterwards
            status, headers, body = get(f"{base}/v1/bytes?n=100")
            assert status == 200
            assert body == offline_bytes(int(headers["X-Repro-Lease-Offset"]), 100)


class TestFaultDrills:
    def test_stuck_fault_is_caught_by_crc_receipt(self, monkeypatch):
        # member 0's first job returns all-zero bytes after it took its
        # receipt: the mismatch marks a damaged transfer, the requeued
        # job serves the true bytes, and the screen never sees the zeros — so
        # the stream's health verdict is untouched
        plan = FaultPlan(faults=(Fault(kind="stuck", partition=0, attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        with running_daemon(workers=1) as (daemon, base):
            status, headers, body = get(f"{base}/v1/bytes?n=4096")
            assert status == 200
            offset = int(headers["X-Repro-Lease-Offset"])
            assert body == offline_bytes(offset, 4096), "retry must serve true bytes"
            chunks = daemon.engine.status()["chunks"]
            assert chunks["crc_rejects"] >= 1
            assert chunks["retries"] >= 1
            assert chunks["screen_rejects"] == 0
            assert get(f"{base}/healthz")[0] == 200

    def test_defective_generator_is_served_and_latches_healthz(self, monkeypatch):
        # a bias fault masks the bytes before the receipt: CRC-clean
        # zeros, as a broken generator would emit.  A retry could only
        # return them again, so the one chunk is served once, with its
        # screen trip counted and /healthz latched for the operator.
        plan = FaultPlan(faults=(Fault(kind="bias", partition=0, bias_mask=0x00),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        with running_daemon(workers=1, chunk_bytes=2048) as (daemon, base):
            status, _, body = get(f"{base}/v1/bytes?n=2048")
            assert status == 200
            assert body == bytes(2048)
            chunks = daemon.engine.status()["chunks"]
            assert (
                chunks["screen_rejects"], chunks["retries"],
                chunks["degraded"], chunks["crc_rejects"],
            ) == (1, 0, 0, 0)
            with pytest.raises(urllib.error.HTTPError) as err:
                get(f"{base}/healthz")
            assert err.value.code == 503
            doc = json.loads(err.value.read())
            assert doc["healthy"] is False
            assert doc["events"][0]["test"] == "rct"

    def test_corrupt_payload_is_caught_by_crc_receipt(self, monkeypatch):
        # corruption happens after the member's CRC receipt, so the
        # fleet sees a transfer-damage mismatch and requeues — the
        # health verdict is untouched (the stream itself was fine)
        plan = FaultPlan(faults=(Fault(kind="corrupt", partition=0, attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        with running_daemon(workers=1) as (daemon, base):
            status, headers, body = get(f"{base}/v1/bytes?n=4096")
            assert status == 200
            offset = int(headers["X-Repro-Lease-Offset"])
            assert body == offline_bytes(offset, 4096)
            chunks = daemon.engine.status()["chunks"]
            assert chunks["crc_rejects"] >= 1
            assert get(f"{base}/healthz")[0] == 200

    def test_worker_crash_is_absorbed_by_supervision(self, monkeypatch):
        plan = FaultPlan(faults=(Fault(kind="crash", partition=0, attempt=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        with running_daemon(workers=1) as (daemon, base):
            status, headers, body = get(f"{base}/v1/bytes?n=4096")
            assert status == 200, "a crashed worker must never surface to the client"
            offset = int(headers["X-Repro-Lease-Offset"])
            assert body == offline_bytes(offset, 4096)
            chunks = daemon.engine.status()["chunks"]
            assert chunks["worker_errors"] >= 1
            assert chunks["retries"] >= 1
            # a crash is a worker fault, not evidence against the stream
            assert get(f"{base}/healthz")[0] == 200


class TestGracefulDrain:
    def test_drain_finishes_open_stream_and_exits(self):
        with running_daemon(chunk_bytes=1024) as (daemon, base):
            sock = socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30)
            sock.sendall(
                b"GET /v1/stream HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            sock.settimeout(30)
            first = sock.recv(4096)  # stream is live
            assert first.startswith(b"HTTP/1.1 200")
            daemon.shutdown_threadsafe()
            tail = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break
                tail = (tail + piece)[-10:]
            sock.close()
            assert tail.endswith(b"0\r\n\r\n"), (
                "drain must end the open stream with a clean chunked terminator"
            )

    @staticmethod
    def _drain_with_keep_alive(caplog, then: bytes = b"") -> float:
        """Seconds a drain takes while one keep-alive client, answered
        once, has sent *then* since; the drain must log no callback
        exception."""
        daemon = ServeDaemon(
            ServeEngine(STREAM, workers=1),
            DaemonConfig(port=0, chunk_bytes=2048, drain_grace=10.0),
        )
        thread = threading.Thread(target=lambda: asyncio.run(daemon.run()), daemon=True)
        thread.start()
        assert daemon.started.wait(30), "daemon failed to start"
        try:
            client = http.client.HTTPConnection("127.0.0.1", daemon.bound_port, timeout=30)
            client.request("GET", "/v1/bytes?n=100")
            resp = client.getresponse()
            assert resp.status == 200
            resp.read()  # the connection stays open, idle between requests
            if then:
                client.sock.sendall(then)
                time.sleep(0.3)  # let the daemon read it
            t0 = time.monotonic()
            daemon.shutdown_threadsafe()
            thread.join(20)
            elapsed = time.monotonic() - t0
            client.close()
        finally:
            obs.disable_metrics()
            obs.registry().clear()
        assert not thread.is_alive(), "daemon failed to drain"
        logged = [r.getMessage() for r in caplog.records]
        assert not any("Exception in callback" in m for m in logged), logged
        return elapsed

    def test_drain_closes_idle_keep_alive_at_once(self, caplog):
        elapsed = self._drain_with_keep_alive(caplog)
        assert elapsed < 2.0, f"drain waited {elapsed:.1f} s for an idle connection"

    def test_drain_closes_half_sent_head_at_once(self, caplog):
        # the next request stops after its request line
        elapsed = self._drain_with_keep_alive(caplog, b"GET /v1/bytes?n=10 HTTP/1.1\r\n")
        assert elapsed < 2.0, f"drain waited {elapsed:.1f} s for a half-sent head"

    def test_draining_daemon_reports_unhealthy_then_exits(self):
        # covered structurally: after shutdown the socket closes; the
        # /healthz draining flip is asserted through the status document
        # while the daemon is still up
        with running_daemon() as (daemon, base):
            doc = json.loads(get(f"{base}/healthz")[2])
            assert doc["draining"] is False

    def test_fetch_bytes_one_shot(self):
        with running_daemon() as (daemon, base):
            payload, offset = asyncio.run(
                fetch_bytes("127.0.0.1", daemon.bound_port, 1500)
            )
            assert payload == offline_bytes(offset, 1500)


def _closed_without_reply(sock: socket.socket, timeout: float) -> bool:
    """Whether the daemon closes *sock* within *timeout* s, sending nothing."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1024) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


class TestRequestHead:
    """A request head is read whole under one ``idle_timeout`` deadline."""

    @pytest.mark.parametrize(
        "head",
        [
            # the request line, and then nothing
            b"GET /v1/bytes?n=10 HTTP/1.1\r\n",
            # a complete head whose lines end in bare LF: refused, since
            # the head must end in CRLF CRLF
            b"GET /healthz HTTP/1.1\nHost: x\n\n",
        ],
        ids=["half-sent", "bare-lf"],
    )
    def test_unfinished_head_is_closed_within_idle_timeout(self, head):
        with running_daemon(idle_timeout=0.5) as (daemon, _):
            with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=30) as sock:
                sock.sendall(head)
                t0 = time.monotonic()
                assert _closed_without_reply(sock, 5.0), "the daemon kept the connection"
                assert time.monotonic() - t0 < 2.0
            # the daemon still serves
            assert get(f"http://127.0.0.1:{daemon.bound_port}/healthz")[0] == 200

    def test_oversize_head_is_closed_at_once(self, daemon):
        d, base = daemon
        with socket.create_connection(("127.0.0.1", d.bound_port), timeout=30) as sock:
            try:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 17))
            except (BrokenPipeError, ConnectionResetError):
                pass  # closed before it read the rest
            assert _closed_without_reply(sock, 5.0), "the daemon kept the connection"
        assert get(f"{base}/healthz")[0] == 200


class TestTraceHeaders:
    def test_every_response_carries_trace_identity(self, daemon):
        _, base = daemon
        _, headers, _ = get(f"{base}/v1/bytes?n=256")
        trace_id = headers.get("X-Repro-Trace-Id")
        span_id = headers.get("X-Repro-Span-Id")
        assert trace_id and len(trace_id) == 32 and int(trace_id, 16) >= 0
        assert span_id and len(span_id) == 16 and int(span_id, 16) >= 0
        # a second request is a different trace
        _, headers2, _ = get(f"{base}/v1/bytes?n=256")
        assert headers2["X-Repro-Trace-Id"] != trace_id

    def test_incoming_trace_context_is_adopted_and_echoed(self, daemon):
        from repro.obs.context import TraceContext

        _, base = daemon
        ctx = TraceContext.mint()
        req = urllib.request.Request(
            f"{base}/v1/bytes?n=256", headers=ctx.to_headers()
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            headers = dict(resp.headers)
            resp.read()
        assert headers["X-Repro-Trace-Id"] == ctx.trace_id  # joined, not minted
        assert headers["X-Repro-Span-Id"] != ctx.span_id  # its own span

    def test_traced_request_stitches_daemon_and_worker_spans(self):
        from repro.obs.context import TraceContext

        tracer = obs.enable_tracing()
        try:
            with running_daemon(workers=1) as (daemon, base):
                ctx = TraceContext.mint()
                req = urllib.request.Request(
                    f"{base}/v1/bytes?n=4096", headers=ctx.to_headers()
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    resp.read()
                # the serve.request span closes just after the response is
                # flushed; give the event loop a beat to record it
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    records = [
                        r for r in tracer.records if r.trace_id == ctx.trace_id
                    ]
                    if any(r.name == "serve.request" for r in records):
                        break
                    time.sleep(0.01)
        finally:
            obs.disable_tracing()
        names = {r.name for r in records}
        assert "serve.request" in names  # daemon-side span
        assert "fleet.worker_chunk" in names  # member span, merged home
        import os

        worker = next(r for r in records if r.name == "fleet.worker_chunk")
        assert worker.pid != os.getpid()
        # parent links resolve within the collected trace
        span_ids = {r.span_id for r in records}
        for rec in records:
            assert rec.parent_id == ctx.span_id or rec.parent_id in span_ids


class TestDashboard:
    def test_render_from_live_daemon(self):
        from repro.obs import dashboard

        # own daemon: the module-shared one may have had its metrics
        # registry cleared by another test's teardown
        with running_daemon() as (_, base):
            get(f"{base}/v1/bytes?n=2048")  # ensure some traffic exists
            status = json.loads(get(f"{base}/v1/status")[2])
            samples = dashboard.parse_prometheus(get(f"{base}/metrics")[2].decode())
        frame = dashboard.render(status, samples)
        assert "repro top" in frame and "trivium" in frame
        assert "requests" in frame and "leases" in frame
        assert "request latency" in frame  # histogram was populated

    def test_run_top_finite_iterations(self, daemon):
        import io

        from repro.obs.dashboard import run_top

        daemon_obj, base = daemon
        out = io.StringIO()
        rc = run_top(
            host="127.0.0.1",
            port=daemon_obj.bound_port,
            interval=0.05,
            iterations=2,
            clear=False,
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert text.count("repro top") == 2  # two frames, no ANSI clears
        assert "\x1b[2J" not in text

    def test_run_top_unreachable_daemon_exits_nonzero(self):
        import io

        from repro.obs.dashboard import run_top

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        out = io.StringIO()
        assert run_top(port=port, iterations=1, out=out) == 1
        assert "cannot reach" in out.getvalue()
