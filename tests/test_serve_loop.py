"""Event-loop delivery: the daemon moves every served chunk on its loop.

The daemon starts its engine with its running loop, and the loop is
what pumps the fleet: a reader on the transport's descriptor pumps member
results in as they land, and a timer at the supervision period keeps
liveness, relaunch and degrade running while the daemon is idle.  These
tests pin that down end to end on an in-process daemon with one member:

* serving requests starts no thread in this process beyond the loop's
  own — no fleet thread, no ``run_in_executor`` pool;
* a member SIGKILLed while no request is in flight is evicted and
  relaunched by the loop within ``heartbeat_timeout``, and the next
  request is bit-identical to the offline replay;
* a member relaunched while a client is connected holds no socket of
  the daemon's, only its own pipe;
* after the drain, the loop no longer watches the transport.
"""

from __future__ import annotations

import asyncio
import http.client
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager, suppress

import pytest

from repro import obs
from repro.fleet import FleetConfig
from repro.serve import DaemonConfig, ServeDaemon, ServeEngine, StreamConfig

STREAM = StreamConfig(algorithm="trivium", seed=31, lanes=256)


def start_daemon(fleet: FleetConfig | None = None):
    """A one-member daemon on its own loop in a background thread."""
    daemon = ServeDaemon(
        ServeEngine(STREAM, workers=1, fleet=fleet),
        DaemonConfig(port=0, chunk_bytes=2048, queue_depth=2, drain_grace=10.0),
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_until_complete, args=(daemon.run(),), name="daemon-loop", daemon=True
    )
    thread.start()
    assert daemon.started.wait(30), "daemon failed to start"
    return daemon, loop, thread


def stop_daemon(daemon: ServeDaemon, thread: threading.Thread) -> None:
    """Drain the daemon; its loop stays open for inspection."""
    daemon.shutdown_threadsafe()
    thread.join(20)
    assert not thread.is_alive(), "daemon failed to drain"
    obs.disable_metrics()
    obs.registry().clear()


@contextmanager
def loop_daemon(fleet: FleetConfig | None = None):
    daemon, loop, thread = start_daemon(fleet)
    try:
        yield daemon, f"http://127.0.0.1:{daemon.bound_port}"
    finally:
        stop_daemon(daemon, thread)
        loop.close()


def fetch(base: str, n: int) -> tuple[int, bytes]:
    """``GET /v1/bytes?n=N``: the lease offset and the body."""
    with urllib.request.urlopen(f"{base}/v1/bytes?n={n}", timeout=30) as resp:
        assert resp.status == 200
        return int(resp.headers["X-Repro-Lease-Offset"]), resp.read()


def offline_bytes(offset: int, n: int) -> bytes:
    rng = STREAM.make_rng()
    rng.skip_bytes(offset)
    return rng.read(n)


def _wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_served_chunks_cross_no_executor_or_supervisor_thread():
    before = set(threading.enumerate())
    with loop_daemon() as (daemon, base):
        for n in (100, 5000, 4096):  # leases [0, 100), [100, 5100), [5100, 9196)
            offset, body = fetch(base, n)
            assert body == offline_bytes(offset, n)
        started = [t.name for t in threading.enumerate() if t not in before]
    assert started == ["daemon-loop"], f"threads beyond the loop's: {started}"
    # grid chunks 0-4 of 2 KiB, each accepted once: chunk 0 is shared by
    # the first two leases and chunk 2 by the last two
    assert daemon.engine.status()["chunks"]["chunks_ok"] == 5


def test_idle_member_sigkill_is_evicted_and_relaunched_by_the_loop():
    fleet = FleetConfig(heartbeat_interval=0.2, heartbeat_timeout=1.0)
    with loop_daemon(fleet) as (daemon, base):
        offset, body = fetch(base, 4096)
        assert body == offline_bytes(offset, 4096)
        (member,) = daemon.engine.status()["fleet"]["workers"]
        assert member["state"] == "live"
        proc = next(
            p for p in mp.active_children() if p.name == f"fleet-worker-{member['worker_id']}"
        )

        def workers() -> dict[int, dict]:
            return {w["worker_id"]: w for w in daemon.engine.status()["fleet"]["workers"]}

        # no request is in flight and the fleet has no thread: only
        # the loop's reader and tick can notice the death
        os.kill(proc.pid, signal.SIGKILL)
        assert _wait_for(
            lambda: any(
                w["state"] == "live" and wid != member["worker_id"]
                for wid, w in workers().items()
            ),
            timeout=fleet.heartbeat_timeout,
        ), f"no replacement went live within heartbeat_timeout: {workers()}"
        assert workers()[member["worker_id"]]["state"] == "evicted"
        assert workers()[member["worker_id"]]["evicted_reason"] == "crash"
        offset, body = fetch(base, 4096)
        assert body == offline_bytes(offset, 4096)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd")
def test_relaunched_member_holds_only_its_own_socket():
    fleet = FleetConfig(heartbeat_interval=0.2, heartbeat_timeout=1.0)
    with loop_daemon(fleet) as (daemon, base):
        # a keep-alive client stays connected while the member is replaced
        client = http.client.HTTPConnection("127.0.0.1", daemon.bound_port, timeout=30)
        client.request("GET", "/v1/bytes?n=4096")
        resp = client.getresponse()
        assert resp.status == 200
        resp.read()
        (member,) = daemon.engine.status()["fleet"]["workers"]
        procs = {p.name: p for p in mp.active_children()}
        os.kill(procs[f"fleet-worker-{member['worker_id']}"].pid, signal.SIGKILL)

        def replacement() -> dict | None:
            return next(
                (
                    w
                    for w in daemon.engine.status()["fleet"]["workers"]
                    if w["state"] == "live" and w["worker_id"] != member["worker_id"]
                ),
                None,
            )

        assert _wait_for(lambda: replacement() is not None, timeout=10)
        name = f"fleet-worker-{replacement()['worker_id']}"
        pid = next(p.pid for p in mp.active_children() if p.name == name)
        fd_dir = f"/proc/{pid}/fd"
        links = []
        for fd in os.listdir(fd_dir):
            with suppress(FileNotFoundError):
                links.append(os.readlink(f"{fd_dir}/{fd}"))
        sockets = [link for link in links if link.startswith("socket:")]
        # its own pipe to the daemon; no listener, client or other member end
        assert len(sockets) == 1, f"member {pid} holds sockets {sockets}"
        client.close()


def test_drain_removes_the_transport_reader():
    daemon, loop, thread = start_daemon()
    try:
        offset, body = fetch(f"http://127.0.0.1:{daemon.bound_port}", 2048)
        assert body == offline_bytes(offset, 2048)
        fd = daemon.engine._fleet.transport.fileno()
        stop_daemon(daemon, thread)
        assert loop.remove_reader(fd) is False, "the drained loop still watches the fleet"
    finally:
        loop.close()
