"""``repro serve`` over its fleet: one screen per served byte, no
eviction for it, and the status document the benchmark reads.

``--alpha`` sets the false-positive rate of the service-wide ``/healthz``
screen (2^-20 by default, a 4-byte RCT run).  That latch is the only
RCT/APT screen on a served byte: fleet members are checked by their CRC
receipts alone, because a verified chunk is the stream's own bytes and
every peer would return the same ones.  The regression boots the real
CLI over a 2-member fleet and reads the first MiB of the default seed-0
Trivium stream.  The latch trips once, exactly where
``tests/test_range_source.py`` reports it, the chunk is served, and no
member is evicted.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

READY_RE = re.compile(r"^repro-serve listening on ([\d.]+):(\d+)\s*$")
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: First RCT event of the default stream (trivium, seed 0, 4096 lanes)
#: under the 2^-20 latch, screened in grid chunks in stream order.
FIRST_RCT_POSITION = 685_976

#: The ``engine.chunks`` counters ``perfbench/serve_workloads.py`` reads.
PERFBENCH_CHUNK_KEYS = {
    "chunks_ok", "retries", "degraded", "timeouts", "crc_rejects", "screen_rejects",
}


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def test_fleet_trip_costs_one_screen_reject_and_no_eviction():
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0"],
        stdout=subprocess.PIPE,  # the readiness line; logs go to stderr
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        base = None
        deadline = time.monotonic() + 60
        while base is None and time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line or proc.poll() is None, f"daemon exited early ({proc.returncode})"
            m = READY_RE.match(line.strip())
            if m:
                base = f"http://{m.group(1)}:{m.group(2)}"
        assert base is not None, "no readiness line within 60s"

        status, body = _get(f"{base}/v1/bytes?n={1 << 20}")
        assert status == 200 and len(body) == 1 << 20

        engine = json.loads(_get(f"{base}/v1/status")[1])["engine"]
        fleet = engine["fleet"]
        assert fleet["counters"]["evictions"] == 0, fleet["events"]
        assert engine["chunks"]["screen_rejects"] == 1

        status, body = _get(f"{base}/healthz")
        health = json.loads(body)
        assert status == 503 and not health["healthy"]
        first = health["events"][0]
        assert (first["test"], first["position"]) == ("rct", FIRST_RCT_POSITION)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
    assert rc == 0


@contextmanager
def serving(*flags: str):
    """Boot ``repro serve --port 0 *flags``; yield its base URL; then
    SIGTERM it and require a clean exit."""
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
        stdout=subprocess.PIPE,  # the readiness line; logs go to stderr
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        base = None
        deadline = time.monotonic() + 60
        while base is None and time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line or proc.poll() is None, f"daemon exited early ({proc.returncode})"
            m = READY_RE.match(line.strip())
            if m:
                base = f"http://{m.group(1)}:{m.group(2)}"
        assert base is not None, "no readiness line within 60s"
        yield base
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
    assert rc == 0


def test_one_worker_status_carries_the_benchmark_chunk_counters():
    with serving("--workers", "1") as base:
        status, body = _get(f"{base}/v1/bytes?n=4096")
        assert status == 200 and len(body) == 4096
        engine = json.loads(_get(f"{base}/v1/status")[1])["engine"]
    chunks = engine["chunks"]
    assert PERFBENCH_CHUNK_KEYS <= set(chunks)
    assert all(isinstance(chunks[key], int) for key in PERFBENCH_CHUNK_KEYS)
    assert chunks["chunks_ok"] == 1
    assert engine["workers"] == 1 and len(engine["fleet"]["workers"]) == 1
