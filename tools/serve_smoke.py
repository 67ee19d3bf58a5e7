#!/usr/bin/env python
"""CI smoke test for the ``repro serve`` daemon.

Boots the real CLI entry point in a subprocess, then exercises the
deployment-critical path end to end:

1. wait for the parseable ``repro-serve listening on host:port`` line;
2. run 4 concurrent closed-loop clients against ``/v1/bytes``;
3. assert the granted leases never overlap and every payload matches an
   offline BSRNG positioned at the announced lease offset;
4. lint the live ``/metrics`` exposition with :mod:`repro.obs.promlint`;
5. leave one keep-alive connection idle after a request and another
   stopped mid-head after its request line, send SIGTERM and require a
   graceful drain within 5 s, exit status 0, and no ``Traceback`` or
   ``Exception in callback`` in the daemon's output.

Exit status: 0 = all green, 1 = any check failed.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--algorithm trivium]
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.promlint import lint  # noqa: E402
from repro.serve.engine import StreamConfig  # noqa: E402
from repro.serve.loadgen import run_load  # noqa: E402

READY_RE = re.compile(r"^repro-serve listening on ([\d.]+):(\d+)\s*$")


def fail(msg: str) -> "NoReturn":  # noqa: F821 - documentation type only
    print(f"serve_smoke: FAIL — {msg}", file=sys.stderr)
    raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="trivium")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--lanes", type=int, default=1024)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=5)
    parser.add_argument("--n-bytes", type=int, default=32768)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    root = pathlib.Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "-a", args.algorithm, "-s", str(args.seed), "-l", str(args.lanes),
            "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        host = port = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line and proc.poll() is not None:
                fail(f"daemon exited early with {proc.returncode}")
            m = READY_RE.match(line.strip())
            if m:
                host, port = m.group(1), int(m.group(2))
                break
        if port is None:
            fail("no readiness line within 60s")
        print(f"serve_smoke: daemon ready on {host}:{port}")

        result = asyncio.run(
            run_load(
                host,
                port,
                concurrency=args.clients,
                requests_per_client=args.requests,
                n_bytes=args.n_bytes,
            )
        )
        if result.errors:
            fail(f"{result.errors} client errors")
        expected = args.clients * args.requests
        if result.requests != expected:
            fail(f"completed {result.requests}/{expected} requests")
        print(
            f"serve_smoke: {result.requests} requests, {result.rps:.1f} rps, "
            f"p50 {result.p50_ms:.1f} ms, p99 {result.p99_ms:.1f} ms"
        )

        spans = sorted(result.leases)
        for (off_a, len_a), (off_b, _) in zip(spans, spans[1:]):
            if off_a + len_a > off_b:
                fail(f"overlapping leases at offsets {off_a} and {off_b}")
        print(f"serve_smoke: {len(spans)} leases, non-overlapping")

        # conformance: re-derive one served range offline
        cfg = StreamConfig(algorithm=args.algorithm, seed=args.seed, lanes=args.lanes)
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/bytes?n=64", timeout=30
        ) as resp:
            follow_off = int(resp.headers["X-Repro-Lease-Offset"])
            follow = resp.read()
        rng2 = cfg.make_rng()
        rng2.skip_bytes(follow_off)
        if rng2.read(64) != follow:
            fail(f"served bytes at offset {follow_off} differ from offline stream")
        print("serve_smoke: offline conformance OK")

        with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as resp:
            problems = lint(resp.read().decode())
        if problems:
            fail(f"/metrics lint problems: {problems}")
        print("serve_smoke: /metrics lint clean")

        # a keep-alive client left idle between requests, and one that
        # stopped mid-head, must not hold up the drain: the default
        # drain_grace is 10 s
        idle = http.client.HTTPConnection(host, port, timeout=30)
        idle.request("GET", "/v1/bytes?n=64")
        resp = idle.getresponse()
        resp.read()
        if resp.status != 200:
            fail(f"keep-alive request answered {resp.status}")
        half = socket.create_connection((host, port), timeout=30)
        half.sendall(b"GET /v1/bytes?n=10 HTTP/1.1\r\n")
        time.sleep(0.3)  # let the daemon read the request line
        proc.send_signal(signal.SIGTERM)
        try:
            output, _ = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            fail("daemon still draining 5s after SIGTERM with an idle and a half-sent-head client")
        idle.close()
        half.close()
        if proc.returncode != 0:
            fail(f"daemon exited {proc.returncode} after SIGTERM (expected graceful 0)")
        for marker in ("Traceback", "Exception in callback"):
            if marker in output:
                fail(f"daemon output during the drain holds {marker!r}:\n{output}")
        print("serve_smoke: graceful drain within 5s, exit 0, clean output")
        print("serve_smoke: OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    raise SystemExit(main())
