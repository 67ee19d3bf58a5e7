#!/usr/bin/env python
"""CI chaos drill for the fleet-backed ``repro serve`` daemon.

Boots the real CLI entry point with ``--workers 4`` and a scripted
``REPRO_FAULT_PLAN`` that sabotages two of the four members mid-stream —
one crashes outright after its second job, one goes heartbeat-silent
from the start — then proves the service absorbed the losses:

1. wait for the parseable ``repro-serve listening on host:port`` line;
2. run concurrent closed-loop clients against ``/v1/bytes`` while the
   faults fire; no client may see an error;
3. assert the granted leases never overlap;
4. assert every client payload is bit-identical to an offline BSRNG
   positioned at the announced lease offset (``skip_bytes`` replay) —
   eviction and lease reassignment must be invisible in the bytes;
5. require ``/v1/status`` to show the evictions and
   ``/metrics`` to carry ``repro_fleet_evictions_total`` /
   ``repro_fleet_workers`` reflecting them, lint-clean;
6. require the evictions to have left readable flight-recorder dumps
   under ``REPRO_FLIGHT_DIR`` (the controller's black box, plus the
   crashed member's own ``worker-crash`` dump);
7. send SIGTERM and require a graceful drain with exit status 0;
8. load the ``--trace-out`` Chrome trace the daemon wrote on exit and
   require one traced request to stitch the daemon's ``serve.request``
   span, the engine's ``serve.chunk`` spans and chunk spans
   from >= 2 distinct worker *processes* under a single trace id with
   every parent link resolvable.

Artifacts (flight dumps, trace JSON, metrics snapshot) are left under
``--artifacts-dir`` for CI upload.

Exit status: 0 = all green, 1 = any check failed.

Usage::

    PYTHONPATH=src python tools/fleet_chaos.py [--algorithm trivium]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.promlint import lint  # noqa: E402
from repro.robust.faults import Fault, FaultPlan  # noqa: E402
from repro.serve.engine import StreamConfig  # noqa: E402
from repro.serve.loadgen import run_load  # noqa: E402

READY_RE = re.compile(r"^repro-serve listening on ([\d.]+):(\d+)\s*$")


def fail(msg: str) -> "NoReturn":  # noqa: F821 - documentation type only
    print(f"fleet_chaos: FAIL — {msg}", file=sys.stderr)
    raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="trivium")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--lanes", type=int, default=1024)
    parser.add_argument("--fleet", type=int, default=4)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--n-bytes", type=int, default=32768)
    parser.add_argument(
        "--artifacts-dir", default="chaos-artifacts",
        help="flight dumps, trace JSON and metrics snapshot land here "
        "(default ./chaos-artifacts)",
    )
    args = parser.parse_args(argv)

    artifacts = pathlib.Path(args.artifacts_dir)
    flight_dir = artifacts / "flight"
    trace_path = artifacts / "trace.json"
    metrics_path = artifacts / "metrics.json"
    flight_dir.mkdir(parents=True, exist_ok=True)

    plan = FaultPlan(
        faults=(
            # member 0 dies after its second job (carrier loss mid-stream)
            Fault("crash", partition=0, attempt=2),
            # member 1 computes but never heartbeats (protocol silence)
            Fault("hb_silence", partition=1, attempt=0),
        ),
        seed=29,
    )
    env = dict(os.environ)
    root = pathlib.Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_FAULT_PLAN"] = plan.to_json()
    env["REPRO_FLIGHT_DIR"] = str(flight_dir)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "-a", args.algorithm, "-s", str(args.seed), "-l", str(args.lanes),
            "--workers", str(args.fleet),
            "--heartbeat-interval", "0.2",
            "--heartbeat-timeout", "2.0",
            # stream in 16 KiB chunks: one request pipelines several
            # concurrent jobs over the members, which is what lets a
            # single request's trace span >= 2 workers
            "--chunk-bytes", "16384",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
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
        print(f"fleet_chaos: daemon ready on {host}:{port}, fleet of {args.fleet}")

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
            fail(f"{result.errors} client-visible errors (worker loss leaked)")
        expected = args.clients * args.requests
        if result.requests != expected:
            fail(f"completed {result.requests}/{expected} requests")
        print(
            f"fleet_chaos: {result.requests} requests under chaos, "
            f"{result.rps:.1f} rps, p99 {result.p99_ms:.1f} ms, 0 errors"
        )

        spans = sorted(result.leases)
        for (off_a, len_a), (off_b, _) in zip(spans, spans[1:]):
            if off_a + len_a > off_b:
                fail(f"overlapping leases at offsets {off_a} and {off_b}")
        print(f"fleet_chaos: {len(spans)} leases, non-overlapping")

        # give the liveness deadline time to fire on the silent member,
        # then keep a little traffic flowing so the controller pumps
        settle_deadline = time.time() + 20
        evictions_seen = 0
        while time.time() < settle_deadline:
            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/status", timeout=30
            ) as resp:
                status = json.load(resp)
            fleet = status.get("engine", status).get("fleet") or status.get("fleet")
            if fleet is None:
                fail("/v1/status carries no fleet section")
            evictions_seen = fleet["counters"]["evictions"]
            if evictions_seen >= 2:
                break
            urllib.request.urlopen(
                f"http://{host}:{port}/v1/bytes?n=16384", timeout=30
            ).read()
            time.sleep(0.5)
        if evictions_seen < 2:
            fail(f"expected >= 2 evictions (crash + silence), saw {evictions_seen}")
        reasons = {
            w["evicted_reason"] for w in fleet["workers"] if w["state"] == "evicted"
        }
        print(
            f"fleet_chaos: {evictions_seen} evictions ({', '.join(sorted(reasons))}), "
            f"{fleet['counters']['reassignments']} leases reassigned"
        )

        # bit-identity: replay one served range offline via skip_bytes
        cfg = StreamConfig(algorithm=args.algorithm, seed=args.seed, lanes=args.lanes)
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/bytes?n=4096", timeout=30
        ) as resp:
            follow_off = int(resp.headers["X-Repro-Lease-Offset"])
            follow = resp.read()
        rng = cfg.make_rng()
        rng.skip_bytes(follow_off)
        if rng.read(4096) != follow:
            fail(f"served bytes at offset {follow_off} differ from offline stream")
        print("fleet_chaos: offline skip_bytes replay bit-identical")

        with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as resp:
            exposition = resp.read().decode()
        problems = lint(exposition)
        if problems:
            fail(f"/metrics lint problems: {problems}")
        if "repro_fleet_evictions_total" not in exposition:
            fail("eviction counter missing from /metrics")
        if "repro_fleet_workers" not in exposition:
            fail("membership gauge missing from /metrics")
        print("fleet_chaos: /metrics lint clean, eviction + membership series present")

        # the evictions must have left readable flight dumps (the black
        # box written by the controller at eviction time)
        dumps = sorted(flight_dir.glob("flight-*.json"))
        if not dumps:
            fail(f"no flight dumps under {flight_dir} despite {evictions_seen} evictions")
        eviction_dumps = []
        for dump_path in dumps:
            try:
                payload = json.loads(dump_path.read_text())
            except json.JSONDecodeError as exc:
                fail(f"unreadable flight dump {dump_path}: {exc}")
            if payload.get("reason") == "eviction" and any(
                e.get("kind") == "eviction" for e in payload.get("entries", [])
            ):
                eviction_dumps.append(dump_path)
        if not eviction_dumps:
            fail(f"none of {len(dumps)} flight dumps records an eviction")
        print(
            f"fleet_chaos: {len(dumps)} flight dumps, "
            f"{len(eviction_dumps)} recording evictions"
        )

        # one focused multi-chunk request whose trace we verify post-exit
        # (4 chunks spread over the live members by least-loaded dispatch)
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/bytes?n=65536", timeout=60
        ) as resp:
            focus_trace_id = resp.headers["X-Repro-Trace-Id"]
            resp.read()
        print(f"fleet_chaos: focused traced request, trace_id {focus_trace_id}")

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        if rc != 0:
            fail(f"daemon exited {rc} after SIGTERM (expected graceful 0)")
        print("fleet_chaos: graceful drain, exit 0")

        # the daemon wrote its Chrome trace on the way out: one request's
        # spans must stitch daemon + controller + >= 2 worker processes
        if not trace_path.exists():
            fail(f"daemon left no trace file at {trace_path}")
        events = json.loads(trace_path.read_text())["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        focus = [e for e in spans if e["args"].get("trace_id") == focus_trace_id]
        if not focus:
            fail(f"trace file has no spans for trace_id {focus_trace_id}")
        names = {e["name"] for e in focus}
        for required in ("serve.request", "serve.chunk", "fleet.worker_chunk"):
            if required not in names:
                fail(f"focused trace is missing a {required} span (has {sorted(names)})")
        daemon_pids = {
            e["pid"] for e in focus if e["name"] in ("serve.request", "serve.chunk")
        }
        worker_pids = {e["pid"] for e in focus if e["name"] == "fleet.worker_chunk"}
        if len(worker_pids) < 2:
            fail(f"focused trace spans only {len(worker_pids)} worker process(es)")
        if worker_pids & daemon_pids:
            fail("worker chunk spans claim the daemon's pid — merge mislabelled")
        span_ids = {e["args"].get("span_id") for e in focus}
        for e in focus:
            parent = e["args"].get("parent_id")
            if parent is not None and parent not in span_ids:
                fail(f"span {e['name']} has unresolvable parent {parent}")
        print(
            f"fleet_chaos: trace stitched — daemon pid {sorted(daemon_pids)}, "
            f"{len(worker_pids)} worker pids, {len(focus)} spans, parent links OK"
        )
        print("fleet_chaos: OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    raise SystemExit(main())
