"""RNG-as-a-service: lease-partitioned streaming daemon over BSRNG.

The subsystem has three layers (see ``DESIGN.md`` §12):

* :mod:`repro.serve.leases` — counter-space allocation: every client
  gets a deterministic, never-reissued ``[offset, offset+length)``
  slice of the one logical stream, journaled for crash-safe resume.
* :mod:`repro.serve.engine` — turns ``(offset, n)`` into bytes through a
  heartbeat-supervised worker fleet (:mod:`repro.fleet`: CRC receipts,
  liveness eviction, lease reassignment, inline degrade once the
  eviction budget is spent), then SP 800-90B output screening from
  :mod:`repro.robust.health`.
* :mod:`repro.serve.daemon` — the asyncio HTTP front end: streaming
  responses with bounded-queue backpressure, ``/healthz`` gating,
  ``/metrics`` exposition, graceful SIGTERM drain.

Client-side, :mod:`repro.serve.loadgen` provides the async load
generator behind ``benchmarks/bench_serve_load.py``.
"""

from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.serve.engine import EngineStats, HealthState, ServeEngine, StreamConfig
from repro.serve.leases import Lease, LeaseManager
from repro.serve.loadgen import LoadResult, run_load

__all__ = [
    "LoadResult",
    "run_load",
    "DaemonConfig",
    "ServeDaemon",
    "EngineStats",
    "HealthState",
    "ServeEngine",
    "StreamConfig",
    "Lease",
    "LeaseManager",
]
