"""Worker fleet: heartbeat-supervised, fixed-size membership over a transport.

The paper's multi-GPU measurements (§VI, 2–8 devices) assume every
device is healthy for the whole run.  This package generalises the
scale-out to *supervised membership*, so work survives workers that
die, hang, or silently degrade.  It is the one way work runs in worker
processes: the serve daemon keeps a long-lived fleet, and every batch
layer (:mod:`repro.gpu.multigpu`, :mod:`repro.nist.parallel`) runs its
partitions as jobs on an ephemeral one through
:class:`~repro.robust.supervisor.PartitionSupervisor`.

* :mod:`repro.fleet.transport` — the message plane: worker
  registration, periodic heartbeats, job dispatch and results, behind a
  :class:`~repro.fleet.transport.Transport` interface.  The shipped
  implementation runs local processes, one duplex pipe each
  (:class:`LocalProcessTransport`);
  the interface is message-passing end to end, so a socket transport for
  remote hosts slots in without touching the controller.
* :mod:`repro.fleet.worker` — the long-lived worker loop: register,
  heartbeat on an interval, run jobs — counter-space ranges through a
  cached :class:`~repro.serve.engine.RangeSource` front, or a
  partition's body — and honour ``REPRO_FAULT_PLAN`` faults (heartbeat
  silence, slow-bleed corruption, ...) for deterministic chaos drills.
* :mod:`repro.fleet.controller` — :class:`FleetController`:
  deadline-based liveness over the heartbeats, CRC receipt
  verification, eviction with **job reassignment** (job ids are never
  reissued and each is accepted at most once, so the merged output
  stays bit-identical to a single-device run), relaunch within an
  eviction budget, and inline degradation when the whole fleet is gone.
  The fleet has a fixed size and starts no thread: whoever waits for a
  result pumps it.

Everything the controller observes is published through :mod:`repro.obs`
(`repro_fleet_workers`, `repro_fleet_evictions_total`, ...), and
:class:`~repro.serve.engine.ServeEngine` serves every chunk through a
fleet (``repro serve --workers N``).  See DESIGN.md §13.
"""

from repro.fleet.controller import FleetConfig, FleetController, FleetEvent, WorkerInfo
from repro.fleet.transport import (
    ChunkJob,
    LocalProcessTransport,
    Message,
    Transport,
    WorkerSpec,
)

__all__ = [
    "ChunkJob",
    "FleetConfig",
    "FleetController",
    "FleetEvent",
    "LocalProcessTransport",
    "Message",
    "Transport",
    "WorkerInfo",
    "WorkerSpec",
]
