"""The fleet's message plane: registration, heartbeats, jobs, results.

The controller and its workers speak a small, explicit protocol — four
message kinds flowing worker → controller (``register``, ``heartbeat``,
``result``, ``bye``) and one controller → worker payload (a
:class:`ChunkJob`, or ``None`` as the graceful-stop sentinel).  The
:class:`Transport` interface carries exactly that protocol and nothing
else, so the controller never reaches around it: a worker is *only* a
stream of messages plus a liveness bit.  That is what makes the
interface socket-ready — a TCP transport for remote hosts implements the
same six methods and the controller is unchanged.  The implementation
shipped here, :class:`LocalProcessTransport`, runs each worker as a
local ``multiprocessing`` process (the same "a device is a worker
process" stance as :mod:`repro.gpu.multigpu`).

Message payloads are plain picklable values (``bytes`` payloads, int
CRCs, plain-dict metric snapshots), so the local transport works under
``spawn`` as well as ``fork`` and a remote transport can serialise them
without caring what they mean.
"""

from __future__ import annotations

import multiprocessing as mp
import selectors
import threading
from abc import ABC, abstractmethod
from contextlib import suppress
from dataclasses import dataclass, field

from repro.core.generator import import_kernel
from repro.core.ring import RingSlotRef, resolve_start_method
from repro.errors import SpecificationError
from repro.serve.engine import StreamConfig

__all__ = [
    "ChunkJob",
    "Message",
    "WorkerSpec",
    "Transport",
    "LocalProcessTransport",
]

#: Worker → controller message kinds.
MESSAGE_KINDS = ("register", "heartbeat", "result", "bye")


@dataclass(frozen=True)
class ChunkJob:
    """One counter-space chunk lease a worker generates.

    ``job_id`` is the lease id from the controller's
    :class:`~repro.serve.leases.LeaseManager` — never reissued, so
    result acceptance can be keyed on it exactly once.
    """

    job_id: int
    offset: int
    length: int
    #: Optional ``(trace_id, span_id)`` wire pair — the controller's
    #: trace context at submission, so worker spans join its trace.
    trace: tuple | None = None
    #: Shared-memory ring slot leased to this job for its result (see
    #: :mod:`repro.core.ring`); ``None`` = ship the payload as message
    #: bytes.  The controller owns the slot ↔ job mapping.
    ring_slot: int | None = None

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise SpecificationError("need offset >= 0 and length > 0")


@dataclass(frozen=True)
class Message:
    """One worker → controller protocol message."""

    kind: str  # one of MESSAGE_KINDS
    worker_id: int
    job_id: int = -1  # result messages: the ChunkJob.job_id
    payload: bytes = b""  # result messages: the generated chunk
    crc: int | None = None  # result messages: worker-side payload CRC
    metrics: dict | None = None  # result messages: worker registry snapshot
    spans: dict | None = None  # result messages: worker tracer snapshot
    detail: str = ""  # free-form (bye reason, error text)
    #: Result parked in a shared-memory ring slot instead of ``payload``
    #: (``payload`` is then empty; the controller materialises the ref
    #: before its length/CRC/screen checks).
    ref: RingSlotRef | None = None

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise SpecificationError(f"message kind must be one of {MESSAGE_KINDS}")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to run, picklable (spawn-safe).

    The fault plan travels as JSON here (same convention as the pool
    workers) so a spawn-context worker with no inherited memory still
    injects identically; ``None`` falls back to ``REPRO_FAULT_PLAN``.
    """

    stream: StreamConfig = field(default_factory=StreamConfig)
    heartbeat_interval: float = 1.0
    plan_json: str | None = None
    #: Shared-memory result ring ``(name, slot_bytes, slots)`` to attach,
    #: or ``None`` to ship payloads as message bytes (remote transports).
    ring: tuple | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise SpecificationError("heartbeat_interval must be positive")


class Transport(ABC):
    """The controller's only view of its workers.

    Implementations own the worker lifecycle (process, container, remote
    host) and move :class:`Message` / :class:`ChunkJob` values; the
    controller supplies policy (membership, liveness, eviction).  All
    methods must be thread-safe — the controller pumps from whichever
    thread reaches it first (request threads and the supervision thread).
    """

    @abstractmethod
    def launch(self, worker_id: int) -> None:
        """Start a new worker; it must send a ``register`` message."""

    @abstractmethod
    def send_job(self, worker_id: int, job: ChunkJob | None) -> None:
        """Dispatch one job (``None`` = graceful-stop sentinel)."""

    @abstractmethod
    def poll(self, timeout: float) -> list[Message]:
        """Collect pending worker messages, waiting up to *timeout* s."""

    @abstractmethod
    def alive(self, worker_id: int) -> bool:
        """Whether the worker's carrier (process, connection) still exists."""

    @abstractmethod
    def kill(self, worker_id: int) -> None:
        """Hard-stop one worker (eviction; no graceful drain)."""

    @abstractmethod
    def close(self) -> None:
        """Tear down every worker and release transport resources."""


class LocalProcessTransport(Transport):
    """Local ``multiprocessing`` workers — the in-box transport.

    One process and one duplex ``Pipe`` per worker, so a terminated
    member can break only its own pipe; :meth:`poll` selects over every
    member's connection.  :meth:`kill` unregisters a connection and
    leaves closing it to the next poll, so no select ever waits on a
    closed descriptor.  ``fork`` is preferred where available (a fixed
    ~second of import cost per spawn would swamp small jobs and slow
    eviction replacement); ``mp_context="spawn"`` exercises the
    named-segment result ring.
    """

    def __init__(self, spec: WorkerSpec, mp_context: str | None = None) -> None:
        self.spec = spec
        self.mp_context = resolve_start_method(mp_context)
        self._ctx = mp.get_context(self.mp_context)
        # replacements fork from the supervision thread while other
        # threads run: a member forked mid-import of the kernel would
        # inherit the held module lock and hang on its first job
        import_kernel(spec.stream.algorithm)
        self._procs: dict[int, mp.Process] = {}
        self._conns: dict = {}  # worker id -> the controller's Connection
        self._selector = selectors.DefaultSelector()
        self._poll_lock = threading.Lock()
        self._dead: list = []  # unregistered connections the next poll closes

    def launch(self, worker_id: int) -> None:
        from repro.fleet.worker import fleet_worker_main

        if worker_id in self._procs:
            raise SpecificationError(f"worker {worker_id} already launched")
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=fleet_worker_main,
            args=(worker_id, self.spec, child),
            daemon=True,
            name=f"fleet-worker-{worker_id}",
        )
        proc.start()
        child.close()  # the member's end lives in the member: its exit is our EOF
        self._procs[worker_id] = proc
        self._conns[worker_id] = conn
        self._selector.register(conn, selectors.EVENT_READ)

    def send_job(self, worker_id: int, job: ChunkJob | None) -> None:
        conn = self._conns.get(worker_id)
        if conn is None:
            raise SpecificationError(f"unknown worker {worker_id}")
        conn.send(job)

    def poll(self, timeout: float) -> list[Message]:
        msgs: list[Message] = []
        with self._poll_lock:
            while self._dead:
                self._dead.pop().close()
            for key, _ in self._selector.select(max(timeout, 0.0)):
                conn = key.fileobj
                try:
                    while conn.poll():  # drain without waiting
                        msgs.append(conn.recv())
                except (EOFError, OSError):
                    # the member is gone: stop selecting its end, which
                    # stays open until kill() hands it back for closing
                    with suppress(KeyError):  # unless kill() just did
                        self._selector.unregister(conn)
        return msgs

    def alive(self, worker_id: int) -> bool:
        proc = self._procs.get(worker_id)
        return proc is not None and proc.is_alive()

    def kill(self, worker_id: int) -> None:
        proc = self._procs.get(worker_id)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # SIGTERM masked or wedged: escalate
                proc.kill()
                proc.join(timeout=5.0)
        conn = self._conns.pop(worker_id, None)
        if conn is not None:
            with suppress(KeyError):  # already dropped when its EOF was polled
                self._selector.unregister(conn)
            self._dead.append(conn)

    def close(self) -> None:
        for worker_id in list(self._procs):
            self.kill(worker_id)
        self._procs.clear()
        with self._poll_lock:
            while self._dead:
                self._dead.pop().close()
            self._selector.close()
