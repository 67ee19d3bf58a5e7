"""Parallel NIST battery — the paper's Table 3 workload at scale.

``run_suite`` walks ``n_sequences × 15 tests`` in one Python loop; at
the gigabit workloads the fused kernels generate, *validating* the
output costs orders of magnitude more than producing it.  But a battery
is embarrassingly parallel — sts-2.1.2 and paranoid_crypto both treat it
as an independent map over (sequence, test) — so this module shards it
across a supervised worker fleet:

* **Shard layout** — :func:`plan_shards` cuts the work into
  ``(sequence chunk) × (test group)`` units.  Sequence chunks alone
  saturate the fleet when there are enough sequences; when there are
  fewer sequences than workers the planner also splits the tests into
  cost-balanced groups (LinearComplexity dwarfs everything else), so
  even a 2-sequence battery fans out.
* **Counter-space sequence partitioning** — a worker never receives
  bits.  It builds its own :class:`~repro.core.generator.BSRNG` from the
  job's :class:`~repro.serve.engine.StreamConfig` and seeks to its chunk with
  :meth:`~repro.core.generator.BSRNG.skip_bytes` — sequence *i* owns
  bytes ``[i·⌈n_bits/8⌉, (i+1)·⌈n_bits/8⌉)`` of the stream, exactly the
  bytes the sequential battery would have drawn — so gigabits of input
  never cross a pickle boundary, and the merged report is bit-identical
  to :func:`~repro.nist.suite.run_suite` on the same seed.
* **Supervision** — each shard is a body job (:func:`_shard_body`) on an
  ephemeral fleet of ``workers`` members, run by a
  :class:`~repro.robust.supervisor.PartitionSupervisor`: heartbeat
  deadline, an attempt budget, CRC verification of the (JSON) result
  payload, and degradation to in-process execution once a shard's
  attempts are spent.  Because a shard is a pure function of
  ``(seed, seq_start, n_seqs, tests)``, a retried shard reproduces its
  p-values exactly and recovery never perturbs the aggregate.
* **Telemetry** — the parent counts ``repro_nist_shards_total``; each
  worker times every test into the ``repro_nist_test_seconds`` histogram
  (label ``test=<name>``) in a scoped registry that ships back with
  the shard's result and merges parent-side with a ``shard`` label.

The merged :class:`~repro.nist.suite.SuiteReport` carries the
:class:`~repro.robust.supervisor.SupervisorReport` in its
``supervision`` field, so callers can see retries and degradation
without a side channel.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro import obs
from repro.errors import PartitionCorruptionError, SpecificationError
from repro.nist.suite import ALL_TESTS, SuiteReport, summarize_pvalues
from repro.obs.tracing import span
from repro.robust.supervisor import PartitionSupervisor, SupervisorConfig

if TYPE_CHECKING:
    from repro.serve.engine import StreamConfig

__all__ = [
    "Shard",
    "TEST_COST",
    "plan_shards",
    "run_suite_parallel",
    "run_suite_sequential",
]

#: Relative wall-cost of each test on a fixed-length sequence (measured
#: on 100k-bit inputs, normalised to Frequency = 1).  Only the *ratios*
#: matter: the planner uses them to cost-balance test groups so no shard
#: is stuck with all of LinearComplexity while another runs three
#: sub-millisecond counting tests.
TEST_COST: dict[str, float] = {
    "Frequency": 1,
    "BlockFrequency": 1,
    "CumulativeSums": 6,
    "Runs": 1,
    "LongestRun": 5,
    "Rank": 4,
    "FFT": 3,
    "NonOverlappingTemplate": 1,
    "OverlappingTemplate": 1,
    "Universal": 4,
    "ApproximateEntropy": 4,
    "RandomExcursions": 2,
    "RandomExcursionsVariant": 2,
    "Serial": 7,
    "LinearComplexity": 480,
}


@dataclass(frozen=True)
class Shard:
    """One work unit: a contiguous sequence chunk × a test group."""

    shard_id: int
    seq_start: int
    n_seqs: int
    tests: tuple[str, ...]


def _resolve_names(tests) -> list[str]:
    """Validate a test selection down to names, battery column order.

    ``None`` keeps the historical default — exactly the
    :data:`~repro.nist.suite.ALL_TESTS` members — so default batteries
    are unaffected by whatever plugins the environment discovers.  An
    explicit selection may additionally name any battery-capable plugin
    from the QA registry (:func:`repro.qa.registry.battery_order`);
    shards resolve those names through
    :func:`repro.qa.registry.resolve_battery_plugin` worker-side.
    """
    if tests is None:
        return list(ALL_TESTS)
    names = list(tests)
    if not names:
        raise SpecificationError("no tests selected")
    from repro.qa.registry import battery_order

    order = battery_order()
    unknown = [n for n in names if n not in order]
    if unknown:
        raise SpecificationError(
            f"unknown tests {unknown}; parallel batteries run battery-capable "
            f"plugins (picklable by name): {sorted(order)}"
        )
    return [n for n in order if n in set(names)]


def plan_shards(
    n_sequences: int,
    tests: Iterable[str] | None = None,
    workers: int = 4,
    *,
    seqs_per_shard: int | None = None,
    test_groups: int | None = None,
) -> list[Shard]:
    """Cut a battery into ``(sequence chunk) × (test group)`` shards.

    Defaults aim for ~2 shards per worker (retry granularity and load
    balancing) while splitting tests only when sequence chunks alone
    cannot fill the fleet: ``test_groups`` defaults to
    ``ceil(2·workers / n_chunks)``, i.e. 1 whenever there are at least
    twice as many sequence chunks as workers.  Test groups are balanced
    by :data:`TEST_COST` with a greedy longest-processing-time pass.

    Every (sequence, test) pair lands in exactly one shard, chunks are
    contiguous and disjoint, and the layout is a pure function of its
    arguments — a retried shard is the same shard.
    """
    if n_sequences <= 0:
        raise SpecificationError("n_sequences must be positive")
    if workers <= 0:
        raise SpecificationError("workers must be positive")
    names = _resolve_names(tests)
    if seqs_per_shard is None:
        n_chunks = min(n_sequences, 2 * workers)
        seqs_per_shard = -(-n_sequences // n_chunks)
    if seqs_per_shard <= 0:
        raise SpecificationError("seqs_per_shard must be positive")
    n_chunks = -(-n_sequences // seqs_per_shard)
    if test_groups is None:
        test_groups = -(-(2 * workers) // n_chunks)
    test_groups = max(1, min(int(test_groups), len(names)))
    # greedy LPT: heaviest test first, into the lightest group
    order = sorted(range(len(names)), key=lambda i: (-TEST_COST.get(names[i], 1.0), i))
    members: list[set[int]] = [set() for _ in range(test_groups)]
    loads = [0.0] * test_groups
    for i in order:
        g = loads.index(min(loads))
        members[g].add(i)
        loads[g] += TEST_COST.get(names[i], 1.0)
    groups = [tuple(names[i] for i in sorted(m)) for m in members if m]
    shards = []
    for start in range(0, n_sequences, seqs_per_shard):
        count = min(seqs_per_shard, n_sequences - start)
        for g in groups:
            shards.append(Shard(len(shards), start, count, g))
    return shards


def _shard_body(
    stream: StreamConfig,
    shard_id: int,
    seq_start: int,
    n_seqs: int,
    n_bits: int,
    test_names: tuple[str, ...],
) -> bytes:
    """Run one shard: the body of a battery partition.

    Builds the shard's own generator from *stream*, seeks to its
    sequence chunk via ``skip_bytes`` and runs its test group over each
    sequence.  Returns a canonical JSON encoding of ``{test: {p_values,
    dropped, reason}}`` — bytes, so the CRC receipt and the fault plan's
    corruption injection act on it exactly like a generation payload.
    Per-test timings land in the attempt's metrics scope.
    """
    from repro.qa.registry import resolve_battery_plugin

    # name -> plugin via the registry; ALL_TESTS stays the live primitive
    # (a runtime-patched entry resolves to the patched callable, exactly
    # as the historical dict lookup did)
    plugins = [resolve_battery_plugin(name) for name in test_names]
    out: dict[str, dict] = {
        name: {"p_values": [], "dropped": 0, "reason": ""} for name in test_names
    }
    with span("nist.shard", shard=shard_id):
        rng = stream.make_rng()
        seq_bytes = -(-n_bits // 8)
        with span("nist.shard_seek", shard=shard_id, skip_bytes=seq_start * seq_bytes):
            rng.skip_bytes(seq_start * seq_bytes)
        for _ in range(n_seqs):
            bits = rng.random_bits(n_bits)
            for plugin in plugins:
                t0 = time.perf_counter()
                try:
                    result = plugin.run(bits)
                finally:
                    obs.observe(
                        "repro_nist_test_seconds",
                        time.perf_counter() - t0,
                        test=plugin.name,
                    )
                rec = out[plugin.name]
                if not result.ok:
                    rec["dropped"] += 1
                    if not rec["reason"]:
                        rec["reason"] = result.reason
                    continue
                rec["p_values"].extend(result.p_values)
    obs.inc("repro_nist_shard_sequences_total", n_seqs, shard=shard_id)
    # canonical byte form: json round-trips Python floats exactly
    # (shortest-repr), so the merged aggregates are bit-identical
    return json.dumps(out, sort_keys=True).encode()


def run_suite_sequential(
    algorithm: str = "mickey2",
    seed: int = 0,
    lanes: int = 4096,
    *,
    n_sequences: int,
    n_bits: int,
    tests: Iterable[str] | None = None,
    fused: bool | None = None,
    clocks_per_call: int = 32,
    dtype=np.uint64,
) -> SuiteReport:
    """The single-process battery the parallel runner must reproduce.

    One :class:`~repro.core.generator.BSRNG` stream, sequences drawn
    back to back — the reference both for conformance tests and for the
    speedup benchmark's denominator.
    """
    from repro.core.generator import BSRNG
    from repro.qa.battery import run_battery
    from repro.qa.registry import resolve_battery_plugin

    names = _resolve_names(tests)
    rng = BSRNG(
        algorithm, seed=seed, lanes=lanes, dtype=dtype,
        fused=fused, clocks_per_call=clocks_per_call,
    )
    return run_battery(
        lambda i: rng.random_bits(n_bits),
        n_sequences,
        [resolve_battery_plugin(n) for n in names],
    )


def run_suite_parallel(
    algorithm: str = "mickey2",
    seed: int = 0,
    lanes: int = 4096,
    *,
    n_sequences: int,
    n_bits: int,
    tests: Iterable[str] | None = None,
    workers: int = 4,
    timeout: float | None = None,
    max_retries: int = 2,
    mp_context: str | None = None,
    degrade_sequential: bool = True,
    fault_plan=None,
    seqs_per_shard: int | None = None,
    test_groups: int | None = None,
    fused: bool | None = None,
    clocks_per_call: int = 32,
    dtype=np.uint64,
) -> SuiteReport:
    """Run the battery sharded over *workers* supervised processes.

    Produces the same :class:`~repro.nist.suite.SuiteReport` aggregates
    as :func:`run_suite_sequential` with the same ``(algorithm, seed,
    lanes, n_sequences, n_bits, tests)`` — bit-identical p-value lists,
    skip reasons and drop counts — because every worker regenerates
    exactly the bytes its sequence chunk owns.

    ``tests`` is an iterable of :data:`~repro.nist.suite.ALL_TESTS`
    *names* (shard payloads must pickle; callables stay parent-side).
    ``timeout`` / ``max_retries`` / ``degrade_sequential`` are the
    :class:`~repro.robust.supervisor.SupervisorConfig` policy (every
    shard's CRC receipt is checked on arrival); a hung or crashed shard
    is retried on another fleet member and ultimately degrades to
    in-process execution rather than hanging the battery.  The fleet
    never grows past *workers* members.  ``fault_plan`` threads a
    :class:`~repro.robust.faults.FaultPlan` into the shard workers
    (shard ids are the partition ids), and the ``REPRO_FAULT_PLAN`` env
    var reaches spawn-context workers too.
    """
    if n_bits <= 0:
        raise SpecificationError("n_bits must be positive")
    if workers <= 0:
        raise SpecificationError("workers must be positive")
    names = _resolve_names(tests)
    shards = plan_shards(
        n_sequences, names, workers,
        seqs_per_shard=seqs_per_shard, test_groups=test_groups,
    )
    from repro.serve.engine import StreamConfig  # repro.serve builds on this package

    stream = StreamConfig(
        algorithm, seed, lanes, np.dtype(dtype).name, fused=fused, clocks_per_call=clocks_per_call
    )
    jobs = {
        s.shard_id: (stream, s.shard_id, s.seq_start, s.n_seqs, n_bits, s.tests)
        for s in shards
    }
    config = SupervisorConfig(
        timeout=timeout,
        max_retries=max_retries,
        degrade_sequential=degrade_sequential,
        processes=workers,
    )
    supervisor = PartitionSupervisor(
        _shard_body, mp_context, config, stream=stream, fault_plan=fault_plan
    )
    t0 = time.perf_counter()
    with span(
        "nist.parallel_suite",
        algo=algorithm,
        sequences=n_sequences,
        bits=n_bits,
        shards=len(jobs),
        workers=workers,
    ):
        raw = supervisor.run(jobs, parallel=workers > 1 and len(jobs) > 1)
    wall = time.perf_counter() - t0
    obs.inc("repro_nist_shards_total", len(jobs), algorithm=algorithm)
    obs.set_gauge("repro_nist_parallel_workers", workers, algorithm=algorithm)
    obs.observe("repro_nist_battery_seconds", wall, algorithm=algorithm)
    if obs.metrics_enabled():
        for pid, snap in sorted(supervisor.report.worker_metrics.items()):
            obs.registry().merge(snap, extra_labels={"shard": pid})

    # -- parent-side merge: battery order is (sequence outer, test inner),
    # so concatenating each test's chunks by ascending seq_start restores
    # exactly the p-value order the sequential loop would have produced.
    collected: dict[str, list[float]] = {name: [] for name in names}
    dropped: dict[str, int] = {name: 0 for name in names}
    reasons: dict[str, str] = {}
    for s in sorted(shards, key=lambda s: (s.seq_start, s.shard_id)):
        try:
            decoded = json.loads(raw[s.shard_id].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PartitionCorruptionError(
                f"shard {s.shard_id}: undecodable result payload ({exc})"
            ) from None
        for name in s.tests:
            rec = decoded[name]
            collected[name].extend(rec["p_values"])
            dropped[name] += rec["dropped"]
            if rec["reason"] and name not in reasons:
                reasons[name] = rec["reason"]

    report = SuiteReport(
        n_sequences=n_sequences, n_bits=n_bits, supervision=supervisor.report
    )
    for name in names:
        if collected[name]:
            report.per_test[name] = summarize_pvalues(collected[name])
        else:
            report.skipped[name] = reasons.get(name, "no data")
        if dropped[name]:
            report.errors[name] = dropped[name]
    return report
