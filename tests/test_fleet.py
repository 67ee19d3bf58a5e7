"""Fleet controller unit tests: membership, liveness deadlines, eviction,
lease reassignment and at-most-once acceptance — all driven through a fake
transport and a fake clock, so every race is a deterministic sequence of
messages and deadline checks rather than a sleep."""

import threading
from collections import defaultdict, deque
from dataclasses import replace

import pytest

from repro import obs
from repro.errors import DeviceFailureError, SpecificationError
from repro.fleet import (
    ChunkJob,
    FleetConfig,
    FleetController,
    Message,
    Transport,
    WorkerSpec,
)
from repro.fleet.controller import EVENTS_KEPT
from repro.obs.dashboard import gauge_value
from repro.robust.supervisor import payload_crc
from repro.serve.engine import RangeSource, StreamConfig


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class FakeTransport(Transport):
    """Records everything; delivers whatever messages the test scripts."""

    def __init__(self) -> None:
        self.launched: list[int] = []
        self.sent: dict[int, list] = defaultdict(list)
        self.killed: list[int] = []
        self.alive_map: dict[int, bool] = {}
        self.queue: list[Message] = []
        self.closed = False

    def launch(self, worker_id: int) -> None:
        self.launched.append(worker_id)
        self.alive_map[worker_id] = True

    def send_job(self, worker_id: int, job) -> None:
        self.sent[worker_id].append(job)

    def poll(self, timeout: float) -> list[Message]:
        msgs, self.queue = self.queue, []
        return msgs

    def alive(self, worker_id: int) -> bool:
        return self.alive_map.get(worker_id, False)

    def kill(self, worker_id: int) -> None:
        self.killed.append(worker_id)
        self.alive_map[worker_id] = False

    def close(self) -> None:
        self.closed = True


STREAM = StreamConfig(algorithm="xorwow", seed=11, lanes=64)
SOURCE = RangeSource(STREAM, max_streams=4)


def stream_bytes(offset: int, n: int) -> bytes:
    return SOURCE.read_range(offset, n)


def make_fleet(**overrides):
    defaults = dict(
        workers=2,
        heartbeat_interval=1.0,
        heartbeat_timeout=5.0,
        chunk_bytes=256,
    )
    defaults.update(overrides)
    clock = FakeClock()
    transport = FakeTransport()
    ctrl = FleetController(
        STREAM, FleetConfig(**defaults), transport=transport, clock=clock
    )
    ctrl.start()
    return ctrl, transport, clock


def register_all(ctrl, transport, clock):
    for wid in list(transport.launched):
        ctrl.handle_message(Message("register", wid), clock.now)


def result_msg(job: ChunkJob, worker_id: int, payload: bytes | None = None) -> Message:
    data = stream_bytes(job.offset, job.length) if payload is None else payload
    return Message("result", worker_id, job_id=job.job_id, payload=data, crc=payload_crc(data))


class TestConfigValidation:
    def test_defaults_valid(self):
        FleetConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(workers=0),
            dict(heartbeat_interval=0.0),
            dict(heartbeat_timeout=0.5, heartbeat_interval=1.0),
            dict(chunk_bytes=0),
            dict(max_inflight_per_worker=0),
            dict(max_strikes=0),
            dict(max_evictions=-1),
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(SpecificationError):
            FleetConfig(**kw)

    def test_chunk_job_validation(self):
        with pytest.raises(SpecificationError):
            ChunkJob(0, -1, 10)
        with pytest.raises(SpecificationError):
            ChunkJob(0, 0, 0)
        # a body without a partition would run as an empty range job
        with pytest.raises(SpecificationError):
            ChunkJob(0, body=len, args=(b"x",))
        assert ChunkJob(0, body=len, args=(b"x",), partition=0).length == 0

    def test_message_kind_validation(self):
        with pytest.raises(SpecificationError):
            Message("gossip", 0)

    def test_worker_spec_validation(self):
        with pytest.raises(SpecificationError):
            WorkerSpec(heartbeat_interval=0.0)


class TestMembership:
    def test_start_launches_target(self):
        ctrl, transport, clock = make_fleet(workers=3)
        assert transport.launched == [0, 1, 2]
        assert all(m.state == "launching" for m in ctrl.members.values())
        register_all(ctrl, transport, clock)
        assert all(m.state == "live" for m in ctrl.members.values())
        ctrl.close()
        assert transport.closed

    def test_start_starts_no_thread(self):
        """The fleet is pumped by whoever waits: starting it launches
        members and nothing else."""
        before = set(threading.enumerate())
        ctrl, transport, clock = make_fleet()
        assert transport.launched == [0, 1]
        assert set(threading.enumerate()) == before
        ctrl.close()

    def test_unknown_worker_messages_ignored(self):
        ctrl, transport, clock = make_fleet()
        ctrl.handle_message(Message("register", 99), clock.now)
        ctrl.handle_message(Message("heartbeat", 99), clock.now)
        assert 99 not in ctrl.members
        ctrl.close()


class TestLivenessDeadlines:
    def test_register_but_never_heartbeat_evicted(self):
        """A member that registers and then goes silent is evicted at the
        deadline — registration is a sign of life, not a lifetime pass."""
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        clock.advance(5.0)  # exactly the timeout: strictly-greater survives
        ctrl.check_liveness(clock.now)
        assert ctrl.members[0].state == "live"
        clock.advance(0.001)
        ctrl.check_liveness(clock.now)
        assert ctrl.members[0].state == "evicted"
        assert ctrl.members[0].evicted_reason == "heartbeat"
        assert 0 in transport.killed
        ctrl.close()

    def test_never_registers_evicted_from_launch_time(self):
        ctrl, transport, clock = make_fleet()
        clock.advance(5.001)
        ctrl.check_liveness(clock.now)
        assert all(m.state == "evicted" for m in list(ctrl.members.values())[:2])
        ctrl.close()

    def test_heartbeat_exactly_at_deadline_survives(self):
        """The racing heartbeat: processed before the deadline check with
        the same `now`, so landing exactly at the deadline keeps the
        member alive for a further full timeout."""
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        clock.advance(5.0)
        ctrl.handle_message(Message("heartbeat", 0), clock.now)
        ctrl.check_liveness(clock.now)
        assert ctrl.members[0].state == "live"
        assert ctrl.members[0].heartbeats == 1
        # the other member got no heartbeat: next tick evicts only it
        clock.advance(0.5)
        ctrl.check_liveness(clock.now)
        assert ctrl.members[0].state == "live"
        assert ctrl.members[1].state == "evicted"
        ctrl.close()

    def test_partition_dispatch_restarts_deadline(self):
        """A member computes silently: a partition sent to an idle member
        gets the full timeout from its dispatch; a served chunk does not."""
        ctrl, transport, clock = make_fleet(workers=2)
        register_all(ctrl, transport, clock)
        clock.advance(4.0)
        ctrl.submit([ChunkJob(0, 0, 256, partition=0)])
        ctrl.submit_range(0, 256)
        clock.advance(4.0)  # 8 s past registration, 4 s past dispatch
        ctrl.check_liveness(clock.now)
        states = {wid: m.state for wid, m in ctrl.members.items()}
        partition_owner = next(w for w, sent in transport.sent.items() if sent[0].partition == 0)
        assert states[partition_owner] == "live"
        assert states[1 - partition_owner] == "evicted"
        clock.advance(1.001)  # now past the partition's own deadline
        ctrl.check_liveness(clock.now)
        assert ctrl.members[partition_owner].evicted_reason == "heartbeat"
        ctrl.close()

    def test_dead_carrier_evicted_as_crash(self):
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        transport.alive_map[1] = False
        ctrl.check_liveness(clock.now)
        assert ctrl.members[1].state == "evicted"
        assert ctrl.members[1].evicted_reason == "crash"
        ctrl.close()


class TestLeaseReassignment:
    def test_eviction_requeues_inflight_to_peer(self):
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        jobs = ctrl.submit_range(0, 256)
        (job,) = jobs
        owner = next(
            wid for wid, sent in transport.sent.items() if job in sent
        )
        peer = 1 - owner
        clock.advance(6.0)  # owner never heartbeats again
        ctrl.handle_message(Message("heartbeat", peer), clock.now)
        ctrl.check_liveness(clock.now)
        ctrl.reconcile(clock.now)
        assert ctrl.members[owner].state == "evicted"
        assert ctrl.reassignments == 1
        # the job moved as its next attempt, not as a new job
        assert replace(job, attempt=1) in transport.sent[peer]
        ctrl.handle_message(result_msg(job, peer), clock.now)
        assert ctrl.try_collect(jobs) == stream_bytes(0, 256)
        ctrl.close()

    def test_job_ids_never_reissued(self):
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        first = ctrl.submit_range(0, 1024)
        second = ctrl.submit_range(1024, 1024)
        ids = [j.job_id for j in first + second]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)
        # the dispatched jobs cover exactly the 2048 submitted bytes
        assert [(j.offset, j.length) for j in first + second] == [
            (offset, 256) for offset in range(0, 2048, 256)
        ]
        ctrl.close()


class TestAtMostOnceAcceptance:
    def test_late_result_from_evicted_worker_is_stale(self):
        """Eviction racing a completing job, eviction first: the old
        owner's result must not land — the lease was reassigned."""
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        peer = 1 - owner
        clock.advance(6.0)
        ctrl.handle_message(Message("heartbeat", peer), clock.now)
        ctrl.check_liveness(clock.now)
        ctrl.reconcile(clock.now)  # job now assigned to peer
        # the evicted owner finished anyway and its result arrives late
        ctrl.handle_message(result_msg(job, owner), clock.now)
        assert ctrl.stale_results == 1
        assert ctrl.try_collect([job]) is None  # not accepted from the ghost
        ctrl.handle_message(result_msg(job, peer), clock.now)
        assert ctrl.try_collect([job]) == stream_bytes(0, 256)
        assert ctrl.jobs_completed == 1
        ctrl.close()

    def test_duplicate_result_after_acceptance_is_stale(self):
        """Eviction racing a completing job, result first: acceptance
        wins, the duplicate (and the eviction) change nothing."""
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        ctrl.handle_message(result_msg(job, owner), clock.now)
        assert ctrl.jobs_completed == 1
        ctrl.handle_message(result_msg(job, owner), clock.now)  # duplicate
        assert ctrl.stale_results == 1
        assert ctrl.jobs_completed == 1
        # evicting the owner afterwards must not resurrect the job
        clock.advance(6.0)
        ctrl.check_liveness(clock.now)
        assert ctrl.members[owner].state == "evicted"
        assert ctrl.reassignments == 0
        assert ctrl.try_collect([job]) == stream_bytes(0, 256)
        ctrl.close()


class TestBoundedBookkeeping:
    def test_per_job_state_is_bounded_by_the_jobs_in_flight(self):
        """Thousands of jobs accepted, duplicated, cancelled in flight
        and cancelled after acceptance leave no per-job trace once each
        is settled: a long-running daemon's controller does not grow."""
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)

        def owner(job: ChunkJob) -> int:
            return next(wid for wid, sent in transport.sent.items() if sent[-1] == job)

        rounds = 1500
        for k in range(rounds):
            a, b = jobs = ctrl.submit_range(k * 512, 512)  # one job per member
            if k % 3 == 0:  # accepted, collected, then a duplicate result
                for job in jobs:
                    ctrl.handle_message(result_msg(job, owner(job)), clock.now)
                assert ctrl.try_collect(jobs) == stream_bytes(k * 512, 512)
                ctrl.handle_message(result_msg(a, owner(a)), clock.now)
            elif k % 3 == 1:  # cancelled in flight, then the late results
                owners = [owner(job) for job in jobs]
                ctrl.cancel(jobs)
                for job, wid in zip(jobs, owners):
                    ctrl.handle_message(result_msg(job, wid), clock.now)
            else:  # one accepted, the pair cancelled, the other's result late
                wid_b = owner(b)
                ctrl.handle_message(result_msg(a, owner(a)), clock.now)
                ctrl.cancel(jobs)
                ctrl.handle_message(result_msg(b, wid_b), clock.now)
            assert ctrl.try_collect(jobs) is None  # collected once, or never
        kinds = [len(range(kind, rounds, 3)) for kind in range(3)]
        assert ctrl.jobs_completed == 2 * kinds[0] + kinds[2]
        assert ctrl.stale_results == kinds[0] + 2 * kinds[1] + kinds[2]
        sizes = {
            name: len(value)
            for name, value in vars(ctrl).items()
            if isinstance(value, (set, dict, list, deque))
        }
        assert len(ctrl.events) == EVENTS_KEPT
        assert max(sizes.values()) <= EVENTS_KEPT, sizes
        for name in ("_pending", "_assigned", "_results", "_result_metrics", "_cancelled"):
            assert sizes[name] == 0, sizes
        # the members still hold nothing and take new work
        assert all(not m.inflight for m in ctrl.members.values())
        (job,) = ctrl.submit_range(0, 256)
        ctrl.handle_message(result_msg(job, owner(job)), clock.now)
        assert ctrl.try_collect([job]) == stream_bytes(0, 256)
        ctrl.close()


class TestReceiptsAndScreening:
    def test_crc_strikes_then_corrupt_eviction(self):
        ctrl, transport, clock = make_fleet(max_strikes=2)
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        good = stream_bytes(0, 256)
        bad = Message(
            "result", owner, job_id=job.job_id,
            payload=good[:-1] + bytes([good[-1] ^ 1]), crc=payload_crc(good),
        )
        ctrl.handle_message(bad, clock.now)
        assert ctrl.members[owner].strikes == 1
        assert ctrl.members[owner].state == "live"  # one flip is retryable
        ctrl.reconcile(clock.now)  # requeued job goes back out
        owner2 = next(
            wid for wid, sent in transport.sent.items()
            if sent and sent[-1] == job and ctrl.members[wid].state == "live"
        )
        ctrl.handle_message(
            Message("result", owner2, job_id=job.job_id,
                    payload=bad.payload, crc=bad.crc),
            clock.now,
        )
        struck = ctrl.members[owner2]
        assert struck.state == "evicted" or struck.strikes >= 1
        ctrl.close()

    def test_stuck_output_with_valid_crc_is_accepted(self):
        """The fleet does not screen: constant bytes with a *valid* CRC
        are the member's verified output, accepted as they are (the
        service latch is the one screen on a served byte)."""
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        wedged = b"\x00" * 256
        ctrl.handle_message(
            Message("result", owner, job_id=job.job_id,
                    payload=wedged, crc=payload_crc(wedged)),
            clock.now,
        )
        assert ctrl.members[owner].state == "live"
        assert ctrl.evictions == 0
        assert ctrl.try_collect([job]) == wedged
        ctrl.close()

    def test_short_payload_is_a_strike(self):
        ctrl, transport, clock = make_fleet(max_strikes=1)
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        ctrl.handle_message(
            Message("result", owner, job_id=job.job_id, payload=b"xy", crc=payload_crc(b"xy")),
            clock.now,
        )
        assert ctrl.members[owner].state == "evicted"
        assert ctrl.members[owner].evicted_reason == "corrupt"
        ctrl.close()


class TestElasticity:
    def test_backlog_never_grows_the_membership(self):
        """The fleet has a fixed size: 64 queued chunks wait for the two
        members (cap 2 in flight each), they do not add a third."""
        ctrl, transport, clock = make_fleet(workers=2)
        register_all(ctrl, transport, clock)
        ctrl.submit_range(0, 256 * 64)
        for _ in range(5):
            clock.advance(1.0)
            for wid in transport.launched:
                ctrl.handle_message(Message("heartbeat", wid), clock.now)
            ctrl.pump()
        assert len(transport.launched) == 2
        assert ctrl.target == 2
        assert ctrl.status()["pending_jobs"] == 64 - 2 * 2
        ctrl.close()

    def test_replacement_launch_after_eviction(self):
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        clock.advance(6.0)
        ctrl.handle_message(Message("heartbeat", 0), clock.now)
        ctrl.check_liveness(clock.now)
        ctrl.reconcile(clock.now)
        assert len(transport.launched) == 3  # worker 2 replaces worker 1
        assert ctrl.members[2].state == "launching"
        ctrl.close()

    def test_eviction_budget_stops_relaunch(self):
        ctrl, transport, clock = make_fleet(workers=2, max_evictions=1)
        register_all(ctrl, transport, clock)
        clock.advance(6.0)  # both silent: 2 evictions > budget of 1
        ctrl.check_liveness(clock.now)
        ctrl.reconcile(clock.now)
        assert ctrl.evictions == 2
        assert len(transport.launched) == 2  # no replacements
        ctrl.close()


class TestDegradedMode:
    def test_inline_degrade_serves_bit_identical(self):
        ctrl, transport, clock = make_fleet(workers=2, max_evictions=0)
        register_all(ctrl, transport, clock)
        jobs = ctrl.submit_range(0, 1024)
        clock.advance(6.0)  # everyone dies, budget already spent
        ctrl.check_liveness(clock.now)
        data = ctrl.read_range(1024, 512, timeout=5.0)
        assert data == stream_bytes(1024, 512)
        assert ctrl.degraded_chunks > 0
        # the originally submitted jobs also finish inline on collection
        out = ctrl.read_range(2048, 256, timeout=5.0)
        assert out == stream_bytes(2048, 256)
        ctrl.close()

    def test_degrade_disabled_raises(self):
        ctrl, transport, clock = make_fleet(workers=2, max_evictions=0, degrade_inline=False)
        register_all(ctrl, transport, clock)
        clock.advance(6.0)
        ctrl.check_liveness(clock.now)
        with pytest.raises(DeviceFailureError):
            ctrl.read_range(0, 256, timeout=5.0)
        ctrl.close()

    def test_ghost_result_after_requeue_is_stale(self):
        """Once an eviction pushed the job back to pending, the dead
        owner's late result must be dropped — the lease will be served
        by whoever picks it up next, exactly once."""
        ctrl, transport, clock = make_fleet(workers=2, max_evictions=0)
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        clock.advance(6.0)
        ctrl.check_liveness(clock.now)  # owner evicted; job back in pending
        assert ctrl.members[owner].state == "evicted"
        ctrl.handle_message(result_msg(job, owner), clock.now)
        assert ctrl.stale_results == 1
        assert ctrl.try_collect([job]) is None
        ctrl.close()


class TestObservability:
    def test_counters_and_gauges_published(self):
        obs.enable_metrics()
        try:
            obs.registry().clear()
            ctrl, transport, clock = make_fleet()
            register_all(ctrl, transport, clock)
            job_a, job_b = ctrl.submit_range(0, 512)  # one job per member
            owner = next(wid for wid, sent in transport.sent.items() if job_a in sent)
            ctrl.handle_message(Message("heartbeat", owner), clock.now)
            ctrl.handle_message(result_msg(job_a, owner), clock.now)
            clock.advance(6.0)
            ctrl.handle_message(Message("heartbeat", owner), clock.now)
            # evicts the silent peer, reassigning its inflight job
            ctrl.check_liveness(clock.now)
            snap = obs.registry().snapshot()
            names = {m["name"] for m in snap["metrics"]}
            assert "repro_fleet_workers" in names
            assert "repro_fleet_evictions_total" in names
            assert "repro_fleet_heartbeats_total" in names
            assert "repro_fleet_jobs_total" in names
            assert "repro_fleet_lease_reassignments_total" in names
            evictions = [
                m for m in snap["metrics"]
                if m["name"] == "repro_fleet_evictions_total"
            ]
            assert sum(m["value"] for m in evictions) == ctrl.evictions == 1
            assert all(m["labels"].get("reason") for m in evictions)
            ctrl.close()
        finally:
            obs.disable_metrics()

    def test_evicted_members_bounded(self):
        """A fleet that keeps losing members keeps the present ones plus
        the most recently evicted; the evicted gauge still reports the
        total."""
        with obs.scoped() as reg:
            ctrl, transport, clock = make_fleet(max_evictions=1000)
            for _ in range(100):
                register_all(ctrl, transport, clock)
                victim = next(w for w, m in ctrl.members.items() if m.state == "live")
                transport.alive_map[victim] = False
                ctrl.check_liveness(clock.now)
                ctrl.reconcile(clock.now)  # relaunches the victim's slot
            status = ctrl.status()
            ctrl.close()
        assert ctrl.evictions == 100
        assert len(status["workers"]) <= 2 + EVENTS_KEPT
        evicted = [w["worker_id"] for w in status["workers"] if w["state"] == "evicted"]
        assert len(evicted) == EVENTS_KEPT
        assert max(evicted) == 99 and min(evicted) == 100 - EVENTS_KEPT  # the latest
        samples = [
            (m["name"], m["labels"], m["value"]) for m in reg.snapshot()["metrics"]
        ]
        assert gauge_value(samples, "repro_fleet_workers", state="evicted") == 100

    def test_status_snapshot_shape(self):
        ctrl, transport, clock = make_fleet()
        register_all(ctrl, transport, clock)
        status = ctrl.status()
        assert status["target"] == 2
        assert {w["state"] for w in status["workers"]} == {"live"}
        assert status["counters"]["evictions"] == 0
        assert "leases" not in status  # job ids are not leases
        ctrl.close()
