"""Fault tolerance: health-tested generators and supervised scale-out.

Production RNG deployments gate output with startup/continuous health
tests (SP 800-90B, FIPS 140-2) and survive device failure.  This package
adds both layers to the reproduction:

* :mod:`repro.robust.health` — streaming Repetition Count / Adaptive
  Proportion tests, the one health latch (:class:`HealthState`) and
  the :class:`HealthMonitoredBSRNG` wrapper;
* :mod:`repro.robust.supervisor` — attempt-budget/timeout/CRC/degrade
  supervision of partition fan-outs over an ephemeral worker fleet;
* :mod:`repro.robust.faults` — a deterministic fault-injection harness
  exercising every recovery path without flakiness.
"""

from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan, InjectedCrash, StuckBSRNG
from repro.robust.health import (
    AdaptiveProportionTest,
    HealthEvent,
    HealthMonitoredBSRNG,
    HealthScreen,
    HealthState,
    RepetitionCountTest,
    apt_cutoff,
    rct_cutoff,
    startup_self_test,
)
from repro.robust.supervisor import (
    PartitionEvent,
    PartitionSupervisor,
    SupervisorConfig,
    SupervisorReport,
    payload_crc,
)

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "StuckBSRNG",
    "FAULT_PLAN_ENV",
    "AdaptiveProportionTest",
    "RepetitionCountTest",
    "HealthEvent",
    "HealthMonitoredBSRNG",
    "HealthScreen",
    "HealthState",
    "rct_cutoff",
    "apt_cutoff",
    "startup_self_test",
    "PartitionEvent",
    "PartitionSupervisor",
    "SupervisorConfig",
    "SupervisorReport",
    "payload_crc",
]
