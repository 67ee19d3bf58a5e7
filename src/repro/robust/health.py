"""SP 800-90B-style health tests, streaming and vectorised.

Hardware RNG deployments (the FPGA/optical TRNGs of paper §3) never ship
raw generator output: a *startup self-test* gates the first block and two
*continuous health tests* screen every subsequent sample.  This module
implements that gate for any :class:`~repro.core.generator.BSRNG`:

* :class:`RepetitionCountTest` — SP 800-90B §4.4.1.  Fails when any byte
  value repeats ``cutoff`` or more times in a row.  Catches stuck-at
  faults within a handful of samples.
* :class:`AdaptiveProportionTest` — SP 800-90B §4.4.2.  Fails when the
  first byte of a 512-sample window recurs too often inside that window.
  Catches heavily biased (but not constant) output.
* startup self-test — the existing FIPS 140-2 battery
  (:func:`repro.nist.fips140.fips140_battery`) on the first 20,000 bits.
  The battery (and with it :mod:`repro.nist` and SciPy) is imported on
  the first startup test, not with this module: the daemon and its
  fleet members import this module but never run that test.

Both continuous tests are *streaming*: state (current run, current
window) carries across buffers, and each buffer is screened in a few
whole-buffer numpy passes — no Python loop over samples or windows.

Cutoffs are derived, not hard-coded: for a false-positive rate ``alpha``
and an entropy estimate of ``h`` bits per byte sample, the RCT cutoff is
``1 + ceil(-log2(alpha) / h)`` and the APT cutoff is the smallest count
whose binomial tail probability over a 512-sample window is below
``alpha`` (both per SP 800-90B).
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.generator import BSRNG
from repro.errors import HealthTestError, SpecificationError
from repro.obs import flight
from repro.obs.tracing import span

if TYPE_CHECKING:
    from repro.nist.fips140 import Fips140Report

logger = logging.getLogger(__name__)

__all__ = [
    "rct_cutoff",
    "apt_cutoff",
    "RepetitionCountTest",
    "AdaptiveProportionTest",
    "HealthEvent",
    "HealthScreen",
    "HealthState",
    "startup_self_test",
    "HealthMonitoredBSRNG",
    "APT_WINDOW",
]

#: SP 800-90B §4.4.2 window size for non-binary (here: byte) samples.
APT_WINDOW = 512

#: Default per-test false-positive rate (the 800-90B recommended value).
DEFAULT_ALPHA = 2.0**-30


def rct_cutoff(alpha: float = DEFAULT_ALPHA, entropy_per_sample: float = 8.0) -> int:
    """Repetition Count Test cutoff ``C = 1 + ceil(-log2(alpha) / H)``.

    A run of ``C`` identical samples has probability at most
    ``2^(-H·(C-1)) <= alpha`` under the claimed ``H`` bits of entropy per
    sample, so a healthy source trips this at rate ``<= alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise SpecificationError("alpha must be in (0, 1)")
    if entropy_per_sample <= 0.0:
        raise SpecificationError("entropy_per_sample must be positive")
    return 1 + math.ceil(-math.log2(alpha) / entropy_per_sample)


def apt_cutoff(
    alpha: float = DEFAULT_ALPHA,
    entropy_per_sample: float = 8.0,
    window: int = APT_WINDOW,
) -> int:
    """Adaptive Proportion Test cutoff (smallest failing count).

    Under ``H`` bits of entropy per sample the most probable value has
    probability ``p = 2^-H``; the count of its recurrences among the
    ``window - 1`` samples after the reference draw is ``Binomial(window
    - 1, p)``.  The cutoff is ``1 +`` the smallest ``k`` whose upper tail
    ``P(X >= k)`` drops to ``alpha`` or below (the ``1 +`` counts the
    reference sample itself).
    """
    if not 0.0 < alpha < 1.0:
        raise SpecificationError("alpha must be in (0, 1)")
    if entropy_per_sample <= 0.0:
        raise SpecificationError("entropy_per_sample must be positive")
    if window < 2:
        raise SpecificationError("window must be at least 2")
    p = 2.0**-entropy_per_sample
    n = window - 1
    log_p, log_q = math.log(p), math.log1p(-p)
    # upper tail P(X >= k), walked downward from 1.0 by subtracting pmfs
    tail = 1.0
    for k in range(n + 1):
        if tail <= alpha:
            return 1 + k
        log_pmf = (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_q
        )
        tail -= math.exp(log_pmf)
    return 1 + window  # alpha so small the test can never fire


@dataclass
class HealthEvent:
    """One continuous-test failure."""

    test: str  # "rct" | "apt"
    position: int  # byte offset into the screened stream
    detail: str


class RepetitionCountTest:
    """Streaming Repetition Count Test over byte samples (800-90B §4.4.1)."""

    def __init__(self, alpha: float = DEFAULT_ALPHA, entropy_per_sample: float = 8.0) -> None:
        self.cutoff = rct_cutoff(alpha, entropy_per_sample)
        self.reset()

    def reset(self) -> None:
        """Forget the carried run (after a failure)."""
        self._last: int | None = None
        self._run = 0

    def update(self, data: np.ndarray) -> int | None:
        """Screen one buffer of byte samples.

        Returns the offset (within *data*) at which a run reached the
        cutoff, or ``None`` when the buffer is healthy.  State carries to
        the next call either way.

        One pass of ``cutoff - 1`` shifted equality masks: a run reaches
        the cutoff exactly where ``cutoff - 1`` consecutive neighbour
        comparisons all hold.  The carried run enters as up to
        ``cutoff - 1`` prepended copies of the last sample, which is all
        a run crossing the seam can contribute.
        """
        n = data.size
        if n == 0:
            return None
        c = self.cutoff
        carry = self._run if self._last is not None and int(data[0]) == self._last else 0
        pad = min(carry, c - 1)
        ext = np.concatenate((np.full(pad, data[0], dtype=data.dtype), data)) if pad else data
        eq = ext[1:] == ext[:-1]
        fail_at: int | None = None
        width = eq.size - (c - 2)  # windows of c - 1 consecutive comparisons
        if width > 0:
            hit = eq[:width].copy()
            for k in range(1, c - 1):
                hit &= eq[k : k + width]
            first = int(hit.argmax())
            if hit[first]:
                fail_at = first + c - 1 - pad
        # carry the trailing run forward
        self._last = int(data[-1])
        back = eq[::-1]
        k = int(back.argmin()) if back.size else 0
        self._run = k + 1 if back.size and not back[k] else n + carry
        return fail_at


class AdaptiveProportionTest:
    """Streaming Adaptive Proportion Test over byte samples (§4.4.2)."""

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        entropy_per_sample: float = 8.0,
        window: int = APT_WINDOW,
    ) -> None:
        self.window = window
        self.cutoff = apt_cutoff(alpha, entropy_per_sample, window)
        self.reset()

    def reset(self) -> None:
        """Forget the open window (after a failure)."""
        self._ref: int | None = None
        self._seen = 0  # samples consumed of the current window
        self._count = 0  # matches of the reference so far (incl. itself)

    def update(self, data: np.ndarray) -> int | None:
        """Screen one buffer; returns the failing offset or ``None``.

        The window left open by the previous buffer is finished first,
        then every whole window is counted in one ``(k, window)`` pass
        (each row against its own first sample), and the remainder opens
        the window carried to the next call.  A failing offset is the
        last sample of the failing window (or of the buffer, when the
        window is still open); the carried state then describes that
        window, as if screening had stopped there.
        """
        n, w, pos = data.size, self.window, 0
        if n == 0:
            return None
        if self._ref is not None:
            take = min(w - self._seen, n)
            self._count += int(np.count_nonzero(data[:take] == self._ref))
            self._seen += take
            if self._count >= self.cutoff:
                return take - 1
            pos = take
            if self._seen == w:
                self._ref = None  # next sample opens a new window
        k = (n - pos) // w
        if k:
            rows = data[pos : pos + k * w].reshape(k, w)
            counts = (rows == rows[:, :1]).sum(axis=1)
            bad = np.flatnonzero(counts >= self.cutoff)
            if bad.size:
                i = int(bad[0])
                self._ref, self._seen, self._count = int(rows[i, 0]), w, int(counts[i])
                return pos + (i + 1) * w - 1
            self._seen, self._count = w, int(counts[-1])  # closed window's tally
            pos += k * w
        if pos < n:
            tail = data[pos:]
            self._ref = int(tail[0])
            self._seen = tail.size
            self._count = int(np.count_nonzero(tail == tail[0]))
            if self._count >= self.cutoff:
                return n - 1
        return None


class HealthScreen:
    """The one continuous-test screen: an RCT/APT pair over one stream.

    Held by the one latch, :class:`HealthState`.  It owns the pair, the
    stream position (bytes screened clean) and reset-on-failure: a
    failing buffer is not counted, clears both tests and returns a
    positioned :class:`HealthEvent`.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA, entropy_per_sample: float = 8.0) -> None:
        self.rct = RepetitionCountTest(alpha, entropy_per_sample)
        self.apt = AdaptiveProportionTest(alpha, entropy_per_sample)
        self.position = 0

    def update(self, data) -> HealthEvent | None:
        """Screen one buffer (bytes-like or uint8 array); ``None`` when
        healthy.  The APT only sees a buffer the RCT passed."""
        buf = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
        at = self.rct.update(buf)
        if at is not None:
            event = HealthEvent(
                "rct",
                self.position + at,
                f"byte 0x{int(buf[at]):02x} repeated {self.rct.cutoff} times",
            )
        else:
            at = self.apt.update(buf)
            if at is None:
                self.position += buf.size
                return None
            event = HealthEvent(
                "apt",
                self.position + at,
                f"window proportion reached cutoff {self.apt.cutoff}",
            )
        self.reset()
        return event

    def reset(self) -> None:
        """Forget both tests' carried state (the position is kept)."""
        self.rct.reset()
        self.apt.reset()


class HealthState:
    """The one health latch: a :class:`HealthScreen` and a sticky verdict.

    Every holder screens what it emits through one of these: the serve
    engine the concatenation of accepted chunks (order of interleaved
    clients is irrelevant to the tests' guarantees — they hunt stuck-at
    and biased output, properties of the generator, not of any one
    lease), :class:`HealthMonitoredBSRNG` its draws.  The verdict is the
    SP 800-90B error state: one screen failure, or an external monitor's
    :meth:`latch`, flips :attr:`healthy` until :meth:`reset`.  Every
    latch is recorded in the flight recorder; the one that flips a
    healthy verdict also dumps it, outside the lock (a stream that keeps
    tripping while latched writes no further dumps).

    :attr:`events` keeps the first latch and the most recent ones, at
    most :attr:`EVENTS_KEPT` in all: a correct stream trips the serve
    screen about once per 16 MiB, so a long-running daemon would
    otherwise grow its ``/healthz`` body without limit.  :meth:`_publish`
    exports each verdict change, by default as the service's series:
    ``repro_serve_health_failures_total{test}`` (the full count) and
    ``repro_serve_healthy``.
    """

    EVENTS_KEPT = 50

    def __init__(self, alpha: float = 2.0**-20, entropy_per_sample: float = 8.0) -> None:
        self._lock = threading.Lock()
        self.screener = HealthScreen(alpha, entropy_per_sample)
        self.healthy = True
        self.events: list[dict] = []

    @property
    def bytes_screened(self) -> int:
        """Bytes screened so far, failing buffers included."""
        return self.screener.position

    def screen(self, data) -> HealthEvent | None:
        """Screen one buffer; returns its failure or ``None``.

        A failing buffer still counts as screened (the service serves
        it, the monitor withholds it) and latches the verdict unhealthy;
        the screen has reset its tests, so the next buffer starts clean.
        """
        with self._lock:
            event = self.screener.update(data)
            if event is None:
                return None
            self.screener.position += len(data)
            flipped = self._latch(
                {"test": event.test, "position": event.position, "time": time.time()},
                position=event.position,
                detail=event.detail,
            )
        if flipped:
            flight.dump("health")
        return event

    def latch(self, test: str, detail: dict | None = None) -> None:
        """Latch unhealthy on an external monitor's verdict.

        The continuous-QA sidecar calls this with ``test="qa:<plugin>"``
        and the triggering window's particulars — same sticky operator
        contract as an RCT/APT screen failure, one layer up.
        """
        event: dict = {"test": test, "time": time.time()}
        if detail:
            event["detail"] = detail
        with self._lock:
            flipped = self._latch(event)
        if flipped:
            flight.dump("health")

    def _latch(self, event: dict, **flight_args) -> bool:
        """Record *event* and flip the verdict (the caller holds the lock).

        Returns whether the verdict was healthy until now: the caller
        then dumps the flight recorder, once it has let the lock go.
        """
        flipped, self.healthy = self.healthy, False
        self.events.append(event)
        if len(self.events) > self.EVENTS_KEPT:
            del self.events[1]  # the first latch stays
        self._publish(event)
        flight.record("health-failure", test=event["test"], **flight_args)
        return flipped

    def _publish(self, event: dict | None) -> None:
        """Export one verdict change: *event* latched, ``None`` reset."""
        if event is not None:
            obs.inc("repro_serve_health_failures_total", 1, test=event["test"])
        obs.set_gauge("repro_serve_healthy", int(event is None))

    def reset(self) -> None:
        """Operator action: clear the latch (events are kept)."""
        with self._lock:
            self.healthy = True
            self.screener.reset()
            self._publish(None)

    def to_dict(self) -> dict:
        """JSON form for ``/healthz`` and ``/v1/status``."""
        with self._lock:
            return {
                "healthy": self.healthy,
                "bytes_screened": self.bytes_screened,
                "events": list(self.events),
            }


def startup_self_test(rng: BSRNG) -> Fips140Report:
    """FIPS 140-2 battery on the generator's next 20,000 bits.

    The classic hardware power-up gate (paper §3's TRNGs are certified
    with exactly this battery).  Consumes ``BLOCK_BITS`` bits from *rng*;
    raises :class:`HealthTestError` on rejection.
    """
    from repro.nist.fips140 import BLOCK_BITS, fips140_battery

    with span("health.startup", algo=rng.algorithm):
        report = fips140_battery(rng.random_bits(BLOCK_BITS))
    obs.inc(
        "repro_health_startup_total",
        1,
        algorithm=rng.algorithm,
        verdict="pass" if report.passed else "fail",
    )
    if not report.passed:
        logger.warning(
            "startup self-test failed (FIPS 140-2) on %s: %s",
            rng.algorithm,
            report.statistics,
        )
        raise HealthTestError(
            f"startup self-test failed (FIPS 140-2): {report.statistics}"
        )
    return report


class _MonitorLatch(HealthState):
    """The monitor's latch: failures count under its generator's series."""

    def __init__(self, algorithm: str, alpha: float, entropy_per_sample: float) -> None:
        super().__init__(alpha, entropy_per_sample)
        self.algorithm = algorithm

    def _publish(self, event: dict | None) -> None:
        if event is not None:
            obs.inc(
                "repro_health_failures_total", 1, algorithm=self.algorithm, test=event["test"]
            )


class HealthMonitoredBSRNG:
    """Front a :class:`BSRNG` with startup and continuous health tests.

    Every emitted buffer is screened by the Repetition Count and Adaptive
    Proportion tests of one :class:`HealthState` (:attr:`health`) before
    the caller sees it.  A failing buffer is withheld and raises
    :class:`HealthTestError`, and the latch holds the FIPS error state:
    every later draw raises too, without drawing, until
    ``health.reset()``.

    Parameters
    ----------
    rng:
        The generator to monitor, or an algorithm name (then ``seed`` /
        ``lanes`` construct one).
    alpha:
        Per-test false-positive rate for the cutoff derivation.
    entropy_per_sample:
        Claimed min-entropy per byte (8.0 for a full-entropy PRNG).
    startup_test:
        Run the FIPS 140-2 battery on the first 20,000 bits.  Those bits
        are consumed by the gate and **not** emitted — exactly the
        hardware power-up semantics.
    """

    def __init__(
        self,
        rng: BSRNG | str = "mickey2",
        *,
        seed: int = 0,
        lanes: int = 4096,
        alpha: float = DEFAULT_ALPHA,
        entropy_per_sample: float = 8.0,
        startup_test: bool = True,
    ) -> None:
        self.inner = rng if isinstance(rng, BSRNG) else BSRNG(rng, seed=seed, lanes=lanes)
        self.health = _MonitorLatch(self.inner.algorithm, alpha, entropy_per_sample)
        self.startup_report: Fips140Report | None = None
        if startup_test:
            self.startup_report = startup_self_test(self.inner)

    # -- the draw API: BSRNG's own, over the screened byte source ---------------
    def _take_bytes(self, n: int) -> np.ndarray:
        """Screened byte draw (uint8 array); raises while latched."""
        if not self.health.healthy:
            raise HealthTestError(
                f"latched unhealthy by {self.health.events[-1]['test']}: "
                "no output until health.reset()"
            )
        data = self.inner.random_uint8(n)  # no bytes round-trip copy
        with span("health.screen", algo=self.algorithm, n=n):
            event = self.health.screen(data)
        if event is not None:
            failure = f"{event.test} failed at byte {event.position}: {event.detail}"
            logger.warning("health test %s on %s", failure, self.algorithm)
            raise HealthTestError(failure)
        obs.inc("repro_health_screened_bytes_total", n, algorithm=self.algorithm)
        return data

    # BSRNG's draws reach its stream only through these two, so its own
    # conversions (and size checks) run unchanged over the screen
    _take_words = BSRNG._take_words
    random_bytes = BSRNG.random_bytes
    random_bits = BSRNG.random_bits
    random_uint64 = BSRNG.random_uint64
    random_uint32 = BSRNG.random_uint32
    random = BSRNG.random

    @property
    def algorithm(self) -> str:
        """The wrapped generator's algorithm name."""
        return self.inner.algorithm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        screener = self.health.screener
        return (
            f"HealthMonitoredBSRNG({self.inner!r}, healthy={self.health.healthy}, "
            f"rct_cutoff={screener.rct.cutoff}, apt_cutoff={screener.apt.cutoff})"
        )
