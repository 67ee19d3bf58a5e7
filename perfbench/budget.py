"""Layer budget from spans: self time per span and per layer.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans are linked by ``span_id``/``parent_id``,
which the program propagates across threads, processes and the HTTP hop
(``X-Repro-Trace-Id`` / ``X-Repro-Parent-Span``).  Spans recorded in
different processes whose clocks were not rebased onto one timeline
(the benchmark client and the daemon) carry different ``domain`` tags;
for those only durations are compared.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass


#: Layers along the path a byte takes, outermost first.  ``client`` is
#: the caller's own share (for serve workloads: client, socket and HTTP
#: framing outside the daemon's request span).
LAYERS = ("client", "daemon", "engine", "generator", "seek", "kernel")


@dataclass(frozen=True)
class Span:
    name: str
    ts: float  # microseconds, in its domain's clock
    dur: float  # microseconds
    span_id: str | None
    parent_id: str | None
    domain: str


def from_records(records, domain: str) -> list[Span]:
    """Spans from an in-process :class:`repro.obs.Tracer`'s records."""
    return [
        Span(r.name, r.ts_us, r.dur_us, r.span_id, r.parent_id, domain) for r in records
    ]


def from_chrome_trace(path, domain: str) -> list[Span]:
    """Spans from a ``--trace-out`` Chrome trace file."""
    with open(path) as fh:
        doc = json.load(fh)
    out = []
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args") or {}
        out.append(
            Span(
                ev["name"], float(ev["ts"]), float(ev["dur"]),
                args.get("span_id"), args.get("parent_id"), domain,
            )
        )
    return out


def _covered(parent: Span, kids: list[Span]) -> float:
    """Microseconds of *parent* covered by its children."""
    same = [k for k in kids if k.domain == parent.domain]
    other = sum(k.dur for k in kids if k.domain != parent.domain)
    lo, hi = parent.ts, parent.ts + parent.dur
    intervals = sorted((max(lo, k.ts), min(hi, k.ts + k.dur)) for k in same)
    covered, end = 0.0, lo
    for a, b in intervals:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return min(parent.dur, covered + other)


@dataclass
class Budget:
    """Self time summed per layer and per span name under a set of roots."""

    layer_us: dict[str, float]
    name_self_us: dict[str, float]
    name_count: dict[str, int]
    root_us: float
    roots: int

    def self_ms_per_span(self, name: str) -> float:
        n = self.name_count.get(name, 0)
        return self.name_self_us.get(name, 0.0) / n / 1e3 if n else 0.0


def layer_budget(spans: list[Span], root_name: str, layer_of: dict[str, str]) -> Budget:
    """Walk every *root_name* span's subtree and sum self time per layer.

    Span names missing from *layer_of* land in layer ``"other"``.
    """
    by_parent: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            by_parent[s.parent_id].append(s)
    layer_us: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    name_count: dict[str, int] = defaultdict(int)
    root_us, roots = 0.0, 0
    todo = [s for s in spans if s.name == root_name]
    for s in todo:
        root_us += s.dur
        roots += 1
    while todo:
        s = todo.pop()
        kids = by_parent.get(s.span_id, []) if s.span_id is not None else []
        own = max(0.0, s.dur - _covered(s, kids))
        layer_us[layer_of.get(s.name, "other")] += own
        name_self[s.name] += own
        name_count[s.name] += 1
        todo.extend(kids)
    return Budget(dict(layer_us), dict(name_self), dict(name_count), root_us, roots)


def budget_metrics(
    budget: Budget, layers: tuple[str, ...], wall_us: float, payload_bytes: int
) -> tuple[dict[str, float], list[str]]:
    """Per-layer shares of end-to-end wall plus a printable table.

    *wall_us* is the traced phase's wall time summed over the
    workload's concurrent callers; the part no root span covers is the
    unattributed share.
    """
    metrics: dict[str, float] = {}
    lines = [f"  {'layer':<12} {'share':>7} {'ns/B':>9}"]
    for layer in layers + ("other",):
        us = budget.layer_us.get(layer, 0.0)
        if layer == "other" and not us:
            continue
        share = us / wall_us
        if layer != "other":
            metrics[f"layers.{layer}_share"] = share
        lines.append(f"  {layer:<12} {share:7.3f} {us * 1e3 / payload_bytes:9.2f}")
    unattributed = max(0.0, wall_us - budget.root_us) / wall_us
    metrics["layers.unattributed_share"] = unattributed
    lines.append(f"  {'unattributed':<12} {unattributed:7.3f}")
    return metrics, lines
