"""Metrics layer: instruments, registry, snapshot/merge, exporters."""

import json
import pickle
import threading

import pytest

from repro import obs
from repro.errors import SpecificationError
from repro.obs.metrics import MetricsRegistry, log2_bucket
from repro.obs.promlint import lint

# -- buckets ---------------------------------------------------------------------


def test_log2_bucket_edges():
    assert log2_bucket(1) == 0
    assert log2_bucket(1.5) == 0
    assert log2_bucket(2) == 1
    assert log2_bucket(1024) == 10
    assert log2_bucket(1023.9) == 9
    assert log2_bucket(0.5) == -1
    assert log2_bucket(0) is None
    assert log2_bucket(-3) is None


# -- instruments -----------------------------------------------------------------


def test_counter_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("events_total", kind="x")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(SpecificationError):
        c.inc(-1)


def test_gauge_set_semantics():
    reg = MetricsRegistry()
    g = reg.gauge("level")
    g.set(7)
    g.set(3.5)
    assert g.value == 3.5


def test_histogram_stats_and_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("sizes")
    for v in (1, 2, 3, 1024, 0, -5):
        h.observe(v)
    assert h.count == 6
    assert h.sum == pytest.approx(1025)
    st = h.state()
    assert st["min"] == -5 and st["max"] == 1024
    # 0 and -5 share the underflow bucket; 2 and 3 share exponent 1
    assert st["buckets"] == {"underflow": 2, "0": 1, "1": 2, "10": 1}


def test_empty_histogram_state():
    st = MetricsRegistry().histogram("empty").state()
    assert st["count"] == 0 and st["min"] is None and st["max"] is None


# -- registry --------------------------------------------------------------------


def test_get_or_create_identity():
    reg = MetricsRegistry()
    assert reg.counter("a", x="1") is reg.counter("a", x="1")
    assert reg.counter("a", x="1") is not reg.counter("a", x="2")
    assert len(reg) == 2


def test_labelled_and_unlabelled_series_of_one_name_stay_distinct():
    reg = MetricsRegistry()
    bare = reg.counter("c")
    labelled = reg.counter("c", worker=1)
    assert bare is not labelled
    assert reg.counter("c") is bare
    assert reg.counter("c", worker="1") is labelled
    bare.inc(2)
    labelled.inc(3)
    entries = {
        tuple(sorted(e["labels"].items())): e["value"] for e in reg.snapshot()["metrics"]
    }
    assert entries == {(): 2, (("worker", "1"),): 3}


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("n")
    with pytest.raises(SpecificationError):
        reg.gauge("n")
    with pytest.raises(SpecificationError):
        reg.histogram("n")
    # the reverse order
    reg.gauge("g")
    with pytest.raises(SpecificationError):
        reg.counter("g")
    # a clash under different labels is still a clash
    reg.counter("c", worker="0")
    with pytest.raises(SpecificationError):
        reg.histogram("c", worker="1")
    # a drained name is free again
    reg.drain()
    reg.histogram("n")
    assert len(reg) == 1


def test_empty_name_raises():
    with pytest.raises(SpecificationError):
        MetricsRegistry().counter("")


def test_concurrent_increments():
    reg = MetricsRegistry()
    c = reg.counter("hits_total")

    def worker():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000


# -- snapshot / merge ------------------------------------------------------------


def make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("bytes_total", algorithm="grain").inc(100)
    reg.gauge("lanes").set(4096)
    h = reg.histogram("refill_bytes")
    h.observe(512)
    h.observe(2048)
    return reg


def test_snapshot_is_picklable_and_jsonable():
    snap = make_registry().snapshot()
    assert snap == pickle.loads(pickle.dumps(snap))
    assert snap == json.loads(json.dumps(snap))


def test_merge_accumulates_counters_and_histograms():
    a, b = make_registry(), make_registry()
    a.merge(b.snapshot())
    merged = a.snapshot()
    by_name = {(m["name"], m["type"]): m for m in merged["metrics"]}
    assert by_name[("bytes_total", "counter")]["value"] == 200
    hist = by_name[("refill_bytes", "histogram")]
    assert hist["count"] == 4 and hist["sum"] == pytest.approx(5120)
    assert hist["buckets"] == {"9": 2, "11": 2}
    # gauges: last write wins, not accumulate
    assert by_name[("lanes", "gauge")]["value"] == 4096


def test_merge_extra_labels_keep_series_distinct():
    parent = MetricsRegistry()
    for pid in (0, 1):
        worker = MetricsRegistry()
        worker.counter("blocks_total").inc(10 * (pid + 1))
        parent.merge(worker.snapshot(), extra_labels={"partition": pid})
    snap = parent.snapshot()
    series = {
        (m["labels"]["partition"], m["value"])
        for m in snap["metrics"]
        if m["name"] == "blocks_total"
    }
    assert series == {("0", 10), ("1", 20)}


def test_merge_rejects_unknown_version():
    with pytest.raises(SpecificationError):
        MetricsRegistry().merge({"version": 99, "metrics": []})


def test_clear():
    reg = make_registry()
    reg.clear()
    assert len(reg) == 0 and reg.snapshot()["metrics"] == []


# -- switchboard -----------------------------------------------------------------


def test_disabled_helpers_are_noops():
    with obs.scoped(enabled=False) as reg:
        obs.inc("c")
        obs.observe("h", 5)
        obs.set_gauge("g", 1)
        assert len(reg) == 0


def test_enabled_helpers_record():
    with obs.scoped() as reg:
        obs.inc("c", 3, k="v")
        obs.observe("h", 5)
        obs.set_gauge("g", 9)
        assert reg.counter("c", k="v").value == 3
        assert reg.histogram("h").count == 1
        assert reg.gauge("g").value == 9


def test_scoped_restores_previous_state():
    before_reg, before_enabled = obs.registry(), obs.metrics_enabled()
    with obs.scoped():
        assert obs.metrics_enabled()
        assert obs.registry() is not before_reg
    assert obs.registry() is before_reg
    assert obs.metrics_enabled() == before_enabled


# -- exporters -------------------------------------------------------------------


def test_prometheus_rendering_lints_clean():
    text = obs.render_prometheus(make_registry().snapshot())
    problems = lint(text)
    assert not problems, problems
    assert '# TYPE bytes_total counter' in text
    assert 'bytes_total{algorithm="grain"} 100' in text
    # log2 histogram: 512 → le=1024, 2048 → le=4096, then +Inf
    assert 'refill_bytes_bucket{le="1024"} 1' in text
    assert 'refill_bytes_bucket{le="4096"} 2' in text
    assert 'refill_bytes_bucket{le="+Inf"} 2' in text
    assert "refill_bytes_count 2" in text


def test_prometheus_underflow_bucket_lints_clean():
    reg = MetricsRegistry()
    h = reg.histogram("deltas")
    for v in (-1, 0, 4):
        h.observe(v)
    text = obs.render_prometheus(reg.snapshot())
    assert not lint(text)
    assert 'deltas_bucket{le="+Inf"} 3' in text


def test_human_rendering():
    out = obs.render_human(make_registry().snapshot())
    assert "counters:" in out and "gauges:" in out and "histograms:" in out
    assert 'bytes_total{algorithm="grain"}' in out
    assert obs.render_human({"version": 1, "metrics": []}).startswith("(no metrics")


def test_snapshot_file_round_trip(tmp_path):
    snap = make_registry().snapshot()
    path = tmp_path / "m.json"
    obs.write_snapshot(snap, str(path))
    assert obs.load_snapshot(str(path)) == snap


def test_load_snapshot_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 0, "metrics": []}')
    with pytest.raises(SpecificationError):
        obs.load_snapshot(str(path))


def test_dump_unknown_format():
    with pytest.raises(SpecificationError):
        obs.dump({"version": 1, "metrics": []}, "xml", None)
