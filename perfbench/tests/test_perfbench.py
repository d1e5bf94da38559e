"""The benchmark's own arithmetic and bookkeeping, at tiny sizes (n <= 8)."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_summarize_median_and_quartiles():
    s = metrics.summarize(range(1, 11))
    assert (s["median"], s["q1"], s["q3"]) == (5.5, 2.75, 8.25)
    assert s["spread"] == pytest.approx(1.0)
    s = metrics.summarize([3.0, 1.0, 2.0])
    assert (s["median"], s["q1"], s["q3"]) == (2.0, 1.0, 3.0)
    assert metrics.summarize([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0,
                                        "spread": 0.0}


def test_self_time_of_nested_spans():
    recs = [[0, "bench", -1, 0.0, 10.0],
            [1, "a.x", 0, 1.0, 4.0],
            [2, "b.y", 1, 2.0, 3.0],
            [3, "a.x", 0, 5.0, 9.0]]
    times = spans.span_times(recs)
    assert times["bench"] == (3.0, 10.0, 1)
    assert times["a.x"] == (6.0, 7.0, 2)
    assert times["b.y"] == (1.0, 1.0, 1)
    assert sum(t for t, _, _ in times.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    recs = [[0, "p", -1, 0.0, 10.0],
            [1, "c", 0, 1.0, 4.0],
            [2, "c", 0, 3.0, 6.0]]
    assert spans.span_times(recs)["p"][0] == 5.0


def test_tracer_records_parents(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    tracer = spans.Tracer("t")
    with tracer.span("bench"):
        with tracer.span("a.x"):
            with tracer.span("b.y"):
                pass
        with tracer.span("a.x"):
            pass
    assert [s[2] for s in tracer.spans] == [-1, 0, 1, 0]
    times = spans.span_times(tracer.spans)
    assert times["bench"][0] == 7 - 0 - (4 - 1) - (6 - 5)


def test_speed_probe_ticks_during_a_region():
    probe = speed.SpeedProbe()
    with probe:
        clock, start = probe.clock(), time.perf_counter()
        end = start + 3.5 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
        clock, elapsed = probe.clock() - clock, time.perf_counter() - start
    assert len(probe.ticks) >= 2
    assert elapsed - clock == pytest.approx(probe.wall, abs=max(probe.ticks))
    assert probe.wall >= sum(probe.ticks) > 0
    assert probe.scale == pytest.approx(speed.REF_S / statistics.fmean(probe.ticks))
    count = len(probe.ticks)
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.ticks) == count


def test_wrong_expected_value_shows_in_error_rate():
    right = workloads.ideal_inputs(0, n=8, rows=91, cols=105, nnz=195, samples=10)
    checks = workloads.Checks()
    workloads.solve_ideal_scale(right, workloads.NullTracer(), checks)
    assert (checks.attempted, checks.failed, checks.error_rate) == (15, 0, 0.0)

    wrong = dict(right, nnz=196)
    checks = workloads.Checks()
    workloads.solve_ideal_scale(wrong, workloads.NullTracer(), checks)
    assert (checks.attempted, checks.failed) == (15, 1)
    assert checks.error_rate == 1 / 15
    assert checks.failures == ["nonzeros: got 195, want 196"]


def test_traced_orbit_self_times_add_up():
    inputs = workloads.orbit_inputs(1, n=8, target=14, doubled=(), cap=300)
    tracer = spans.Tracer("test")
    patches = spans.instrument(tracer, workloads.TARGETS)
    try:
        checks = workloads.Checks()
        with tracer.span("bench"):
            workloads.solve_orbit_scale(inputs, tracer, checks)
    finally:
        spans.restore(patches)
    assert (checks.attempted, checks.failed) == (3, 0)
    times = spans.span_times(tracer.spans)
    root = tracer.spans[0][4] - tracer.spans[0][3]
    values = metrics.layer_metrics(times, tracer.counters,
                                   {"hits": 1, "misses": 1, "entries": 1},
                                   len(tracer.spans), root)
    layers = metrics.LAYERS + ("bench",)
    assert sum(values[f"{layer}.self_s"] for layer in layers) == pytest.approx(root)
    assert values["symmetry_rep.perms_tried"] == values["exact_linalg.span_adds"] >= 14
    assert values["exact_linalg.span_useful_ratio"] == \
        pytest.approx(14 / values["exact_linalg.span_adds"])
    assert set(values) == set(metrics.per_layer_units()) - {"trace_overhead_s"}


def test_instrument_is_undone():
    from plucker import exact_linalg, relations

    before = (relations.sym_basis, exact_linalg.IncrementalSpan.add)
    spans.restore(spans.instrument(spans.Tracer("t"), workloads.TARGETS))
    assert (relations.sym_basis, exact_linalg.IncrementalSpan.add) == before


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()


def test_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "acceptance", "--seed", "0", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
