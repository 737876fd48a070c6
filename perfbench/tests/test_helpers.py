"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import matmul, metrics, serve
from perfbench.report import END_TO_END, PER_LAYER
from perfbench.spans import Span, Tracer, self_time, trace_overhead
from perfbench.stats import percentile, tail_percentile

ROOT = Path(__file__).resolve().parents[2]


# -- nearest-rank percentiles ---------------------------------------------------


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = list(range(10, 0, -1))  # order must not matter
    p50 = percentile(values, 50)
    assert (p50.value, p50.rank, p50.samples, p50.beyond) == (5, 5, 10, 5)
    p90 = percentile(values, 90)
    assert (p90.value, p90.rank, p90.beyond) == (9, 9, 1)
    assert percentile(values, 100).value == 10
    assert percentile(values, 1).value == 1
    assert percentile([7.5], 50).value == 7.5


@pytest.mark.parametrize("q", [0, -5, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], q)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(100), 90).beyond == 10
    with pytest.raises(ValueError, match="beyond"):
        tail_percentile(range(99), 90)


# -- spans ------------------------------------------------------------------------


def _span(start, end, parent=None):
    return Span(id=0, name="s", start=start, end=end, parent=parent)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 3.0), _span(2.0, 5.0), _span(8.0, 12.0)]
    # Covered: [1, 5] and [8, 10] (clipped to the parent) = 6.
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(_span(2.0, 7.5), []) == pytest.approx(5.5)


def test_self_time_ignores_children_outside_the_parent():
    assert self_time(_span(0.0, 1.0), [_span(2.0, 3.0), _span(-2.0, -1.0)]) == 1.0


def test_tracer_links_children_and_sums_self_time_per_name():
    tracer = Tracer()
    parent = tracer.add("request", 0.0, 10.0, request=7)
    child = tracer.add("layer", 2.0, 6.0, parent=parent)
    tracer.add("layer", 5.0, 9.0, parent=parent)
    with tracer.span("other") as timed:
        pass
    assert child.parent == parent.id and child.request == 7
    assert timed.end >= timed.start
    summary = tracer.summary()
    assert summary["request"] == {"count": 1, "seconds": 10.0, "self_seconds": 3.0}
    assert summary["layer"]["count"] == 2
    assert summary["layer"]["self_seconds"] == pytest.approx(8.0)


def test_trace_overhead_is_the_traced_excess_over_untraced():
    assert trace_overhead(1.1, 1.0) == pytest.approx(0.1)
    assert trace_overhead(0.9, 1.0) == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        trace_overhead(1.0, 0.0)


# -- the per-call ratio base ------------------------------------------------------


def _fake_caller(bases, verify=None):
    spec = matmul.MatmulSpec(
        shapes=((8, 8, 8), (4, 8, 16)), dtypes=("float64",), modes=(matmul.DEFAULT,),
    )
    pairs = matmul.make_pairs(spec, [3, 0])
    caller = matmul.Caller(spec, pairs)

    class Run:
        def __init__(self, c):
            self.c = c
            self.verify = verify

    caller._matmul = lambda a, b: Run(a @ b)
    caller.base = lambda pair: bases[pair.index]
    return caller, pairs


def test_x_numpy_divides_by_the_base_of_the_same_pair():
    bases = {0: 0.5, 1: 0.25}
    caller, pairs = _fake_caller(bases)
    calls = caller.loop(0.0)
    assert [c.pair for c in calls] == [0, 1]
    for call in calls:
        assert call.ok
        assert call.ratio == pytest.approx(call.seconds / bases[call.pair])


def test_a_healed_abft_mismatch_counts_as_failed():
    class Report:
        mismatches = 1

    caller, _ = _fake_caller({0: 1.0, 1: 1.0}, verify=Report())
    calls = caller.loop(0.0)
    assert not any(c.ok for c in calls)
    assert caller.failed == caller.attempted == 2


def test_base_refuses_a_moved_blas_thread_count():
    spec = matmul.SPECS["matmul-small"]
    pair = matmul.make_pair(np.random.default_rng(0), 0, (4, 4, 4), "float64")
    caller = matmul.Caller(spec, [pair], blas_threads=lambda: 2, pinned=1)
    with pytest.raises(RuntimeError, match="pinned"):
        caller.base(pair)


def test_doubled_cell_makes_an_odd_cycle():
    for spec in matmul.SPECS.values():
        cells = matmul.cycle(spec, matmul.make_pairs(spec, [0, 0]))
        assert len(cells) % 2 == 1


def test_product_check_uses_a_dtype_scaled_bound():
    pair = matmul.make_pair(np.random.default_rng(1), 0, (16, 12, 64), "float32")
    good = (pair.a @ pair.b).astype(np.float32)
    assert matmul.product_ok(good, pair)
    bad = good.copy()
    bad[3, 4] += 1e-2
    assert not matmul.product_ok(bad, pair)
    assert not matmul.product_ok(good.astype(np.float64), pair)
    assert not matmul.product_ok(good[:, :-1], pair)
    assert not matmul.product_ok(None, pair)


# -- pooled end-to-end metrics ------------------------------------------------------


def test_closed_loop_pools_segments():
    seg = {"seconds": [0.002] * 60, "ratios": [float(i) for i in range(60)], "flops": 10**9}
    figures, counts = metrics.closed_loop([seg, seg], 90)
    assert counts == {"samples": 120, "tail_beyond": 12}
    assert figures["throughput_gflops"] == pytest.approx(2e9 / 0.24 / 1e9)
    assert figures["x_numpy_p50"] == 29.0
    assert figures["x_numpy_tail"] == 53.0


def _window(rate, latency_ms, backlog=(0, 0, 0, 1), late_ms=0.1, ok=None):
    n = len(latency_ms)
    return {
        "rate": rate, "requests": n, "ok": n if ok is None else ok,
        "latency_ms": latency_ms, "ratios": [x / 1.0 for x in latency_ms],
        "late_ms": [late_ms] * n, "backlog_quarters": list(backlog),
        "wall": n / rate, "flops": n * 10**6,
    }


def test_rate_row_meets_only_a_steady_on_time_window():
    kwargs = dict(limit_ms=100.0, tail=90, clients=2)
    assert metrics.rate_row([_window(20.0, [5.0] * 100)], **kwargs)["met"]
    assert not metrics.rate_row([_window(20.0, [5.0] * 80 + [150.0] * 20)], **kwargs)["met"]
    growing = metrics.rate_row([_window(20.0, [5.0] * 100, backlog=(1, 3, 6, 9))], **kwargs)
    assert growing["backlog_growing"] and not growing["met"]
    behind = metrics.rate_row([_window(20.0, [5.0] * 100, late_ms=40.0)], **kwargs)
    assert behind["generator_behind"] and not behind["met"]
    refused = metrics.rate_row([_window(20.0, [5.0] * 100, ok=99)], **kwargs)
    assert not refused["met"]


def test_open_loop_reports_the_highest_met_rate():
    segments = [[_window(20.0, [5.0] * 100), _window(40.0, [6.0] * 100),
                 _window(160.0, [500.0] * 100, backlog=(5, 10, 20, 40))]]
    figures, rows = metrics.open_loop(segments, nominal=20.0, limit_ms=100.0, tail=90,
                                      clients=2)
    assert [r["met"] for r in rows] == [True, True, False]
    assert figures["max_rate_rps"] == pytest.approx(40.0)
    assert figures["latency_p50_ms"] == 5.0


def test_schedule_is_seeded_with_exact_class_counts():
    first = serve.schedule(np.random.default_rng(5), 20.0, 50, 0.2)
    again = serve.schedule(np.random.default_rng(5), 20.0, 50, 0.2)
    assert first == again
    assert sum(r.cls == "large" for r in first) == 10
    dues = [r.due for r in first]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= 50 / 20.0


# -- BENCHMARK.json and the command -----------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} <= set(matmul.SPECS) | {"serve-remote"}


def test_command_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matmul-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
