"""The memoized execution layout builds exactly the per-call strip groups.

:meth:`repro.gemm.plan._Plan.layout` fixes every group's geometry once
per (plan, schedule, strips, span); a call only slices views from it.
These tests hold it to the per-call builder it replaced
(:mod:`tests.oracles.strip_groups`) group by group, and check that the
memo is hit, bounded and cleared like the other plan memos.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.plan import (
    PLAN_MEMO_MAXSIZE,
    CakePlan,
    GotoPlan,
    clear_plan_memos,
    plan_cache_info,
)
from repro.gemm import sharded
from repro.gemm.sharded import plan_shards
from repro.machines import intel_i9_10900k
from repro.packing.pack import PackedOperands
from repro.schedule.space import ComputationSpace
from tests.oracles.strip_groups import strip_groups as oracle_groups

#: (m, n, k): one CB block, ragged edges on every axis, and several
#: blocks along M or N.
SHAPES = [(128, 128, 128), (77, 301, 519), (700, 2500, 900)]


def _address(x: np.ndarray) -> int:
    return x.__array_interface__["data"][0]


def _same_view(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert _address(got) == _address(want)


def _same_vectors(got, want) -> None:
    if want is None:
        assert got is None
        return
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_vectors(g, w)
        return
    assert np.array_equal(got, want)


def _assert_groups_match(got, want, c: np.ndarray) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.index, g.coord, g.label, g.fresh_panel) == (
            w.index, w.coord, w.label, w.fresh_panel,
        )
        assert len(g.tasks) == len(w.tasks)
        for gt, wt in zip(g.tasks, w.tasks):
            for got_view, want_view in zip(gt, wt):
                _same_view(got_view, want_view)
            # The C view's offset into C is the task's place in the product.
            assert _address(gt.c) - _address(c) == _address(wt.c) - _address(c)
        _same_view(g.panel, w.panel)
        if w.operand_a is None:
            # Only a one-strip group may carry its block unstacked.
            assert g.operand_a is None or len(g.tasks) == 1
        else:
            assert np.array_equal(g.operand_a, w.operand_a)
        _same_vectors(g.checksum_a, w.checksum_a)
        _same_vectors(g.checksum_b, w.checksum_b)
        _same_vectors(g.mag_a, w.mag_a)
        _same_vectors(g.mag_b, w.mag_b)


def _plans(shape, machine=None):
    machine = intel_i9_10900k() if machine is None else machine
    space = ComputationSpace(*shape)
    return [
        CakePlan.from_problem(machine, space),
        GotoPlan.from_problem(machine, space),
    ]


def _operands(shape, rng):
    m, n, k = shape
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def _compare(plan, a, b, *, span=None, schedule=None, strips=None,
             checksums=None, stack=False) -> None:
    """Both builders over one pack, each with its own operand wrapper
    (stacked A strips and block-summed checksums are built twice)."""
    packs = plan.layout().pack(a, b, checksums=checksums == "pack")
    c = np.zeros((plan.space.m, plan.space.n))
    got = plan.layout(schedule, strips, span).strip_groups(
        PackedOperands(*packs, checksums=checksums, stack=stack), c
    )
    want = oracle_groups(
        plan,
        PackedOperands(*packs, checksums=checksums, stack=stack),
        c,
        span=span,
        schedule=schedule,
        strips=strips,
    )
    _assert_groups_match(got, want, c)


@pytest.mark.parametrize("shape", SHAPES)
class TestMatchesPerCallBuilder:
    @pytest.mark.parametrize(
        "checksums, stack",
        [(None, False), (None, True), ("pack", True), ("blocks", True)],
    )
    def test_in_process(self, shape, rng, checksums, stack):
        a, b = _operands(shape, rng)
        for plan in _plans(shape):
            _compare(plan, a, b, checksums=checksums, stack=stack)

    def test_naive_schedule(self, shape, rng):
        a, b = _operands(shape, rng)
        for plan in _plans(shape):
            _compare(plan, a, b, schedule="naive")

    @pytest.mark.parametrize("strips", [1, 3])
    def test_strips_override(self, shape, rng, strips):
        a, b = _operands(shape, rng)
        for plan in _plans(shape):
            _compare(plan, a, b, strips=strips, stack=True)

    @pytest.mark.parametrize("schedule", [None, "naive"])
    def test_every_shard_span(self, shape, rng, schedule):
        a, b = _operands(shape, rng)
        for plan in _plans(shape):
            shards = plan_shards(4, *plan.shard_extents(), plan.space.k)
            for span in shards.spans:
                _compare(
                    plan, a, b, span=span, schedule=schedule,
                    checksums="blocks", stack=True,
                )


@pytest.mark.parametrize("schedule", [None, "naive"])
def test_every_span_of_a_2x2_shard_grid(arm, rng, schedule, monkeypatch):
    """The Cortex-A53's small blocks give both engines at least two block
    rows and columns; the grid is forced square, whatever the traffic
    model would pick."""
    monkeypatch.setattr(sharded, "select_shard_grid", lambda *_args: (2, 2))
    shape = (700, 2500, 900)
    a, b = _operands(shape, rng)
    for plan in _plans(shape, arm):
        shards = plan_shards(4, *plan.shard_extents(), plan.space.k)
        assert (shards.rows, shards.cols) == (2, 2)
        for span in shards.spans:
            _compare(
                plan, a, b, span=span, schedule=schedule,
                checksums="blocks", stack=True,
            )


class TestLayoutMemo:
    @pytest.mark.parametrize("engine_cls", [CakeGemm, GotoGemm])
    def test_repeated_multiply_hits_the_memo(self, intel, rng, engine_cls):
        a, b = _operands((77, 301, 519), rng)
        clear_plan_memos()
        engine = engine_cls(intel, tuned=False)
        first = engine.multiply(a, b)
        info = plan_cache_info()["layout"]
        assert (info["misses"], info["hits"], info["currsize"]) == (1, 0, 1)
        second = engine.multiply(a, b)
        info = plan_cache_info()["layout"]
        assert (info["misses"], info["hits"], info["currsize"]) == (1, 1, 1)
        assert np.array_equal(first.c, second.c)

        clear_plan_memos()
        info = plan_cache_info()["layout"]
        assert info["maxsize"] == PLAN_MEMO_MAXSIZE
        assert info["currsize"] == 0

    def test_goto_ignores_schedule_and_strips(self, intel):
        plan = GotoPlan.from_problem(intel, ComputationSpace(77, 301, 519))
        assert plan.layout("naive", 3) is plan.layout()

    def test_layout_is_bounded(self, intel):
        clear_plan_memos()
        for m in range(64, 64 + 40):
            CakePlan.from_problem(intel, ComputationSpace(m, 64, 64)).layout()
        info = plan_cache_info()["layout"]
        assert info["currsize"] == 40 <= PLAN_MEMO_MAXSIZE


class TestPresetSpec:
    def test_preset_is_shared(self):
        assert intel_i9_10900k() is intel_i9_10900k()

    def test_replace_yields_a_new_validated_spec(self):
        base = intel_i9_10900k()
        four = dataclasses.replace(base, cores=4)
        assert four is not base
        assert (four.cores, base.cores) == (4, 10)
        assert intel_i9_10900k().cores == 10
        with pytest.raises(ValueError, match="cores must be > 0"):
            dataclasses.replace(base, cores=0)
