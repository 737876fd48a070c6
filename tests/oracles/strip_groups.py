"""The per-call strip-group builders, as the engines ran them before
their geometry was memoized in :class:`repro.gemm.plan.ExecutionLayout`.

Each call re-derives the block grid, the schedule order, the per-core
strip heights and the labels, and slices the packed operands directly.
The memoized layout must produce the same groups: same indices,
coordinates, labels, fresh-panel flags, task shapes and C views.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.parallel import StripGroup, StripTask, core_strips
from repro.gemm.plan import CakePlan, GotoPlan
from repro.gemm.sharded import ShardSpan
from repro.packing.pack import PackedOperands
from repro.util import prefix_offsets


def strip_groups(
    plan: "CakePlan | GotoPlan",
    ops: PackedOperands,
    c: np.ndarray,
    *,
    span: ShardSpan | None = None,
    schedule: str | None = None,
    strips: int | None = None,
) -> list[StripGroup]:
    """The plan's strip groups, built from scratch."""
    if isinstance(plan, CakePlan):
        return _cake(plan, ops, c, span, schedule, strips)
    return _goto(plan, ops, c, span)


def _cake(plan, ops, c, span, schedule, strips) -> list[StripGroup]:
    grid = plan.grid()
    suffix = "" if span is None else f" [shard ({span.row}, {span.col})]"
    groups: list[StripGroup] = []
    for index, coord in enumerate(plan.order(schedule)):
        if span is not None and not (
            span.mi0 <= coord.mi < span.mi1 and span.ni0 <= coord.ni < span.ni1
        ):
            continue
        ext = grid.extent(coord)
        m0, n0, _k0 = grid.origin(coord)
        a_block = ops.a.block(coord.mi, coord.ki)
        b_panel = ops.b.panel(coord.ki, coord.ni)
        c_view = c[m0 : m0 + ext.m, n0 : n0 + ext.n]
        heights = core_strips(ext.m, strips or plan.cores)
        tasks = [
            StripTask(a_block[r0 : r0 + h], b_panel, c_view[r0 : r0 + h])
            for r0, h in zip(prefix_offsets(heights), heights)
        ]
        groups.append(
            _group(
                ops, tasks, range(coord.mi, coord.mi + 1), coord.ki, coord.ni,
                index=index,
                coord=(coord.mi, coord.ni, coord.ki),
                label=f"cake block (mi={coord.mi}, ni={coord.ni}, "
                f"ki={coord.ki}){suffix}",
                panel=c_view,
                operand_a=a_block,
            )
        )
    return groups


def _goto(plan, ops, c, span) -> list[StripGroup]:
    m_strips, n_sizes, k_sizes = plan.tiles()
    m_off, n_off = prefix_offsets(m_strips), prefix_offsets(n_sizes)
    kb = len(k_sizes)
    if span is None:
        rows, cols = range(len(m_strips)), range(len(n_sizes))
    else:
        rows, cols = range(span.mi0, span.mi1), range(span.ni0, span.ni1)
    r0 = m_off[rows.start]
    r1 = m_off[rows.stop - 1] + m_strips[rows.stop - 1]
    suffix = "" if span is None else f" [shard ({span.row}, {span.col})]"
    groups: list[StripGroup] = []
    for ni in cols:
        n0, n1 = n_off[ni], n_off[ni] + n_sizes[ni]
        for ki in range(kb):
            b_panel = ops.b.panel(ki, ni)
            tasks = [
                StripTask(
                    ops.a.block(s, ki),
                    b_panel,
                    c[m_off[s] : m_off[s] + m_strips[s], n0:n1],
                )
                for s in rows
            ]
            groups.append(
                _group(
                    ops, tasks, rows, ki, ni,
                    index=ni * kb + ki,
                    coord=(ni, ki),
                    label=f"goto slice (ni={ni}, ki={ki}){suffix}",
                    panel=c[r0:r1, n0:n1],
                    operand_a=ops.stack_a(rows, ki) if ops.stack else None,
                )
            )
    return groups


def _group(ops, tasks, a_strips, k_panel, n_panel, **fields) -> StripGroup:
    cs_a, mag_a = ops.sums_a(a_strips, k_panel)
    cs_b, mag_b = ops.sums_b(k_panel, n_panel)
    return StripGroup(
        tasks=tasks,
        checksum_a=cs_a,
        checksum_b=cs_b,
        mag_a=mag_a,
        mag_b=mag_b,
        fresh_panel=k_panel == 0,
        **fields,
    )
