"""Execution plans: from (machine, problem) to tiling parameters.

This is where CAKE's "no design search" claim lives. A
:class:`CakePlan` is derived *analytically*:

1. ``alpha`` from available DRAM bandwidth via ``alpha >= 1/(R-1)``
   (Section 3.2), evaluated jointly with the cache sizing — the
   bandwidth ratio ``R`` depends (through the tile depth ``kc``) on the
   block size the cache admits, so the smallest feasible alpha on a
   short candidate grid is taken (see ``from_problem``);
2. ``mc = kc`` from the LRU sizing rule ``C + 2(A+B) <= S`` (Section 4.3);
3. block extents ``p*mc x kc x alpha*p*mc`` (Section 4.2);
4. the K-first schedule of Algorithm 2.

A :class:`GotoPlan` fills its caches instead (Section 4.1): square
L2-resident A blocks and an LLC-filling B panel, with no bandwidth term —
which is exactly why its DRAM demand grows with core count.

A plan is also everything engine-specific about running a product —
the shard grid's block rows and columns, the summary, the memoized
accounting and the memoized :class:`ExecutionLayout` (pack chunks plus
every strip group's geometry) — so one pipeline
(:class:`~repro.gemm.engine.GemmEngine`) drives both engines. Plans are
small and picklable; a shard task ships one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.cb_block import CBBlock
from repro.core.cpu_model import CakeCpuParams, GotoCpuParams
from repro.core.lru_sizing import solve_cake_mc, solve_goto_tiles
from repro.errors import ConfigurationError
from repro.gemm.microkernel import MicroKernel
from repro.gemm.parallel import StripGroup, StripTask, core_strips
from repro.gemm.result import GemmRun
from repro.machines.spec import MachineSpec
from repro.packing.pack import PackedA, PackedB, PackedOperands, pack_a, pack_b
from repro.packing.pool import BufferPool
from repro.schedule.kfirst import kfirst_schedule
from repro.schedule.space import BlockCoord, BlockGrid, ComputationSpace
from repro.util import ceil_div, prefix_offsets, require_positive, split_length

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.gemm.sharded import ShardSpan

#: Hard cap on the aspect factor: past this, blocks are so wide that the
#: cache-sizing rule forces degenerate mc, and the machine is simply too
#: bandwidth-starved for the problem.
MAX_ALPHA = 64.0

#: Explicit bound on the process-wide plan memos. Long-lived servers see
#: an unbounded stream of shape classes; the memo must not grow planner
#: memory without limit, so every memo evicts LRU past this many entries
#: (re-deriving an evicted plan is pure math, microseconds; re-pricing
#: one is a single batch-analyzer pass).
PLAN_MEMO_MAXSIZE = 1024

#: Candidate aspect factors for the bandwidth-matching scan.
ALPHA_GRID: tuple[float, ...] = (
    1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
    10.0, 12.0, 16.0, 24.0, 32.0, 48.0, MAX_ALPHA,
)


def _resolve_cores(machine: MachineSpec, cores: int | None) -> int:
    cores = machine.cores if cores is None else cores
    require_positive("cores", cores)
    if cores > machine.cores:
        raise ConfigurationError(
            f"requested {cores} cores but {machine.name} has {machine.cores}"
        )
    return cores


def _balanced_extent(total: int, nominal: int) -> int:
    """Even block extent: same block count as ``nominal``, sizes balanced.

    ``ceil(total / ceil(total / nominal))`` — never exceeds the
    cache-derived nominal, and leaves a remainder of at most the number
    of blocks (instead of an arbitrarily small ragged block).
    """
    blocks = ceil_div(total, min(nominal, total))
    return ceil_div(total, blocks)


def _external_elements_per_cycle(machine: MachineSpec, kc: int) -> float:
    """Available DRAM bandwidth in *operand* elements per model cycle.

    Physical traffic exceeds counted operand traffic by the machine's
    ``external_traffic_factor``, so the bandwidth available to operands
    is the nominal rate divided by that factor.
    """
    bytes_per_second = (
        machine.dram_bytes_per_second / machine.external_traffic_factor
    )
    elements_per_second = bytes_per_second / machine.element_bytes
    return elements_per_second / machine.tile_ops_per_second(kc)


@dataclass(frozen=True, slots=True)
class PlanOverride:
    """Targeted deviations from the analytic plan (the autotuner's seam).

    Every field defaults to "keep the analytic value"; the autotuner
    (:mod:`repro.tune`) searches over the fields that are safe to vary
    and persists the winner. The seam is deliberately narrow:

    ``alpha``, ``mc``, ``nc``
        Re-shape the CB block (CAKE) or the cache tiles (GOTO) along M
        and N only. M/N re-blocking never changes any C element's
        reduction order, so these are bit-safe by construction.
    ``kc``
        Allowed but **bit-hazardous**: re-blocking K changes the
        floating-point accumulation grouping. The tuner pins ``kc`` to
        the analytic value; an explicit override here is for
        experiments, and tuner validation rejects any candidate whose
        product drifts from the analytic plan's.
    ``strips``
        Host execution granularity: split each block's M extent into
        this many strip tasks instead of one per *modelled* core.
        Purely an execution knob — the schedule walk still prices the
        plan at the modelled core count, so counters and modelled time
        are unchanged. On hosts with fewer real cores than the model,
        coarser strips trade scheduling overhead for larger kernel
        calls.
    ``workers``
        Host threads for the numeric executor; applies only when the
        engine was not given an explicit ``workers`` argument (an
        explicit request, e.g. a serve degradation rung, always wins).
    ``schedule``
        Block-order variant name (:mod:`repro.schedule.variants`). Only
        reduction-complete orders (``k-first``, ``naive``) are legal
        for CAKE execution — orders that abandon partial C surfaces
        violate the engine's no-spill contract (the MOMMS loop-order
        discussion is why those variants are excluded, not searched).
    """

    alpha: float | None = None
    mc: int | None = None
    kc: int | None = None
    nc: int | None = None
    strips: int | None = None
    workers: int | None = None
    schedule: str | None = None

    def __post_init__(self) -> None:
        if self.alpha is not None and not 0.0 < self.alpha <= MAX_ALPHA:
            raise ConfigurationError(
                f"override alpha must be in (0, {MAX_ALPHA}], got {self.alpha}"
            )
        for name in ("mc", "kc", "nc", "strips", "workers"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(
                    f"override {name} must be > 0, got {value!r}"
                )
        if self.schedule is not None and self.schedule not in (
            "k-first",
            "naive",
        ):
            raise ConfigurationError(
                f"override schedule must be a reduction-complete variant "
                f"('k-first' or 'naive'), got {self.schedule!r}"
            )

    def as_dict(self) -> dict:
        """JSON-ready form (None fields included, for the plan cache)."""
        return {
            "alpha": self.alpha,
            "mc": self.mc,
            "kc": self.kc,
            "nc": self.nc,
            "strips": self.strips,
            "workers": self.workers,
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PlanOverride":
        """Inverse of :meth:`as_dict` (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ConfigurationError(
                f"unknown PlanOverride fields {sorted(extra)}"
            )
        return cls(**doc)


class GroupLayout(NamedTuple):
    """One strip group's geometry: everything but the operands' bytes.

    The group reads the packed A blocks ``a_strips`` (rows of the A
    block grid) at K panel ``k_panel`` against B panel
    ``(k_panel, n_panel)``, and updates the C panel ``c[rows, cols]``
    (its origin and extent). Each of ``strips`` is one task:
    ``(A block row, rows of that A block, rows of the C panel)``.
    ``index``, ``coord`` and ``label`` are the group's schedule position
    (the fault-injection and verification key) and its names in error
    reports.
    """

    index: int
    coord: tuple
    label: str
    a_strips: range
    k_panel: int
    n_panel: int
    rows: slice
    cols: slice
    strips: tuple[tuple[int, slice, slice], ...]


@dataclass(frozen=True, slots=True)
class ExecutionLayout:
    """How a plan runs, fixed before any operand is seen.

    ``chunks`` is the pack tiling ``(rows, kc, cols)``: A packs into
    ``rows x kc`` blocks and B into ``kc x cols`` panels. ``groups`` is
    every strip group of one (schedule, strips, shard span) choice, in
    execution order. CAKE derives all of it from the plan without search
    (Sections 3 and 4.2), so it is memoized per plan (:meth:`_Plan.layout`)
    and a call only packs and slices views.
    """

    chunks: tuple[int, int, int]
    groups: tuple[GroupLayout, ...]

    def pack(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        pool: BufferPool | None = None,
        exact: bool = False,
        checksums: bool = False,
    ) -> tuple[PackedA, PackedB]:
        """Pack A and B into this layout's blocks and panels."""
        rows, kc, cols = self.chunks
        return (
            pack_a(a, rows, kc, pool=pool, exact=exact, checksums=checksums),
            pack_b(b, kc, cols, pool=pool, exact=exact, checksums=checksums),
        )

    def strip_groups(
        self, ops: PackedOperands, c: np.ndarray
    ) -> list[StripGroup]:
        """The strip groups over packed ``ops`` and the output ``c``.

        Pure view arithmetic: each group's tasks slice its A blocks, B
        panel and C panel by the memoized geometry. A group of one A
        block reads that block as its stacked operand; a group of
        several stacks them only when ``ops`` asks for stacks.
        """
        a_blocks, b_panels = ops.a.blocks, ops.b.panels
        groups: list[StripGroup] = []
        for g in self.groups:
            ki = g.k_panel
            b_panel = b_panels[ki][g.n_panel]
            panel = c[g.rows, g.cols]
            tasks = [
                StripTask(a_blocks[s][ki][a_rows], b_panel, panel[c_rows])
                for s, a_rows, c_rows in g.strips
            ]
            if len(g.a_strips) == 1:
                operand_a = a_blocks[g.a_strips.start][ki]
            else:
                operand_a = ops.stack_a(g.a_strips, ki) if ops.stack else None
            cs_a, mag_a = ops.sums_a(g.a_strips, ki)
            cs_b, mag_b = ops.sums_b(ki, g.n_panel)
            groups.append(
                StripGroup(
                    tasks=tasks,
                    index=g.index,
                    coord=g.coord,
                    label=g.label,
                    checksum_a=cs_a,
                    checksum_b=cs_b,
                    panel=panel,
                    fresh_panel=ki == 0,
                    operand_a=operand_a,
                    mag_a=mag_a,
                    mag_b=mag_b,
                )
            )
        return groups


class _Plan:
    """What every engine plan shares. Subclasses are frozen dataclasses
    with ``machine``, ``space``, ``cores`` and ``kc`` fields, a
    ``_pack_chunks`` triple ``(rows, kc, cols)`` and a ``_group_layouts``
    builder."""

    __slots__ = ()

    @property
    def kernel(self) -> MicroKernel:
        """The register-tile micro-kernel this plan drives."""
        return MicroKernel(mr=self.machine.mr, nr=self.machine.nr, kc=self.kc)

    def accounting(self, schedule: str | None = None) -> GemmRun:
        """Traffic and timing of this plan under ``schedule`` (``c=None``).

        The batch analyzer's result, memoized per (plan, schedule); each
        call gets its own copy of the mutable parts.
        """
        return _fresh(_accounting(self, schedule))

    def layout(
        self,
        schedule: str | None = None,
        strips: int | None = None,
        span: "ShardSpan | None" = None,
    ) -> ExecutionLayout:
        """Pack chunks and strip-group geometry, memoized per
        (plan, schedule, strips, span).

        ``strips`` splits each group's rows into that many tasks instead
        of one per modelled core. With a ``span`` only that shard's
        groups are kept, but indices and strip shapes are the
        in-process run's (the sharded bit-identity argument).
        """
        return _layout(self, schedule, strips, span)


@dataclass(frozen=True, slots=True)
class CakePlan(_Plan):
    """Analytically-derived CAKE tiling for one (machine, problem) pair."""

    machine: MachineSpec
    space: ComputationSpace
    cores: int
    alpha: float
    mc: int
    kc: int

    @classmethod
    def from_problem(
        cls,
        machine: MachineSpec,
        space: ComputationSpace,
        *,
        cores: int | None = None,
        alpha: float | None = None,
        override: "PlanOverride | None" = None,
    ) -> "CakePlan":
        """Derive the plan; ``alpha=None`` selects it from DRAM bandwidth.

        An ``override`` (the autotuner's seam) replaces individual
        fields of the analytically-derived plan *after* derivation:
        ``alpha`` redirects the bandwidth scan, ``mc``/``kc`` replace
        the LRU-solved extents. Execution-only override fields
        (``strips``, ``workers``, ``schedule``) do not affect the plan
        itself and are applied by the engines.

        Alpha selection applies the Section 3.2 feasibility condition
        ``BW_avail >= BW_min(alpha) = ((alpha+1)/alpha) * mr * nr`` with
        both sides evaluated *consistently*: raising alpha lowers the
        requirement but (through the LRU sizing rule) may shrink
        ``mc = kc``, which shortens the model cycle and lowers the
        per-cycle supply too. The plan takes the smallest alpha on a
        short candidate grid that satisfies the condition; when no alpha
        is feasible (hopelessly starved DRAM), it takes the alpha with
        the most bandwidth headroom — still a closed evaluation of
        Section 3's equations, not a performance search.

        Plans are memoized on ``(machine, space, cores, alpha)``: the
        derivation is pure and every input is frozen/hashable, and the
        sweeps re-derive the same plan for every block of a problem —
        once through ``plan_for`` and again through ``analyze`` — so
        repeated calls return the *same* :class:`CakePlan` instance.
        """
        return _cake_plan(
            machine, space, _resolve_cores(machine, cores), alpha, override
        )

    @property
    def m_block(self) -> int:
        """CB block extent along M: ``p * mc``, balanced to the problem.

        The cache-derived extent fixes how many blocks M needs; the
        actual extent then splits M evenly across those blocks, so a
        2000-row problem against a nominal 1920-row block becomes two
        balanced 1000-row blocks instead of 1920 + 80 — every block keeps
        all ``p`` cores evenly loaded. This is the "analytically shaped
        to the problem" behaviour that lets CAKE avoid GOTO's
        fixed-strip load imbalance on small and skewed matrices.
        """
        return _balanced_extent(self.space.m, self.cores * self.mc)

    @property
    def n_block(self) -> int:
        """CB block extent along N: ``alpha * p * mc``, balanced likewise."""
        nominal = max(int(self.alpha * self.cores * self.mc), self.machine.nr)
        return _balanced_extent(self.space.n, nominal)

    @property
    def block(self) -> CBBlock:
        """The nominal CB block."""
        return CBBlock(m=self.m_block, n=self.n_block, k=self.kc)

    @property
    def residency_elements(self) -> int:
        """Local-memory element budget the Section 4.3 rule guarantees.

        ``C + 2(A + B)`` of the *cache-sized* nominal block
        (``p*mc x alpha*p*mc x kc``) — the LRU sizing rule solved ``mc``
        so exactly this much fits the LLC. When the problem's balanced
        blocks are smaller than nominal, the slack retains surfaces of
        earlier blocks; the engine's counters model that retention via
        :class:`repro.schedule.reuse.SurfaceResidency`.
        """
        mm = self.cores * self.mc
        nn = max(int(self.alpha * self.cores * self.mc), self.machine.nr)
        kk = self.kc
        return mm * nn + 2 * (mm * kk + kk * nn)

    @property
    def cpu_params(self) -> CakeCpuParams:
        """The plan as Section 4.2 parameters (for the equation layer)."""
        return CakeCpuParams(
            p=self.cores,
            mc=self.mc,
            kc=self.kc,
            alpha=self.alpha,
            mr=self.machine.mr,
            nr=self.machine.nr,
        )

    def grid(self) -> BlockGrid:
        """Partition the problem space with this plan's CB block."""
        return BlockGrid(self.space, self.block)

    def schedule(self) -> list[BlockCoord]:
        """The K-first block order of Algorithm 2."""
        return kfirst_schedule(self.grid())

    def order(self, schedule: str | None = None) -> list[BlockCoord]:
        """The block order of a schedule variant (``None``: K-first)."""
        if schedule is None or schedule == "k-first":
            return self.schedule()
        from repro.schedule.variants import build_schedule

        return build_schedule(schedule, self.grid())

    # -- execution -----------------------------------------------------------

    def summary(self) -> dict:
        """The tiling, as ``GemmRun.plan_summary`` reports it."""
        return {
            "alpha": self.alpha,
            "mc": self.mc,
            "kc": self.kc,
            "m_block": self.m_block,
            "n_block": self.n_block,
            "blocks": self.grid().num_blocks,
        }

    def override_summary(self, override: "PlanOverride") -> dict:
        """What an override adds to the summary: itself and the schedule."""
        return {
            "override": override.as_dict(),
            "schedule": override.schedule or "k-first",
        }

    def _analyze(self, schedule: str | None) -> GemmRun:
        from repro.analysis.batch import analyze_cake_batch  # lazy: pkg cycle

        return analyze_cake_batch(
            self.machine, self.space, plan=self, schedule=schedule or "k-first"
        )

    @property
    def _pack_chunks(self) -> tuple[int, int, int]:
        return self.m_block, self.kc, self.n_block

    def shard_extents(self) -> tuple[list[int], list[int]]:
        """Heights of the block rows and widths of the block columns."""
        m_sizes, n_sizes, _ = self.grid().size_arrays()
        return m_sizes.tolist(), n_sizes.tolist()

    def _group_layouts(
        self,
        schedule: str | None,
        strips: int | None,
        span: "ShardSpan | None",
    ) -> tuple[GroupLayout, ...]:
        """One group per CB block, in ``schedule`` order.

        Each block's M extent splits into ``strips`` row strips (default:
        one per modelled core). With a ``span`` only that shard's blocks
        are kept, but the *whole* schedule is still walked, so group
        indices and strip shapes match the in-process run's exactly.
        """
        grid = self.grid()
        suffix = "" if span is None else f" [shard ({span.row}, {span.col})]"
        groups: list[GroupLayout] = []
        for index, coord in enumerate(self.order(schedule)):
            mi, ni, ki = coord.mi, coord.ni, coord.ki
            if span is not None and not (
                span.mi0 <= mi < span.mi1 and span.ni0 <= ni < span.ni1
            ):
                continue
            ext = grid.extent(coord)
            m0, n0, _k0 = grid.origin(coord)
            heights = core_strips(ext.m, strips or self.cores)
            rows = [
                slice(r0, r0 + h)
                for r0, h in zip(prefix_offsets(heights), heights)
            ]
            groups.append(
                GroupLayout(
                    index=index,
                    coord=(mi, ni, ki),
                    label=f"cake block (mi={mi}, ni={ni}, ki={ki}){suffix}",
                    a_strips=range(mi, mi + 1),
                    k_panel=ki,
                    n_panel=ni,
                    rows=slice(m0, m0 + ext.m),
                    cols=slice(n0, n0 + ext.n),
                    strips=tuple((mi, r, r) for r in rows),
                )
            )
        return tuple(groups)


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _cake_plan(
    machine: MachineSpec,
    space: ComputationSpace,
    cores: int,
    alpha: float | None,
    override: "PlanOverride | None" = None,
) -> CakePlan:
    """The memoized body of :meth:`CakePlan.from_problem` (cores resolved)."""
    if override is not None:
        if override.alpha is not None:
            alpha = override.alpha
        base = _cake_plan(machine, space, cores, alpha)
        return CakePlan(
            machine,
            space,
            cores,
            base.alpha,
            base.mc if override.mc is None else override.mc,
            base.kc if override.kc is None else override.kc,
        )
    if alpha is not None:
        mc = solve_cake_mc(
            p=cores,
            alpha=alpha,
            llc_elements=machine.llc_elements,
            l2_elements=machine.l2_elements,
            mr=machine.mr,
            nr=machine.nr,
        )
        return CakePlan(machine, space, cores, alpha, mc, mc)

    best: tuple[float, float, int] | None = None  # (headroom, alpha, mc)
    for candidate in ALPHA_GRID:
        try:
            mc = solve_cake_mc(
                p=cores,
                alpha=candidate,
                llc_elements=machine.llc_elements,
                l2_elements=machine.l2_elements,
                mr=machine.mr,
                nr=machine.nr,
            )
        except ConfigurationError:
            break  # wider blocks can only be less feasible
        available = _external_elements_per_cycle(machine, mc)
        required = (candidate + 1.0) / candidate * machine.mr * machine.nr
        headroom = available / required
        if headroom >= 1.0:
            return CakePlan(machine, space, cores, candidate, mc, mc)
        if best is None or headroom > best[0]:
            best = (headroom, candidate, mc)
    if best is None:
        raise ConfigurationError(
            f"{machine.name}: no feasible CB block for {cores} cores"
        )
    return CakePlan(machine, space, cores, best[1], best[2], best[2])


@dataclass(frozen=True, slots=True)
class GotoPlan(_Plan):
    """Cache-filling GOTO tiling (Section 4.1) for the baseline engine."""

    machine: MachineSpec
    space: ComputationSpace
    cores: int
    mc: int
    kc: int
    nc: int

    @classmethod
    def from_problem(
        cls,
        machine: MachineSpec,
        space: ComputationSpace,
        *,
        cores: int | None = None,
        override: "PlanOverride | None" = None,
    ) -> "GotoPlan":
        """Derive GOTO tiles from the machine's cache sizes alone.

        An ``override`` replaces ``mc``/``kc``/``nc`` after derivation
        (``alpha`` has no meaning for GOTO and is ignored; execution-only
        fields are applied by the engine). Memoized on
        ``(machine, space, cores, override)`` like
        :meth:`CakePlan.from_problem`.
        """
        return _goto_plan(machine, space, _resolve_cores(machine, cores), override)

    @property
    def cpu_params(self) -> GotoCpuParams:
        """The plan as Section 4.1 parameters (for the equation layer)."""
        return GotoCpuParams(
            p=self.cores,
            mc=self.mc,
            kc=self.kc,
            nc=self.nc,
            mr=self.machine.mr,
            nr=self.machine.nr,
        )

    def tiles(self) -> tuple[list[int], list[int], list[int]]:
        """The ``mc`` strips of M, ``nc`` panels of N and ``kc`` slices
        of K, ragged edges last."""
        space = self.space
        return (
            split_length(space.m, min(self.mc, space.m)),
            split_length(space.n, min(self.nc, space.n)),
            split_length(space.k, min(self.kc, space.k)),
        )

    # -- execution -----------------------------------------------------------

    def summary(self) -> dict:
        """The tiling, as ``GemmRun.plan_summary`` reports it."""
        return {
            "mc": self.mc,
            "kc": self.kc,
            "nc": self.nc,
            "m_strips": len(self.tiles()[0]),
        }

    def override_summary(self, override: "PlanOverride") -> dict:
        """What an override adds to the summary (GOTO has one loop order)."""
        return {"override": override.as_dict()}

    def _analyze(self, schedule: str | None) -> GemmRun:
        # GOTO has one loop order: ``schedule`` has no meaning here.
        from repro.analysis.batch import analyze_goto_batch  # lazy: pkg cycle

        return analyze_goto_batch(self.machine, self.space, plan=self)

    @property
    def _pack_chunks(self) -> tuple[int, int, int]:
        return self.mc, self.kc, self.nc

    def shard_extents(self) -> tuple[list[int], list[int]]:
        """Heights of the ``mc`` strips and widths of the ``nc`` panels."""
        m_strips, n_sizes, _ = self.tiles()
        return m_strips, n_sizes

    def layout(
        self,
        schedule: str | None = None,
        strips: int | None = None,
        span: "ShardSpan | None" = None,
    ) -> ExecutionLayout:
        """As :meth:`_Plan.layout`; GOTO has one loop order and fixed
        ``mc`` strips, so ``schedule`` and ``strips`` are ignored."""
        return _layout(self, None, None, span)

    def _group_layouts(
        self,
        schedule: str | None,
        strips: int | None,
        span: "ShardSpan | None",
    ) -> tuple[GroupLayout, ...]:
        """One group per ``(nc, kc)`` slice, in the N-then-K nest.

        Every ``mc`` strip of a slice updates a disjoint C row panel, so
        all waves of the slice form one group; the cross-slice barrier
        keeps each C element's accumulation order identical to the
        serial nest. Group indices are the nest positions
        ``ni * Kb + ki``. With a ``span`` only that shard's strips and
        panels are kept, and strip indices within a group are
        shard-local, which only moves fault-injection targets, never
        the numerics.
        """
        m_strips, n_sizes, k_sizes = self.tiles()
        m_off, n_off = prefix_offsets(m_strips), prefix_offsets(n_sizes)
        kb = len(k_sizes)
        if span is None:
            a_strips, cols = range(len(m_strips)), range(len(n_sizes))
        else:
            a_strips = range(span.mi0, span.mi1)
            cols = range(span.ni0, span.ni1)
        r0 = m_off[a_strips.start]
        r1 = m_off[a_strips.stop - 1] + m_strips[a_strips.stop - 1]
        rows = slice(r0, r1)
        # Every slice of the span runs the same strips: one shared tuple.
        tasks = tuple(
            (
                s,
                slice(0, m_strips[s]),
                slice(m_off[s] - r0, m_off[s] - r0 + m_strips[s]),
            )
            for s in a_strips
        )
        suffix = "" if span is None else f" [shard ({span.row}, {span.col})]"
        return tuple(
            GroupLayout(
                index=ni * kb + ki,
                coord=(ni, ki),
                label=f"goto slice (ni={ni}, ki={ki}){suffix}",
                a_strips=a_strips,
                k_panel=ki,
                n_panel=ni,
                rows=rows,
                cols=slice(n_off[ni], n_off[ni] + n_sizes[ni]),
                strips=tasks,
            )
            for ni in cols
            for ki in range(kb)
        )


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _goto_plan(
    machine: MachineSpec,
    space: ComputationSpace,
    cores: int,
    override: "PlanOverride | None" = None,
) -> GotoPlan:
    """The memoized body of :meth:`GotoPlan.from_problem` (cores resolved)."""
    if override is not None:
        base = _goto_plan(machine, space, cores)
        return GotoPlan(
            machine,
            space,
            cores,
            mc=base.mc if override.mc is None else override.mc,
            kc=base.kc if override.kc is None else override.kc,
            nc=base.nc if override.nc is None else override.nc,
        )
    params = solve_goto_tiles(
        p=cores,
        llc_elements=machine.llc_elements,
        l2_elements=machine.l2_elements,
        mr=machine.mr,
        nr=machine.nr,
    )
    return GotoPlan(
        machine, space, cores, mc=params.mc, kc=params.kc, nc=params.nc
    )


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _accounting(plan: "CakePlan | GotoPlan", schedule: str | None) -> GemmRun:
    """The memoized body of the plans' ``accounting`` methods."""
    return plan._analyze(schedule)


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _layout(
    plan: "CakePlan | GotoPlan",
    schedule: str | None,
    strips: int | None,
    span: "ShardSpan | None",
) -> ExecutionLayout:
    """The memoized body of the plans' ``layout`` methods."""
    return ExecutionLayout(
        plan._pack_chunks, plan._group_layouts(schedule, strips, span)
    )


def _fresh(run: GemmRun) -> GemmRun:
    """A memoized run with its own copies of every mutable part.

    An accounting run sets only the fields passed here (the rest keep
    their defaults); building it directly skips ``dataclasses.replace``'s
    per-field introspection.
    """
    return GemmRun(
        run.engine,
        run.machine,
        run.space,
        run.cores,
        run.counters.copy(),
        run.time,
        run.packing_seconds,
        dict(run.bound_blocks),
        dict(run.plan_summary),
    )


def plan_cache_info() -> dict[str, object]:
    """Hit/miss/size counters for the plan, accounting and layout memos
    (for audits and tests)."""
    return {
        "maxsize": PLAN_MEMO_MAXSIZE,
        "cake": _cake_plan.cache_info()._asdict(),
        "goto": _goto_plan.cache_info()._asdict(),
        "accounting": _accounting.cache_info()._asdict(),
        "layout": _layout.cache_info()._asdict(),
    }


def clear_plan_memos() -> None:
    """Drop every memoized plan, accounting and layout (tests; never
    needed for correctness)."""
    _cake_plan.cache_clear()
    _goto_plan.cache_clear()
    _accounting.cache_clear()
    _layout.cache_clear()
