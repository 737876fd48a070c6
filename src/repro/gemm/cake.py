"""The CAKE GEMM engine.

Executes ``C = A x B`` exactly as Sections 2-4 prescribe:

1. Derive a :class:`~repro.gemm.plan.CakePlan` (alpha from DRAM bandwidth,
   ``mc = kc`` from the LRU rule, block ``p*mc x kc x alpha*p*mc``).
2. Pack A into per-block contiguous sub-matrices and B into
   ``kc x n_block`` panels (Section 5.2.1).
3. Walk the K-first schedule of Algorithm 2. Within each block, the M
   extent is split evenly across the ``p`` cores (the CB shaping puts one
   A sub-block per core); each core sweeps the block's N extent,
   accumulating partial C **in place** in local memory. A block's partial
   C surface is written to DRAM only when its reduction run completes —
   CAKE moves no partial results externally, ever (``ext_c_spill`` and
   ``ext_c_read`` stay zero by construction, asserted in tests).
4. Tally traffic and price each block with the roofline
   (:func:`repro.perfmodel.roofline.block_time`).

Numerics run through the pipeline both engines share
(:class:`~repro.gemm.engine.GemmEngine`): the plan
(:class:`~repro.gemm.plan.CakePlan`) packs the operands and builds one
strip group per CB block, and with ``workers > 1`` the per-core strips
of each block run on real threads, bit-identical to the serial walk.
Counters come from the batch analyzer (:mod:`repro.analysis.batch`),
bit-for-bit equal to the walk below, which stays as its oracle.

Because blocks split M evenly among cores *per block*, CAKE keeps all
cores busy even when ``M`` is far smaller than ``p * mc`` — one of the two
mechanisms (with partial-C elimination) behind its small-matrix advantage
in Figures 8 and 9a.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gemm.counters import TrafficCounters
from repro.gemm.engine import GemmEngine
from repro.gemm.parallel import core_strips
from repro.gemm.plan import CakePlan, PlanOverride
from repro.machines.spec import MachineSpec
from repro.perfmodel.roofline import ZERO_TIME, BlockTime, block_time
from repro.schedule.reuse import SurfaceResidency
from repro.schedule.space import ComputationSpace


class CakeGemm(GemmEngine):
    """CAKE matrix-multiplication engine for one machine.

    Takes every :class:`~repro.gemm.engine.GemmEngine` parameter, plus:

    alpha:
        CB aspect factor; ``None`` derives it from DRAM bandwidth.

    A :class:`~repro.gemm.plan.PlanOverride` may also set ``schedule``
    (a reduction-complete block order) and ``strips`` (per-block host
    execution granularity; shard workers keep one strip per modelled
    core).
    """

    name = "cake"

    def __init__(
        self, machine: MachineSpec, *, alpha: float | None = None, **options
    ) -> None:
        super().__init__(machine, **options)
        self.alpha = alpha

    def _plan(
        self, space: ComputationSpace, override: PlanOverride | None
    ) -> CakePlan:
        return CakePlan.from_problem(
            self.machine, space, cores=self.cores, alpha=self.alpha,
            override=override,
        )

    def _walk(
        self,
        plan: CakePlan,
        schedule: str | None,
        counters: TrafficCounters,
    ) -> tuple[BlockTime, dict[str, int]]:
        """The K-first walk (or a ``schedule`` variant), block by block."""
        machine = self.machine
        grid = plan.grid()
        kernel = plan.kernel
        total = ZERO_TIME
        bound_blocks: dict[str, int] = {"compute": 0, "external": 0, "internal": 0}
        progress: dict[tuple[int, int], int] = {}

        def on_evict(key, elements: int) -> None:
            if key[0] == "C":  # partial results forced out: spill + refetch
                counters.ext_c_spill += elements

        residency = SurfaceResidency(
            plan.residency_elements, on_evict=on_evict
        )

        for coord in plan.order(schedule):
            ext = grid.extent(coord)
            a_key = ("A", coord.mi, coord.ki)
            b_key = ("B", coord.ki, coord.ni)
            c_res_key = ("C", coord.mi, coord.ni)
            pinned = (a_key, b_key, c_res_key)

            a_el = (
                0
                if residency.touch(a_key, ext.surface_a, pinned=pinned)
                else ext.surface_a
            )
            b_el = (
                0
                if residency.touch(b_key, ext.surface_b, pinned=pinned)
                else ext.surface_b
            )
            counters.ext_a_read += a_el
            counters.ext_b_read += b_el

            c_key = (coord.mi, coord.ni)
            c_resident = residency.touch(
                c_res_key, ext.surface_c, pinned=pinned
            )
            if not c_resident and progress.get(c_key, 0):
                counters.ext_c_read += ext.surface_c
            progress[c_key] = progress.get(c_key, 0) + 1
            c_write_el = ext.surface_c if progress[c_key] == grid.kb else 0
            counters.ext_c_write += c_write_el
            if c_write_el:
                residency.invalidate(c_res_key)

            strips = core_strips(ext.m, plan.cores)
            active = len(strips)
            cycles = kernel.panel_tile_cycles(max(strips), ext.n, ext.k)
            counters.tile_cycles += cycles

            internal = ext.surface_a + active * ext.surface_b + 2 * ext.surface_c
            counters.internal += internal

            bt = block_time(
                machine,
                active_cores=active,
                tile_cycles=cycles,
                kc=plan.kc,
                ext_bytes=(a_el + b_el + c_write_el) * machine.element_bytes,
                int_elements=internal,
            )
            total = total + bt
            bound_blocks[bt.bound] += 1

        if counters.ext_c_spill or counters.ext_c_read:  # pragma: no cover
            raise ConfigurationError(
                "CAKE's reduction-complete schedules must never spill"
                " partial results"
            )
        return total, bound_blocks
