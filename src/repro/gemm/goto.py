"""The GOTO baseline engine (Goto's algorithm, Section 4.1).

Stands in for Intel MKL, ARM Performance Libraries and OpenBLAS — the
paper models all three as GOTO. Loop structure (Figure 5):

* outer loop over ``nc``-wide column panels of C (B panel resident in
  the LLC),
* middle loop over ``kc``-deep reduction slices,
* inner loop over waves of ``p`` square ``mc x kc`` A sub-blocks, one per
  core's L2; each core computes its own ``mc x nc`` partial C panel.

The defining contrast with CAKE: **partial C panels stream to DRAM** after
every slice and stream back for the next one, so external traffic carries
a ``(2*Kb - 1) * M * N`` partial-result term that grows with core count in
bandwidth terms — Section 4.1's ``BW_GOTO >= p``-scaling. Also unlike
CAKE, the M dimension is carved into *fixed* ``mc`` strips, so when
``M < p * mc`` some cores simply idle (visible as the flattened MKL
speedup for small matrices in Figure 9a).

Numerics and accounting run through the pipeline both engines share
(:class:`~repro.gemm.engine.GemmEngine`); the plan
(:class:`~repro.gemm.plan.GotoPlan`) packs ``mc x kc`` A blocks and
``kc x nc`` B panels and builds one strip group per ``(nc, kc)`` slice.
The loop nest below is the accounting oracle.
"""

from __future__ import annotations

from repro.gemm.counters import TrafficCounters
from repro.gemm.engine import GemmEngine
from repro.gemm.plan import GotoPlan, PlanOverride
from repro.perfmodel.roofline import ZERO_TIME, BlockTime, block_time
from repro.schedule.space import ComputationSpace


class GotoGemm(GemmEngine):
    """GOTO matrix-multiplication engine for one machine.

    Parameters are :class:`~repro.gemm.engine.GemmEngine`'s — the same
    as :class:`~repro.gemm.cake.CakeGemm` minus ``alpha`` (GOTO has no
    bandwidth-adaptive parameter — that is the point). An override's
    ``schedule`` and ``strips`` have no GOTO meaning and are ignored.
    ``workers`` threads fan out over the ``mc``-strip slabs of each
    ``(nc, kc)`` slice, preserving the N-then-M loop order and
    bit-identical numerics.
    """

    name = "goto"

    def _plan(
        self, space: ComputationSpace, override: PlanOverride | None
    ) -> GotoPlan:
        return GotoPlan.from_problem(
            self.machine, space, cores=self.cores, override=override
        )

    def _walk(
        self,
        plan: GotoPlan,
        schedule: str | None,
        counters: TrafficCounters,
    ) -> tuple[BlockTime, dict[str, int]]:
        """The Figure 5 loop nest, one ``(nc, kc, wave)`` block at a time."""
        machine = self.machine
        kernel = plan.kernel
        m_strips, n_sizes, k_sizes = plan.tiles()
        total = ZERO_TIME
        bound_blocks: dict[str, int] = {"compute": 0, "external": 0, "internal": 0}
        last_slice = len(k_sizes) - 1

        for nc_actual in n_sizes:
            for ki, kc_actual in enumerate(k_sizes):
                b_el = kc_actual * nc_actual
                counters.ext_b_read += b_el
                b_pending = b_el  # charged to the first wave of this panel

                # Waves of p strips: cores beyond the remaining strip count idle.
                for wave_start in range(0, len(m_strips), plan.cores):
                    wave = m_strips[wave_start : wave_start + plan.cores]
                    active = len(wave)
                    wave_rows = sum(wave)

                    a_el = wave_rows * kc_actual
                    counters.ext_a_read += a_el

                    c_el = wave_rows * nc_actual
                    if ki == last_slice:
                        counters.ext_c_write += c_el
                    else:
                        counters.ext_c_spill += c_el
                    c_read_el = c_el if ki > 0 else 0
                    counters.ext_c_read += c_read_el

                    cycles = kernel.panel_tile_cycles(
                        max(wave), nc_actual, kc_actual
                    )
                    counters.tile_cycles += cycles

                    internal = a_el + active * b_el + 2 * c_el
                    counters.internal += internal

                    ext_bytes = (
                        a_el + b_pending + c_el + c_read_el
                    ) * machine.element_bytes
                    b_pending = 0
                    bt = block_time(
                        machine,
                        active_cores=active,
                        tile_cycles=cycles,
                        kc=plan.kc,
                        ext_bytes=ext_bytes,
                        int_elements=internal,
                    )
                    total = total + bt
                    bound_blocks[bt.bound] += 1
        return total, bound_blocks
