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
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigurationError
from repro.gemm.backends import Backend, resolve_backend
from repro.gemm.counters import TrafficCounters
from repro.gemm.parallel import (
    PhaseTimers,
    StripGroup,
    StripTask,
    check_multiply_operands,
    resolve_workers,
    run_strip_groups,
)
from repro.gemm.plan import GotoPlan, PlanOverride
from repro.gemm.result import GemmRun, degenerate_run
from repro.gemm.verify import (
    GroupVerifier,
    VerifyConfig,
    VerifyReport,
    resolve_verify,
)
from repro.gemm.sharded import ShardConfig, multiply_sharded, resolve_shards
from repro.machines.spec import MachineSpec
from repro.packing.cost import packing_cost
from repro.packing.pack import pack_a_goto, pack_b_goto
from repro.packing.pool import BufferPool
from repro.perfmodel.roofline import ZERO_TIME, block_time
from repro.schedule.space import ComputationSpace
from repro.util import split_length


class GotoGemm:
    """GOTO matrix-multiplication engine for one machine.

    Parameters mirror :class:`~repro.gemm.cake.CakeGemm` minus ``alpha``
    (GOTO has no bandwidth-adaptive parameter — that is the point).
    Numeric execution shares CAKE's executor
    (:mod:`repro.gemm.parallel`): ``workers`` threads fan out over the
    ``mc``-strip slabs of each ``(nc, kc)`` slice, preserving the
    N-then-M loop order and bit-identical numerics.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        cores: int | None = None,
        exact_tiles: bool = False,
        exact_walk: bool = False,
        workers: int | None = None,
        exact_pack: bool = False,
        verify: bool | VerifyConfig = False,
        backend: "str | Backend | None" = None,
        processes: "int | ShardConfig | None" = None,
        pool: "BufferPool | None" = None,
        plan: "PlanOverride | None" = None,
        tuned: object = None,
    ) -> None:
        self.machine = machine
        self.cores = cores
        self.exact_tiles = exact_tiles
        self.exact_walk = exact_walk
        self.workers = resolve_workers(workers)
        self._workers_explicit = workers is not None
        # Same autotuner seam as CakeGemm: an explicit PlanOverride
        # replaces mc/kc/nc after derivation (schedule/strips have no
        # GOTO meaning and are ignored); tuned= consults the plan cache.
        self.override = plan
        self.tuned = tuned
        if plan is not None and tuned:
            raise ConfigurationError(
                "plan= and tuned= are mutually exclusive: an explicit "
                "override already decides the plan"
            )
        self.exact_pack = exact_pack
        self.verify = resolve_verify(verify)
        self.backend = resolve_backend(backend)
        self.shards = resolve_shards(processes)
        if self.shards is not None and self.exact_pack:
            raise ConfigurationError(
                "processes > 1 is incompatible with exact_pack: shard "
                "workers rebuild the vectorized pack's buffer grid over "
                "shared memory, which the loop oracle does not produce"
            )
        # Same sharing hook as CakeGemm: a caller-supplied pool spans
        # engines (the serve batcher's per-class reuse); None stays
        # private.
        self._pool = BufferPool() if pool is None else pool

    # -- public API ----------------------------------------------------------

    def plan_for(self, m: int, n: int, k: int) -> GotoPlan:
        """The plan this engine would use for an ``m x k . k x n`` product."""
        return GotoPlan.from_problem(
            self.machine,
            ComputationSpace(m, n, k),
            cores=self.cores,
            override=self.override,
        )

    def _tuned_override(
        self, space: ComputationSpace, dtype: np.dtype
    ) -> "PlanOverride | None":
        """The override for this multiply: explicit, tuned, or none."""
        if self.override is not None:
            return self.override
        tuned = self.tuned
        if tuned is None:  # defer to the process default (--tuned)
            from repro.tune import get_default_tune  # lazy: pkg cycle

            tuned = get_default_tune()
        if not tuned:
            return None
        from repro.tune import tuned_override  # lazy: pkg cycle

        return tuned_override(
            self.machine,
            engine="goto",
            space=space,
            dtype=dtype,
            cores=self.cores,
            backend=self.backend.name,
            processes=self.shards.processes if self.shards is not None else 1,
            config=None if tuned is True else tuned,
        )

    def multiply(self, a: np.ndarray, b: np.ndarray) -> GemmRun:
        """Compute ``A x B``, returning numerics plus full accounting.

        Same operand contract as :meth:`CakeGemm.multiply`: any layout
        is packed with a single copy, integer dtypes are rejected, and
        float32 stays float32.
        """
        dtype = check_multiply_operands(a, b, backend=self.backend)
        m, k, n = a.shape[0], a.shape[1], b.shape[1]
        if m == 0 or n == 0 or k == 0:
            return degenerate_run(
                "goto", self.machine, m, n, k, dtype,
                cores=self.cores or self.machine.cores,
                workers=self.workers,
                backend=self.backend.name,
            )
        space = ComputationSpace(m, n, k)
        return self._run(space, a=a, b=b)

    def analyze(self, m: int, n: int, k: int) -> GemmRun:
        """Traffic and timing accounting only — no numerical execution.

        Runs the vectorized batch analyzer by default
        (:func:`repro.analysis.batch.analyze_goto_batch`, bit-identical
        to the loop nest); ``exact_walk=True`` forces the scalar nest.
        """
        if self.exact_walk:
            return self._run(ComputationSpace(m, n, k))
        from repro.analysis.batch import analyze_goto_batch  # lazy: pkg cycle

        return analyze_goto_batch(
            self.machine,
            ComputationSpace(m, n, k),
            cores=self.cores,
            plan=self.plan_for(m, n, k) if self.override is not None else None,
        )

    # -- the loop nest ---------------------------------------------------------

    def _run(
        self,
        space: ComputationSpace,
        a: np.ndarray | None = None,
        b: np.ndarray | None = None,
    ) -> GemmRun:
        machine = self.machine
        numeric = a is not None
        override = self.override
        if numeric:
            assert b is not None
            override = self._tuned_override(space, np.result_type(a, b))
        plan = GotoPlan.from_problem(
            machine, space, cores=self.cores, override=override
        )
        run_workers = self.workers
        if (
            override is not None
            and override.workers is not None
            and not self._workers_explicit
        ):
            run_workers = resolve_workers(override.workers)
        kernel = plan.kernel

        shards = self.shards if numeric else None
        verifying = numeric and self.verify is not None and self.verify.enabled
        timers = PhaseTimers()
        build_groups = numeric and shards is None
        packed_a = packed_b = c = None
        if build_groups:
            assert b is not None
            # Sharded runs pack inside multiply_sharded instead, into
            # its shared-memory arena, and compute checksum material
            # inside each shard.
            pack_start = time.perf_counter()
            packed_a = pack_a_goto(
                a, plan.mc, plan.kc,
                pool=self._pool, exact=self.exact_pack, checksums=verifying,
            )
            packed_b = pack_b_goto(
                b, plan.kc, plan.nc,
                pool=self._pool, exact=self.exact_pack, checksums=verifying,
            )
            timers.pack_seconds = time.perf_counter() - pack_start
            c = np.zeros((space.m, space.n), dtype=np.result_type(a, b))
        groups: list[StripGroup] = []
        # A slice-group's column checksum spans every mc-strip of A at
        # that ki; identical for all ni, so summed once per ki. The
        # concatenated A operand and its magnitude sums are likewise
        # shared by every ni at that ki.
        cs_a_by_ki: dict[int, np.ndarray] = {}
        a_full_by_ki: dict[int, np.ndarray] = {}
        mag_a_by_ki: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        counters = TrafficCounters()
        counters.ext_pack = 2 * (space.m * space.k + space.k * space.n)
        pack = packing_cost(machine, space.m * space.k, space.k * space.n)
        counters.macs = space.macs

        m_strips = split_length(space.m, min(plan.mc, space.m))
        n_sizes = split_length(space.n, min(plan.nc, space.n))
        k_sizes = split_length(space.k, min(plan.kc, space.k))
        m_offsets = _offsets(m_strips)
        n_offsets = _offsets(n_sizes)
        k_offsets = _offsets(k_sizes)

        total = ZERO_TIME
        bound_blocks: dict[str, int] = {"compute": 0, "external": 0, "internal": 0}
        last_slice = len(k_sizes) - 1

        for ni, nc_actual in enumerate(n_sizes):
            for ki, kc_actual in enumerate(k_sizes):
                b_el = kc_actual * nc_actual
                counters.ext_b_read += b_el
                b_pending = b_el  # charged to the first wave of this panel
                # One strip group per (nc, kc) slice: every mc-strip of the
                # slice updates a disjoint C row panel, so all waves'
                # strips may run concurrently; the cross-slice barrier
                # keeps each C element's accumulation order identical to
                # the serial nest.
                tasks: list[StripTask] = []

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

                    if build_groups:
                        assert (
                            packed_a is not None
                            and packed_b is not None
                            and c is not None
                        )
                        b_panel = packed_b.panel(ki, ni)
                        n0 = n_offsets[ni]
                        for lane, rows in enumerate(wave):
                            strip = wave_start + lane
                            m0 = m_offsets[strip]
                            tasks.append(
                                StripTask(
                                    packed_a.block(strip, ki),
                                    b_panel,
                                    c[m0 : m0 + rows, n0 : n0 + nc_actual],
                                )
                            )
                if build_groups:
                    assert packed_a is not None and packed_b is not None
                    cs_a = cs_b = a_full = mag_a = mag_b = None
                    # The concatenated A operand serves two consumers: the
                    # verifier's group checksum check, and whole-group
                    # backends, which multiply it in a single call.
                    if verifying or self.backend.capabilities.grouped:
                        if ki not in a_full_by_ki:
                            a_full_by_ki[ki] = packed_a.column(
                                ki, pool=self._pool
                            )
                        a_full = a_full_by_ki[ki]
                    if verifying:
                        if ki not in cs_a_by_ki:
                            acc = packed_a.checksum(0, ki).copy()
                            for strip in range(1, len(m_strips)):
                                acc += packed_a.checksum(strip, ki)
                            cs_a_by_ki[ki] = acc
                            col_acc = packed_a.magnitude(0, ki)[0].copy()
                            row_parts = [packed_a.magnitude(0, ki)[1]]
                            for strip in range(1, len(m_strips)):
                                s_col, s_row = packed_a.magnitude(strip, ki)
                                col_acc += s_col
                                row_parts.append(s_row)
                            mag_a_by_ki[ki] = (
                                col_acc, np.concatenate(row_parts)
                            )
                        cs_a = cs_a_by_ki[ki]
                        cs_b = packed_b.checksum(ki, ni)
                        mag_a = mag_a_by_ki[ki]
                        mag_b = packed_b.magnitude(ki, ni)
                    groups.append(
                        StripGroup(
                            tasks=tasks,
                            index=len(groups),
                            coord=(ni, ki),
                            label=f"goto slice (ni={ni}, ki={ki})",
                            checksum_a=cs_a,
                            checksum_b=cs_b,
                            panel=c[
                                :, n_offsets[ni] : n_offsets[ni] + nc_actual
                            ],
                            fresh_panel=ki == 0,
                            operand_a=a_full,
                            mag_a=mag_a,
                            mag_b=mag_b,
                        )
                    )

        report = None
        shard_report = None
        if numeric:
            assert b is not None
            if shards is not None:
                c, shard_report, report = multiply_sharded(
                    engine="goto",
                    dims={
                        "m": space.m,
                        "n": space.n,
                        "k": space.k,
                        "mc": plan.mc,
                        "kc": plan.kc,
                        "nc": plan.nc,
                        "mr": machine.mr,
                        "nr": machine.nr,
                    },
                    row_extents=m_strips,
                    col_extents=n_sizes,
                    pack=lambda pool: (
                        pack_a_goto(a, plan.mc, plan.kc, pool=pool),
                        pack_b_goto(b, plan.kc, plan.nc, pool=pool),
                    ),
                    dtype=np.result_type(a, b),
                    config=shards,
                    workers=run_workers,
                    backend=self.backend.name,
                    verify=self.verify,
                    exact_tiles=self.exact_tiles,
                    timers=timers,
                    element_bytes=machine.element_bytes,
                )
                counters.ipc_bytes = shard_report.ipc_bytes
            else:
                assert packed_a is not None and packed_b is not None
                verifier = faults = None
                if self.verify is not None:
                    if self.verify.inject is not None:
                        from repro.runtime.faults import NumericFaultInjector

                        faults = NumericFaultInjector(self.verify.inject)
                    if verifying:
                        report = VerifyReport(
                            checksum_elements=packed_a.checksum_elements
                            + packed_b.checksum_elements
                        )
                        verifier = GroupVerifier(self.verify, report, timers)
                run_strip_groups(
                    groups,
                    kernel,
                    workers=run_workers,
                    exact_tiles=self.exact_tiles,
                    timers=timers,
                    verifier=verifier,
                    faults=faults,
                    backend=self.backend.create(
                        kernel=kernel, exact_tiles=self.exact_tiles
                    ),
                )
                packed_a.release_to(self._pool)
                packed_b.release_to(self._pool)
                # Single-strip columns are zero-copy views into the pack
                # buffers (released above); only multi-strip concatenations
                # were leased.
                if a_full_by_ki and packed_a.strips > 1:
                    self._pool.release(*a_full_by_ki.values())

        plan_summary = {
            "mc": plan.mc,
            "kc": plan.kc,
            "nc": plan.nc,
            "m_strips": len(m_strips),
        }
        if override is not None:
            plan_summary["override"] = override.as_dict()
        return GemmRun(
            engine="goto",
            machine=machine,
            space=space,
            cores=plan.cores,
            counters=counters,
            time=total,
            packing_seconds=pack.seconds,
            bound_blocks=bound_blocks,
            plan_summary=plan_summary,
            c=c,
            workers=run_workers if numeric else 1,
            backend=self.backend.name if numeric else "numpy",
            phase_seconds=timers.as_dict() if numeric else None,
            verify=report,
            processes=shard_report.processes if shard_report is not None else 1,
            shards=shard_report,
        )


def _offsets(sizes: list[int]) -> list[int]:
    out = [0]
    for s in sizes[:-1]:
        out.append(out[-1] + s)
    return out
