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

Numerics execute through the shared strip-group executor
(:mod:`repro.gemm.parallel`): with ``workers > 1`` the per-core strips
of each block run on real threads, bit-identical to the serial walk.
Counters always come from the deterministic schedule walk above, never
from the threads.

Because blocks split M evenly among cores *per block*, CAKE keeps all
cores busy even when ``M`` is far smaller than ``p * mc`` — one of the two
mechanisms (with partial-C elimination) behind its small-matrix advantage
in Figures 8 and 9a.
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
    core_strips,
    resolve_workers,
    run_strip_groups,
)
from repro.gemm.plan import CakePlan, PlanOverride
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
from repro.packing.pack import pack_a_cake, pack_b_cake
from repro.packing.pool import BufferPool
from repro.perfmodel.roofline import ZERO_TIME, block_time
from repro.schedule.reuse import SurfaceResidency
from repro.schedule.space import BlockCoord, ComputationSpace
#: Backward-compatible alias: the strip partitioner now lives in
#: :mod:`repro.gemm.parallel` so the sharded executor shares it.
_core_strips = core_strips


class CakeGemm:
    """CAKE matrix-multiplication engine for one machine.

    Parameters
    ----------
    machine:
        Platform model the run is priced on.
    cores:
        Cores to use (default: all of them).
    alpha:
        CB aspect factor; ``None`` derives it from DRAM bandwidth.
    exact_tiles:
        Execute every ``mr x nr`` register tile explicitly instead of one
        vectorised panel product per core strip (slow; for validation).
    exact_walk:
        Run :meth:`analyze` through the scalar per-block walk instead of
        the vectorized batch analyzer. The two are bit-for-bit identical
        (asserted by tests); the flag exists as the oracle for those
        equivalence tests and for debugging the walk block by block.
        :meth:`multiply` always walks scalar — it must execute tiles.
    workers:
        Host threads for numeric execution (``None`` or 1: inline
        serial). Within each CB block the per-core strips run
        concurrently on disjoint C row panels; the product is
        bit-identical to the serial path for any worker count
        (see :mod:`repro.gemm.parallel`).
    exact_pack:
        Pack operands with the original nested-loop packer instead of
        the vectorized strided copy. Bit-identical buffers (asserted by
        tests); kept as the packing oracle.
    verify:
        ABFT verified execution (:mod:`repro.gemm.verify`): ``True`` for
        defaults, a :class:`~repro.gemm.verify.VerifyConfig` to tune the
        tolerance band, recovery ladder, or fault-injection plan. Each
        CB block's C update is checksum-validated at its barrier and
        healed (or reported) on mismatch; a clean verified run is
        bit-identical to an unverified one. With a non-oracle
        ``backend`` this is the headline scenario: a fast untrusted
        compute path checked against pack-time checksums, with the
        per-strip oracle as the trusted recovery rung.
    backend:
        Compute backend for numeric execution
        (:mod:`repro.gemm.backends`): a registered name (``"numpy"``,
        ``"blas-group"``, ``"torch"``) or a
        :class:`~repro.gemm.backends.Backend` instance. The schedule,
        packing, counters and timing model are backend-invariant; only
        how each strip group multiplies changes. Unknown or unavailable
        names raise a structured
        :class:`~repro.errors.BackendCapabilityError` here, at
        construction.
    processes:
        Worker *processes* for numeric execution
        (:mod:`repro.gemm.sharded`): the M x N grid of CB blocks is
        partitioned into a near-square shard grid, packed operands are
        placed in shared memory, and each shard runs this engine's
        threaded executor in its own process on a disjoint C panel.
        ``None``/1 is the ordinary in-process path; an int requests that
        many processes (clamped to the block grid); a
        :class:`~repro.gemm.sharded.ShardConfig` tunes rebuild/fallback
        behaviour. The product is bit-identical to the serial path for
        every (processes x workers x backend) combination. Incompatible
        with ``exact_pack`` (workers rebuild the vectorized pack's
        buffer grid) and with unregistered backend instances.
    pool:
        A :class:`~repro.packing.pool.BufferPool` to lease packed
        operand buffers from, or ``None`` for a private per-engine pool.
        Passing a shared pool (the serve layer does, per shape class)
        makes packed-buffer reuse span engines; the pool is
        thread-safe, so concurrent ``multiply`` calls through one pool
        are fine.
    plan:
        A :class:`~repro.gemm.plan.PlanOverride` replacing individual
        analytic plan fields (the autotuner's seam). Plan-shape fields
        (``alpha``/``mc``/``kc``) redirect the derivation; execution
        fields apply here: ``schedule`` selects a reduction-complete
        block-order variant, ``strips`` sets the host execution
        granularity (counters still price the modelled core count), and
        ``workers`` applies only when the engine got no explicit
        ``workers`` argument. Incompatible with ``tuned``.
    tuned:
        Resolve a :class:`PlanOverride` from the persistent tune cache
        per multiplied shape (:mod:`repro.tune`): ``True`` uses the
        process default :class:`~repro.tune.TuneConfig`, or pass a
        config; ``False`` disables tuning outright, and the default
        ``None`` defers to the process-wide switch
        (:func:`repro.tune.set_default_tune` — what ``cake-bench
        --tuned`` flips). A cache miss tunes synchronously on first
        use (the serve layer instead tunes off the request path via
        :class:`~repro.tune.PlanService`). Only :meth:`multiply`
        resolves tuned plans — :meth:`analyze` prices the analytic (or
        explicitly overridden) plan.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        cores: int | None = None,
        alpha: float | None = None,
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
        self.alpha = alpha
        self.exact_tiles = exact_tiles
        self.exact_walk = exact_walk
        self.workers = resolve_workers(workers)
        self._workers_explicit = workers is not None
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
        # An injected pool lets callers (the serve batcher) share packed
        # operand buffers across engines serving one shape class; the
        # default keeps each engine's reuse private, as before.
        self._pool = BufferPool() if pool is None else pool

    # -- public API ----------------------------------------------------------

    def plan_for(self, m: int, n: int, k: int) -> CakePlan:
        """The plan this engine would use for an ``m x k . k x n`` product."""
        return CakePlan.from_problem(
            self.machine,
            ComputationSpace(m, n, k),
            cores=self.cores,
            alpha=self.alpha,
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
            engine="cake",
            space=space,
            dtype=dtype,
            cores=self.cores,
            backend=self.backend.name,
            processes=self.shards.processes if self.shards is not None else 1,
            config=None if tuned is True else tuned,
        )

    def multiply(self, a: np.ndarray, b: np.ndarray) -> GemmRun:
        """Compute ``A x B``, returning numerics plus full accounting.

        Operands may be F-ordered, transposed views or otherwise
        non-contiguous — packing copies them exactly once either way.
        Integer/boolean dtypes are rejected (silent overflow); float32
        operands accumulate in float32. Degenerate shapes follow BLAS:
        ``K == 0`` returns a zero-filled ``M x N`` C, ``M == 0`` or
        ``N == 0`` an empty one.
        """
        dtype = check_multiply_operands(a, b, backend=self.backend)
        m, k, n = a.shape[0], a.shape[1], b.shape[1]
        if m == 0 or n == 0 or k == 0:
            return degenerate_run(
                "cake", self.machine, m, n, k, dtype,
                cores=self.cores or self.machine.cores,
                workers=self.workers,
                backend=self.backend.name,
            )
        space = ComputationSpace(m, n, k)
        return self._run(space, a=a, b=b)

    def analyze(self, m: int, n: int, k: int) -> GemmRun:
        """Traffic and timing accounting only — no numerical execution.

        Same accounting as :meth:`multiply`, with ``c=None`` in the
        result; this is what the large-problem figure sweeps call. By
        default it runs the vectorized batch analyzer
        (:func:`repro.analysis.batch.analyze_cake_batch`), which is
        bit-for-bit identical to the scalar walk; pass
        ``exact_walk=True`` to the constructor to force the walk.
        """
        if self.exact_walk:
            return self._run(ComputationSpace(m, n, k))
        from repro.analysis.batch import analyze_cake_batch  # lazy: pkg cycle

        return analyze_cake_batch(
            self.machine,
            ComputationSpace(m, n, k),
            cores=self.cores,
            alpha=self.alpha,
            plan=self.plan_for(m, n, k) if self.override is not None else None,
            schedule=(self.override.schedule or "k-first")
            if self.override is not None
            else "k-first",
        )

    # -- the schedule walk ----------------------------------------------------

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
        plan = CakePlan.from_problem(
            machine, space, cores=self.cores, alpha=self.alpha,
            override=override,
        )
        grid = plan.grid()
        schedule_name = "k-first"
        if override is not None and override.schedule is not None:
            schedule_name = override.schedule
        if schedule_name == "k-first":
            order = plan.schedule()
        else:
            from repro.schedule.variants import build_schedule

            order = build_schedule(schedule_name, grid)
        # Execution-only override fields: strip granularity (counters
        # still price the modelled core count) and worker threads (an
        # explicit workers= argument always wins). The sharded path keeps
        # its own internal granularity, so strips only shapes the
        # in-process executor's tasks.
        exec_granularity = override.strips if override is not None else None
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
            packed_a = pack_a_cake(
                a, plan.m_block, plan.kc,
                pool=self._pool, exact=self.exact_pack, checksums=verifying,
            )
            packed_b = pack_b_cake(
                b, plan.kc, plan.n_block,
                pool=self._pool, exact=self.exact_pack, checksums=verifying,
            )
            timers.pack_seconds = time.perf_counter() - pack_start
            c = np.zeros((space.m, space.n), dtype=np.result_type(a, b))
        groups: list[StripGroup] = []

        counters = TrafficCounters()
        counters.ext_pack = 2 * (space.m * space.k + space.k * space.n)
        pack = packing_cost(
            machine, space.m * space.k, space.k * space.n
        )
        counters.macs = space.macs

        total = ZERO_TIME
        bound_blocks: dict[str, int] = {"compute": 0, "external": 0, "internal": 0}
        progress: dict[tuple[int, int], int] = {}

        def on_evict(key, elements: int) -> None:
            if key[0] == "C":  # partial results forced out: spill + refetch
                counters.ext_c_spill += elements

        residency = SurfaceResidency(
            plan.residency_elements, on_evict=on_evict
        )

        for coord in order:
            ext = grid.extent(coord)
            m0, n0, k0 = grid.origin(coord)

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

            strips = _core_strips(ext.m, plan.cores)
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

            if build_groups:
                assert packed_a is not None and packed_b is not None and c is not None
                a_block = packed_a.block(coord.mi, coord.ki)
                b_panel = packed_b.panel(coord.ki, coord.ni)
                c_view = c[m0 : m0 + ext.m, n0 : n0 + ext.n]
                exec_strips = (
                    strips
                    if exec_granularity is None
                    else _core_strips(ext.m, exec_granularity)
                )
                tasks: list[StripTask] = []
                r0 = 0
                for rows in exec_strips:
                    tasks.append(
                        StripTask(
                            a_block[r0 : r0 + rows],
                            b_panel,
                            c_view[r0 : r0 + rows],
                        )
                    )
                    r0 += rows
                groups.append(
                    StripGroup(
                        tasks=tasks,
                        index=len(groups),
                        coord=(coord.mi, coord.ni, coord.ki),
                        label=f"cake block (mi={coord.mi}, ni={coord.ni}, "
                        f"ki={coord.ki})",
                        checksum_a=(
                            packed_a.checksum(coord.mi, coord.ki)
                            if verifying else None
                        ),
                        checksum_b=(
                            packed_b.checksum(coord.ki, coord.ni)
                            if verifying else None
                        ),
                        panel=c_view,
                        fresh_panel=coord.ki == 0,
                        operand_a=a_block,
                        mag_a=(
                            packed_a.magnitude(coord.mi, coord.ki)
                            if verifying else None
                        ),
                        mag_b=(
                            packed_b.magnitude(coord.ki, coord.ni)
                            if verifying else None
                        ),
                    )
                )

        if counters.ext_c_spill or counters.ext_c_read:  # pragma: no cover
            raise ConfigurationError(
                "CAKE's reduction-complete schedules must never spill"
                " partial results"
            )

        report = None
        shard_report = None
        if numeric:
            assert b is not None
            if shards is not None:
                c, shard_report, report = multiply_sharded(
                    engine="cake",
                    dims={
                        "m": space.m,
                        "n": space.n,
                        "k": space.k,
                        "m_block": plan.m_block,
                        "n_block": plan.n_block,
                        "kc": plan.kc,
                        "mr": machine.mr,
                        "nr": machine.nr,
                        "cores": plan.cores,
                    },
                    row_extents=[
                        grid.extent(BlockCoord(mi, 0, 0)).m
                        for mi in range(grid.mb)
                    ],
                    col_extents=[
                        grid.extent(BlockCoord(0, ni, 0)).n
                        for ni in range(grid.nb)
                    ],
                    pack=lambda pool: (
                        pack_a_cake(a, plan.m_block, plan.kc, pool=pool),
                        pack_b_cake(b, plan.kc, plan.n_block, pool=pool),
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

        plan_summary = {
            "alpha": plan.alpha,
            "mc": plan.mc,
            "kc": plan.kc,
            "m_block": plan.m_block,
            "n_block": plan.n_block,
            "blocks": grid.num_blocks,
        }
        if override is not None:
            plan_summary["override"] = override.as_dict()
            plan_summary["schedule"] = schedule_name
        return GemmRun(
            engine="cake",
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
