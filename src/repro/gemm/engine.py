"""The one engine pipeline CAKE and GOTO share.

The paper's CAKE and GOTO differ only in block shape and loop order
(Section 3 and Algorithm 2 against Section 4.1), so one pipeline runs
both: resolve the plan (analytic, overridden or tuned), read its
accounting from the batch analyzer memoized per (plan, schedule), then
pack and slice the strip groups of its execution layout (memoized per
plan, schedule and strips) and run them in process
(:mod:`repro.gemm.parallel`) or across shard processes
(:mod:`repro.gemm.sharded`), verified when asked
(:mod:`repro.gemm.verify`). Everything engine-specific is on the plan
object (:mod:`repro.gemm.plan`), so a new loop order is a new plan, not
a new engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigurationError
from repro.gemm.backends import Backend, resolve_backend
from repro.gemm.counters import TrafficCounters
from repro.gemm.parallel import (
    PhaseTimers,
    check_multiply_operands,
    resolve_workers,
)
from repro.gemm.plan import CakePlan, GotoPlan, PlanOverride
from repro.gemm.result import GemmRun, accounting_run, degenerate_run
from repro.gemm.sharded import ShardConfig, multiply_sharded, resolve_shards
from repro.gemm.verify import (
    VerifyConfig,
    VerifyReport,
    resolve_verify,
    run_verified,
)
from repro.machines.spec import MachineSpec
from repro.packing.pack import PackedOperands
from repro.packing.pool import BufferPool
from repro.schedule.space import ComputationSpace


class GemmEngine:
    """The matrix-multiplication pipeline for one machine.

    Subclasses set ``name`` and supply ``_plan(space, override)``, the
    plan for a problem, and ``_walk(plan, schedule, counters)``, the
    scalar accounting oracle: it tallies ``counters`` block by block
    and returns the summed ``BlockTime`` and the bound tallies.

    Parameters
    ----------
    machine:
        Platform model the run is priced on.
    cores:
        Cores to use (default: all of them).
    exact_tiles:
        Execute every ``mr x nr`` register tile explicitly instead of one
        vectorised panel product per core strip (slow; for validation).
    exact_walk:
        Run :meth:`analyze` through the engine's scalar per-block walk
        instead of the vectorized batch analyzer. The two are bit-for-bit
        identical (asserted by tests); the walk is the accounting oracle
        for those tests and for debugging block by block.
        :meth:`multiply` always reads the batch analyzer's accounting.
    workers:
        Host threads for numeric execution (``None`` or 1: inline
        serial). The strips of each strip group run concurrently on
        disjoint C row panels; the product is bit-identical to the
        serial path for any worker count (see :mod:`repro.gemm.parallel`).
    exact_pack:
        Pack operands with the original nested-loop packer instead of
        the vectorized strided copy. Bit-identical buffers (asserted by
        tests); kept as the packing oracle.
    verify:
        ABFT verified execution (:mod:`repro.gemm.verify`): ``True`` for
        defaults, a :class:`~repro.gemm.verify.VerifyConfig` to tune the
        tolerance band, recovery ladder, or fault-injection plan. Each
        strip group's C update is checksum-validated at its barrier and
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
        (:mod:`repro.gemm.sharded`): the M x N block grid is partitioned
        into a near-square shard grid, packed operands are placed in
        shared memory, and each shard runs the threaded executor in its
        own process on a disjoint C panel. ``None``/1 is the ordinary
        in-process path; an int requests that many processes (clamped to
        the block grid); a :class:`~repro.gemm.sharded.ShardConfig`
        tunes rebuild/fallback behaviour. The product is bit-identical
        to the serial path for every (processes x workers x backend)
        combination. Incompatible with ``exact_pack`` (workers rebuild
        the vectorized pack's buffer grid) and with unregistered backend
        instances.
    pool:
        A :class:`~repro.packing.pool.BufferPool` to lease packed
        operand buffers from, or ``None`` for a private per-engine pool
        (made by the engine's second in-process call).
        Passing a shared pool (the serve layer does, per shape class)
        makes packed-buffer reuse span engines; the pool is
        thread-safe, so concurrent ``multiply`` calls through one pool
        are fine.
    plan:
        A :class:`~repro.gemm.plan.PlanOverride` replacing individual
        analytic plan fields (the autotuner's seam). Plan-shape fields
        redirect the derivation; execution fields apply here:
        ``schedule`` selects a reduction-complete block-order variant
        and ``strips`` the host execution granularity (CAKE only;
        counters still price the modelled core count), and ``workers``
        applies only when the engine got no explicit ``workers``
        argument. Incompatible with ``tuned``.
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

    #: Engine name recorded on every run and tune key.
    name: str

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
        # default keeps each engine's reuse private (see _call_pool).
        self._pool = pool
        self._called = False

    # -- public API ----------------------------------------------------------

    def plan_for(self, m: int, n: int, k: int) -> "CakePlan | GotoPlan":
        """The plan this engine would use for an ``m x k . k x n`` product."""
        return self._plan(ComputationSpace(m, n, k), self.override)

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
                self.name, self.machine, m, n, k, dtype,
                cores=self.cores or self.machine.cores,
                workers=self.workers,
                backend=self.backend.name,
            )
        space = ComputationSpace(m, n, k)
        override = self._tuned_override(space, dtype)
        plan = self._plan(space, override)
        run = self._accounting(plan, override)
        schedule = None if override is None else override.schedule
        workers = self.workers
        if (
            override is not None
            and override.workers is not None
            and not self._workers_explicit
        ):
            workers = resolve_workers(override.workers)
        timers = PhaseTimers()
        if self.shards is not None:
            run.c, run.shards, run.verify = multiply_sharded(
                plan,
                a,
                b,
                schedule=schedule,
                dtype=dtype,
                config=self.shards,
                workers=workers,
                backend=self.backend.name,
                verify=self.verify,
                exact_tiles=self.exact_tiles,
                timers=timers,
            )
            run.counters.ipc_bytes = run.shards.ipc_bytes
            run.processes = run.shards.processes
        else:
            run.c, run.verify = self._execute(
                plan, a, b, dtype,
                schedule=schedule,
                strips=None if override is None else override.strips,
                workers=workers,
                timers=timers,
            )
        run.workers = workers
        run.backend = self.backend.name
        run.phase_seconds = timers.as_dict()
        return run

    def analyze(self, m: int, n: int, k: int) -> GemmRun:
        """Traffic and timing accounting only — no numerical execution.

        Same accounting as :meth:`multiply`, with ``c=None`` in the
        result; this is what the large-problem figure sweeps call. It
        comes from the vectorized batch analyzer
        (:mod:`repro.analysis.batch`), memoized per plan; pass
        ``exact_walk=True`` to the constructor to run the scalar walk
        instead, which is bit-for-bit identical.
        """
        plan = self.plan_for(m, n, k)
        return self._accounting(plan, self.override, exact=self.exact_walk)

    # -- the pipeline ----------------------------------------------------------

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
            engine=self.name,
            space=space,
            dtype=dtype,
            cores=self.cores,
            backend=self.backend.name,
            processes=self.shards.processes if self.shards is not None else 1,
            config=None if tuned is True else tuned,
        )

    def _accounting(
        self,
        plan: "CakePlan | GotoPlan",
        override: PlanOverride | None,
        *,
        exact: bool = False,
    ) -> GemmRun:
        """The plan's accounting as a fresh ``GemmRun`` with ``c=None``."""
        schedule = None if override is None else override.schedule
        if exact:
            counters = TrafficCounters()
            total, bound_blocks = self._walk(plan, schedule, counters)
            run = accounting_run(
                self.name, plan, counters, total, bound_blocks
            )
        else:
            run = plan.accounting(schedule)
        if override is not None:
            run.plan_summary.update(plan.override_summary(override))
        return run

    def _execute(
        self,
        plan: "CakePlan | GotoPlan",
        a: np.ndarray,
        b: np.ndarray,
        dtype: np.dtype,
        *,
        schedule: str | None,
        strips: int | None,
        workers: int,
        timers: PhaseTimers,
    ) -> tuple[np.ndarray, VerifyReport | None]:
        """The in-process run: pack, build the groups, execute, release."""
        verifying = self.verify is not None and self.verify.enabled
        layout = plan.layout(schedule, strips)
        pool = self._call_pool()
        start = time.perf_counter()
        packed_a, packed_b = layout.pack(
            a, b, pool=pool, exact=self.exact_pack, checksums=verifying
        )
        timers.pack_seconds = time.perf_counter() - start
        c = np.zeros((plan.space.m, plan.space.n), dtype=dtype)
        ops = PackedOperands(
            packed_a,
            packed_b,
            checksums="pack" if verifying else None,
            stack=self.backend.capabilities.grouped,
            pool=pool,
        )
        groups = layout.strip_groups(ops, c)
        kernel = plan.kernel
        report = run_verified(
            groups,
            kernel,
            verify=self.verify,
            checksum_elements=ops.checksum_elements,
            backend=self.backend.create(
                kernel=kernel, exact_tiles=self.exact_tiles
            ),
            workers=workers,
            exact_tiles=self.exact_tiles,
            timers=timers,
        )
        ops.release()
        return c, report

    def _call_pool(self) -> "BufferPool | None":
        """The pool this call leases packed buffers from.

        An engine given no pool makes its private one on its second
        call: the first call of a single-use engine (what
        :func:`~repro.api.cake_matmul` builds) leases plain arrays and
        returns nothing, since a pool it released into would die with
        it. Racing first calls may each make a pool and one is dropped;
        every lease still comes from a locked pool, so no buffer is
        shared.
        """
        if self._pool is None and self._called:
            self._pool = BufferPool()
        self._called = True
        return self._pool
