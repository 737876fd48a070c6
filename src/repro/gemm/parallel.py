"""The shared multi-core numeric execution engine.

Section 2's headline claim is that computation throughput scales with the
core count ``p`` while external bandwidth stays constant. The analytic
side of that claim lives in the schedule walk and the roofline; this
module is the *wall-clock* side: it executes the engines' block schedules
with real threads, using the paper's per-core M-decomposition.

Execution model
---------------

Both engines hand the executor an ordered sequence of **strip groups**:

* For CAKE, one group per CB block of the K-first schedule. Within the
  group, each strip is one core's ``mc``-row slab of packed A multiplied
  against the block's B panel, accumulating into that core's *disjoint*
  C row panel — lock-free by construction, exactly the CB shaping of
  Section 4.2.
* For GOTO, one group per ``(nc, kc)`` slice of the Figure 5 loop nest;
  strips are the ``mc x kc`` A sub-blocks of that slice (all M waves),
  again with disjoint C row panels.

Groups are barriers: group ``g+1`` starts only after every strip of group
``g`` completed. That ordering is what makes the parallel product
**bit-identical** to the serial walk — each C element sees the same
``+=`` sequence of identically-shaped matmuls in the same order, only
the (independent) strips within one group run concurrently. NumPy's
matmul releases the GIL, so a ``ThreadPoolExecutor`` scales on real
cores with zero pickling or shared-memory setup.

*How* a strip (or a whole group) multiplies is delegated to a pluggable
:class:`~repro.gemm.backends.Backend`. The default is the per-strip
NumPy oracle; ``grouped`` backends (``blas-group``, ``torch``) instead
execute each group as one whole-panel library call on the orchestrator
thread — the barrier structure, the accumulation order per C element,
and the traffic accounting are identical either way. For any *fixed*
backend the result is bit-identical across worker counts; across
*backends* results agree within each backend's declared agreement band
(bit-exact for backends declaring determinism).

Traffic/timing accounting never runs here — counters come from the
plan's deterministic (batch-analyzed) schedule, so ``GemmRun`` rows are
identical whether numerics ran serial or parallel (asserted in tests).

Phase timers
------------

:class:`PhaseTimers` captures per-phase wall-clock so future PRs can
profile the engine:

* ``pack`` — building the packed operands (orchestrator wall time);
* ``compute`` — per-strip kernel time, **summed across workers** (with
  ``w`` workers on ``w`` idle cores this exceeds the elapsed wall time
  by up to ``w``; the ratio is the achieved parallelism);
* ``reduce`` — orchestrator time blocked on group barriers waiting for
  workers to finish (load imbalance + GIL contention indicator; zero on
  the inline ``workers=1`` path);
* ``verify`` / ``recover`` — ABFT checksum validation and recovery-ladder
  time when the run executes verified (:mod:`repro.gemm.verify`); zero
  otherwise.

Verified execution
------------------

When the engine passes a :class:`~repro.gemm.verify.GroupVerifier`, each
group asks the verifier for a restore point before its strips are
submitted (usually free: a fresh or fully-verified panel is rebuilt by
replaying its history, so only unknown mid-accumulation panels are
copied) and the checksum identities are checked **at the group
barrier**, on the orchestrator thread. Recovery (strip recompute,
oracle fallback) therefore
completes before the next group starts — the ``+=`` order every C element
sees is unchanged, which is what keeps a healed run bit-identical to a
clean one for any worker count. Fault injection
(:class:`~repro.runtime.faults.NumericFaultInjector`) hooks the same
seam: a strip's output panel is corrupted right after its kernel call,
keyed deterministically by ``(group, strip)``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import (
    Backend,
    execute_group,
    group_eligible,
)
from repro.gemm.backends.numpy_backend import NumpyBackend
from repro.gemm.microkernel import MicroKernel
from repro.util import ceil_div, require_positive, split_length

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.gemm.backends.registry import BackendSpec
    from repro.gemm.verify import GroupVerifier
    from repro.runtime.faults import NumericFaultInjector


class StripTask(NamedTuple):
    """One core's slab of work: ``c += a @ b`` on disjoint C rows."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class StripGroup(NamedTuple):
    """One barrier's worth of strips, plus its ABFT identity material.

    Engines that run unverified may keep handing the executor plain
    sequences of :class:`StripTask`; the executor wraps them. ``index``
    is the group's position in the schedule (the fault-injection key),
    ``coord``/``label`` identify the block in error reports, and the
    checksum vectors are the pack-time ``colsum(A_group)`` (length ``k``)
    and ``rowsum(B_group)`` (length ``k``) driving the column/row
    identities. ``checksum_a is None`` means the group runs unverified.
    ``panel``, when an engine can provide it, is the single C view whose
    rows are exactly the tasks' C strips stacked in task order — it lets
    the verifier snapshot and reduce the whole panel in one numpy call
    each instead of stacking the strips itself. ``operand_a`` plays the
    same role for the A side: one array whose rows are the tasks' A
    strips in task order. ``mag_a``/``mag_b`` are the group operands'
    pack-time absolute-value sums ``(|X|.sum(axis=0), |X|.sum(axis=1))``
    — with them the verifier's tolerance band costs O(m + n) vector
    arithmetic per group instead of a fresh ``|A|``/``|B|`` scan.
    """

    tasks: Sequence[StripTask]
    index: int = 0
    coord: tuple = ()
    label: str = "block"
    checksum_a: np.ndarray | None = None
    checksum_b: np.ndarray | None = None
    panel: np.ndarray | None = None
    #: True when this group is the first update of its C panel and the
    #: panel is still all-zero — the verifier then skips the snapshot
    #: copy (restore is a zero fill) and starts from zero "before" sums.
    fresh_panel: bool = False
    operand_a: np.ndarray | None = None
    mag_a: tuple[np.ndarray, np.ndarray] | None = None
    mag_b: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(slots=True)
class PhaseTimers:
    """Wall-clock pack/compute/reduce/verify/recover accounting."""

    pack_seconds: float = 0.0
    compute_seconds: float = 0.0
    reduce_seconds: float = 0.0
    verify_seconds: float = 0.0
    recover_seconds: float = 0.0
    #: Workers the run was executed with (1 = inline serial path).
    workers: int = 1

    def as_dict(self) -> dict[str, float]:
        """The breakdown in the shape ``GemmRun.phase_seconds`` carries."""
        return {
            "pack": self.pack_seconds,
            "compute": self.compute_seconds,
            "reduce": self.reduce_seconds,
            "verify": self.verify_seconds,
            "recover": self.recover_seconds,
        }


def core_strips(rows: int, cores: int) -> list[int]:
    """Split a block's M extent evenly over the cores.

    Returns at most ``cores`` strip heights differing by at most the
    rounding chunk; fewer strips than cores means idle cores (only when
    ``rows < cores``). Shared by the CAKE walk and its strip-group
    builder, which in-process runs and shard workers both use, so the
    strips are identical for the bit-identity contract to hold.
    """
    return split_length(rows, ceil_div(rows, cores))


def resolve_workers(workers: int | None) -> int:
    """Normalize an engine's ``workers`` parameter (``None`` -> serial)."""
    if workers is None:
        return 1
    require_positive("workers", workers)
    return workers


def check_multiply_operands(
    a: np.ndarray,
    b: np.ndarray,
    backend: "Backend | BackendSpec | None" = None,
) -> np.dtype:
    """Validate operand dtypes/shapes for numeric execution.

    Returns the accumulation dtype (``np.result_type`` of the operands:
    float32 inputs stay float32, mixed precision widens). Integer and
    boolean operands are rejected outright — blocked accumulation of
    fixed-width integers silently wraps on overflow, which no GEMM user
    wants from a library that otherwise reproduces BLAS semantics.

    Dtype rejections raise the structured
    :class:`~repro.errors.BackendCapabilityError` (a ``TypeError``
    subclass) naming the backend that refused — both for the universal
    integer/boolean rejection and for dtypes outside the selected
    ``backend``'s declared capability envelope (e.g. complex operands on
    the torch backend), so capability failures never surface as a
    generic ``TypeError`` deep in a kernel.

    Operands that are not numpy arrays (lists, scalars) raise a plain
    ``TypeError`` naming the operand; array-likes are not converted.

    Layout is deliberately *not* validated: F-ordered, transposed and
    non-contiguous operands are first-class. The packing pass copies
    them block-contiguous in a single strided pass, so no caller ever
    needs (or pays for) an ``np.ascontiguousarray`` staging copy.
    """
    for name, x in (("a", a), ("b", b)):
        if not isinstance(x, np.ndarray):
            raise TypeError(
                f"{name} must be a numpy array, got {type(x).__name__}"
            )
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("operands must be 2-D arrays")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )
    out = np.result_type(a, b)
    name = backend.name if backend is not None else "numpy"
    if out.kind not in ("f", "c"):  # floating or complex floating
        raise BackendCapabilityError(
            name,
            f"refusing to multiply {a.dtype} x {b.dtype} operands: blocked "
            f"accumulation in {out} integer arithmetic wraps silently on "
            f"overflow; cast the operands to a floating dtype first "
            f"(e.g. a.astype(np.float64))",
            dtype=out,
        )
    if backend is not None and not backend.supports_dtype(out):
        raise BackendCapabilityError(
            name,
            f"does not support {out} accumulation "
            f"(operands {a.dtype} x {b.dtype}); select a backend whose "
            f"capabilities cover this dtype (the 'numpy' oracle always "
            f"does) or cast the operands",
            dtype=out,
        )
    return out


def _timed_strip(
    backend: Backend,
    task: StripTask,
    group_index: int = 0,
    strip_index: int = 0,
    faults: "NumericFaultInjector | None" = None,
) -> float:
    """Execute one strip through the backend, returning its wall time.

    Injected corruption lands right after the numeric update — the seam
    a soft error or bad thread would hit — keyed ``(group, strip)`` so
    the same strips corrupt for any worker count.
    """
    start = time.perf_counter()
    backend.matmul_strip(task.a, task.b, task.c)
    if faults is not None:
        faults.corrupt(group_index, strip_index, task.c)
    return time.perf_counter() - start


def _timed_group(
    backend: Backend,
    group: StripGroup,
    faults: "NumericFaultInjector | None",
) -> float:
    """Execute one whole strip group inline, returning its wall time."""
    start = time.perf_counter()
    execute_group(backend, group, faults)
    return time.perf_counter() - start


def _as_group(group: "StripGroup | Sequence[StripTask]", index: int) -> StripGroup:
    if isinstance(group, StripGroup):
        return group
    return StripGroup(tasks=group, index=index)


def run_strip_groups(
    groups: "Iterable[StripGroup | Sequence[StripTask]]",
    kernel: MicroKernel,
    *,
    workers: int = 1,
    exact_tiles: bool = False,
    timers: PhaseTimers | None = None,
    verifier: "GroupVerifier | None" = None,
    faults: "NumericFaultInjector | None" = None,
    backend: Backend | None = None,
) -> PhaseTimers:
    """Execute an ordered sequence of strip groups, barrier per group.

    Numeric work flows through the ``backend``
    (:mod:`repro.gemm.backends`); ``None`` means the per-strip NumPy
    oracle built from ``kernel``/``exact_tiles`` — the pre-backend
    behaviour, bit for bit. ``workers=1`` runs every strip inline (no
    pool, no thread hop); ``workers>1`` fans each group's strips over a
    thread pool. Both paths issue identical backend calls in a
    per-C-row identical order, so for a fixed backend the numeric
    result is bit-for-bit the same for any worker count.

    ``grouped`` backends short-circuit the fan-out: a group carrying
    its group-contiguous views executes as **one** backend call on this
    (the orchestrator) thread — one GIL-released library call per
    barrier, which is the whole point of such backends — and worker
    count becomes trivially irrelevant to the bits.

    Groups may be plain sequences of :class:`StripTask` (unverified runs)
    or :class:`StripGroup` records carrying checksum material. With a
    ``verifier``, each group gets a restore point before dispatch and is
    checked —
    recovering if needed — at its barrier, on this (the orchestrator)
    thread; ``faults`` deterministically corrupts strip outputs to drive
    the recovery ladder.

    The pool is created per call, which keeps one engine object safe to
    run from multiple threads concurrently (no shared mutable executor
    state; the buffer pool is lock-guarded separately).
    """
    timers = timers if timers is not None else PhaseTimers()
    timers.workers = max(timers.workers, workers)
    if backend is None:
        backend = NumpyBackend(kernel, exact_tiles=exact_tiles)
    if workers <= 1 or backend.capabilities.grouped:
        pool_ctx = None
    else:
        pool_ctx = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="cake-gemm"
        )
    try:
        for index, raw in enumerate(groups):
            group = _as_group(raw, index)
            snaps = (
                verifier.snapshot(group, backend=backend)
                if verifier is not None
                else None
            )
            if pool_ctx is None or group_eligible(backend, group):
                timers.compute_seconds += _timed_group(backend, group, faults)
            else:
                futures = [
                    pool_ctx.submit(
                        _timed_strip, backend, task, group.index, strip, faults
                    )
                    for strip, task in enumerate(group.tasks)
                ]
                barrier_start = time.perf_counter()
                # Propagate worker exceptions eagerly; sum kernel seconds.
                timers.compute_seconds += sum(f.result() for f in futures)
                timers.reduce_seconds += time.perf_counter() - barrier_start
            if verifier is not None:
                # Inside the barrier: the next group does not start until
                # this one verified (and healed), so recovery is ordered
                # identically for any worker count.
                verifier.check_and_recover(
                    group, snaps, kernel, exact_tiles, faults,
                    backend=backend,
                )
    finally:
        if pool_ctx is not None:
            pool_ctx.shutdown(wait=True)
    return timers
