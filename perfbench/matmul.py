"""The ``matmul-*`` workloads: one closed-loop caller of ``cake_matmul``.

The caller cycles a fixed list of cells — an operand pair (shape and
dtype) crossed with a call mode — and times each call alone. Every
product is checked against a float64 ``a @ b`` of the same operands
within a dtype-scaled tolerance.

Every call's time is divided by the time of one ``a @ b`` on the same
operands, taken just before the call. On a shared 2-core VM the host's
speed swings by half for seconds at a time (a 128^3 ``a @ b`` read 71 us
or 109 us in back-to-back processes), so a base timed once at start-up
would move the ratio more than any layer does. The BLAS thread count is read before
every base call and must still be the pinned count, so nothing the
program does to BLAS threads can move the base unseen. The base timed
once before ``repro`` is imported is kept as ``Pair.ref_seconds`` for
``host.numpy_gflops``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench.stats import median


@dataclass(frozen=True, slots=True)
class Mode:
    name: str
    kwargs: dict


@dataclass(frozen=True, slots=True)
class MatmulSpec:
    """Shapes are ``(m, n, k)``: ``a`` is ``m x k`` and ``b`` is ``k x n``."""

    shapes: tuple
    dtypes: tuple
    modes: tuple
    #: The (shape, dtype, mode name) cell that runs twice per cycle. An
    #: odd cycle puts the median and the tail rank inside a cell instead
    #: of on the gap between two, where it would read a cell's extreme.
    doubled: tuple | None = None
    #: The highest percentile with ten samples beyond it in a run that
    #: repeated within 0.07 across ten seeds (p90 of matmul-large sat on
    #: the gap between two cells and spread 0.10).
    tail: float = 90.0
    #: The traced run also measures the serve stack (``perfbench.serve``).
    serve_stack: bool = False


DEFAULT = Mode("numpy", {})
BLAS_GROUP = Mode("blas-group", {"backend": "blas-group"})
SHARDED = Mode("blas-group+processes=2", {"backend": "blas-group", "processes": 2})
VERIFIED = Mode("blas-group+verify", {"backend": "blas-group", "verify": True})

SPECS = {
    "matmul-small": MatmulSpec(
        shapes=((128, 128, 128), (128, 1024, 512)),
        dtypes=("float64", "float32"),
        modes=(DEFAULT, BLAS_GROUP),
        doubled=((128, 128, 128), "float64", DEFAULT.name),
        tail=99.0,
    ),
    "matmul-large": MatmulSpec(
        shapes=((512, 512, 512), (1024, 1024, 1024)),
        dtypes=("float64", "float32"),
        modes=(DEFAULT, BLAS_GROUP, SHARDED, VERIFIED),
        doubled=((512, 512, 512), "float64", DEFAULT.name),
        tail=95.0,
        serve_stack=True,
    ),
}


@dataclass(slots=True)
class Pair:
    """One operand pair with its correctness oracle and its ratio base."""

    index: int
    shape: tuple
    dtype: str
    a: np.ndarray
    b: np.ndarray
    ref64: np.ndarray
    bound: np.ndarray
    ref_seconds: float = 0.0

    @property
    def flops(self) -> int:
        m, n, k = self.shape
        return 2 * m * n * k


def make_pair(rng, index: int, shape: tuple, dtype: str) -> Pair:
    m, n, k = shape
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    # Rounding-error bound of a length-k dot product in the operands'
    # dtype, doubled to cover the float64 oracle's own.
    gamma = 2.0 * k * np.finfo(dtype).eps
    return Pair(
        index=index, shape=tuple(shape), dtype=dtype, a=a, b=b,
        ref64=a64 @ b64, bound=gamma * (np.abs(a64) @ np.abs(b64)),
    )


def make_pairs(spec: MatmulSpec, seed) -> list[Pair]:
    rng = np.random.default_rng(seed)
    cells = [(shape, dtype) for shape in spec.shapes for dtype in spec.dtypes]
    return [make_pair(rng, i, shape, dtype) for i, (shape, dtype) in enumerate(cells)]


def product_ok(c, pair: Pair) -> bool:
    """``c`` has the pair's shape and dtype and sits within its bound."""
    if not isinstance(c, np.ndarray) or c.shape != pair.ref64.shape:
        return False
    if c.dtype != np.dtype(pair.dtype):
        return False
    return bool(np.all(np.abs(c - pair.ref64) <= pair.bound))


def reference_times(a: np.ndarray, b: np.ndarray, *, min_reps: int = 11,
                    min_seconds: float = 0.2) -> list[float]:
    """Seconds of repeated ``a @ b``, enough repetitions to be steady."""
    a @ b  # first call pays page faults on the output
    times = []
    total = 0.0
    while len(times) < min_reps or total < min_seconds:
        start = time.perf_counter()
        a @ b
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return times


def time_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Median seconds of ``a @ b``."""
    return median(reference_times(a, b))


@dataclass(frozen=True, slots=True)
class Cell:
    pair: Pair
    mode: Mode


def cycle(spec: MatmulSpec, pairs: list[Pair]) -> list[Cell]:
    return [
        Cell(pair, mode)
        for pair in pairs
        for mode in spec.modes
        for _ in range(2 if (pair.shape, pair.dtype, mode.name) == spec.doubled else 1)
    ]


@dataclass(slots=True)
class Call:
    """One timed call: what the ratio and the layer breakdown need."""

    pair: int
    seconds: float
    ratio: float
    ok: bool
    run: dict | None = None


def x_numpy(seconds: float, base: float) -> float:
    """A call's time over the ``a @ b`` time of the same operand pair."""
    return seconds / base


def run_summary(run) -> dict:
    """The breakdowns a ``GemmRun`` already carries, without the product."""
    summary = {
        "phase_seconds": dict(run.phase_seconds or {}),
        "blocks": int(run.plan_summary.get("blocks", 0)),
        "ext_pack": int(run.counters.ext_pack),
        "verify": None if run.verify is None else run.verify.as_dict(),
        "shards": None,
    }
    if run.shards is not None:
        summary["shards"] = {
            "ipc_bytes": run.shards.ipc_bytes,
            "ipc_slack": run.shards.slack,
            "pool_rebuilds": run.shards.pool_rebuilds,
            "inline_shards": run.shards.inline_shards,
            "shard_phase_seconds": list(run.shards.shard_phase_seconds),
        }
    return summary


class Caller:
    """The closed-loop caller; ``repro`` is imported by :meth:`setup`.

    ``blas_threads`` reads the BLAS thread count; the base ``a @ b`` is
    refused if it is no longer ``pinned``.
    """

    def __init__(self, spec: MatmulSpec, pairs: list[Pair], *, blas_threads=None,
                 pinned: int | None = 1) -> None:
        self.spec = spec
        self.pairs = pairs
        self.cells = cycle(spec, pairs)
        self.attempted = 0
        self.failed = 0
        self._matmul = None
        self._blas_threads = blas_threads
        self._pinned = pinned

    def base(self, pair: Pair) -> float:
        """Seconds of one ``a @ b`` on the pair, with BLAS still pinned."""
        if self._blas_threads is not None and self._blas_threads() != self._pinned:
            raise RuntimeError(
                f"BLAS runs {self._blas_threads()} threads, not the pinned "
                f"{self._pinned}: the a @ b base would move"
            )
        start = time.perf_counter()
        pair.a @ pair.b
        return time.perf_counter() - start

    def setup(self) -> float:
        """Import ``repro`` and warm every (shape, mode): the set-up time."""
        start = time.perf_counter()
        from repro.api import cake_matmul

        self._matmul = cake_matmul
        for pair in self.pairs:
            for mode in self.spec.modes:
                self._call(pair, mode)
        return time.perf_counter() - start

    def _call(self, pair: Pair, mode: Mode, tracer=None):
        start = time.perf_counter()
        run = self._matmul(pair.a, pair.b, **mode.kwargs)
        seconds = time.perf_counter() - start
        # A clean run has nothing for ABFT to find: a healed mismatch is
        # a correct product from a wrong computation.
        ok = product_ok(run.c, pair) and (run.verify is None or run.verify.mismatches == 0)
        self.attempted += 1
        self.failed += 0 if ok else 1
        if tracer is not None:
            # The request's self time is the benchmark's own check.
            request = tracer.add("request", start, time.perf_counter(),
                                 request=self.attempted, pair=pair.index, mode=mode.name)
            tracer.add("repro.api.cake_matmul", start, start + seconds, parent=request)
        return run, seconds, ok

    def loop(self, seconds: float, *, tracer=None) -> list[Call]:
        """Cycle every cell until ``seconds`` have passed, ending on a whole cycle."""
        calls = []
        deadline = time.perf_counter() + seconds
        while True:
            for cell in self.cells:
                base = self.base(cell.pair)
                run, elapsed, ok = self._call(cell.pair, cell.mode, tracer)
                calls.append(Call(
                    pair=cell.pair.index, seconds=elapsed,
                    ratio=x_numpy(elapsed, base), ok=ok,
                    run=run_summary(run) if tracer is not None else None,
                ))
            if time.perf_counter() >= deadline:
                return calls


def samples(calls: list[Call], pairs: list[Pair]) -> dict:
    """Raw samples for :func:`perfbench.metrics.closed_loop`."""
    return {
        "seconds": [c.seconds for c in calls],
        "ratios": [c.ratio for c in calls],
        "flops": sum(pairs[c.pair].flops for c in calls if c.ok),
    }


def timed_median(fn, *, min_reps: int = 5, min_seconds: float = 0.05) -> float:
    fn()
    times = []
    total = 0.0
    while len(times) < min_reps or total < min_seconds:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return median(times)


def shape_probes(shapes) -> dict:
    """Plan and accounting-walk seconds per shape, each timed on its own.

    ``plan_for`` runs with the plan memo warm. The walk is
    ``CakeGemm(machine, exact_walk=True).analyze`` — the scalar walk
    ``multiply`` runs, without the arithmetic.
    """
    from repro.gemm.cake import CakeGemm
    from repro.machines.presets import intel_i9_10900k

    machine = intel_i9_10900k()
    planner = CakeGemm(machine)
    walker = CakeGemm(machine, exact_walk=True)
    return {
        tuple(shape): {
            "plan": timed_median(lambda: planner.plan_for(*shape), min_reps=50),
            "walk": timed_median(lambda: walker.analyze(*shape)),
        }
        for shape in shapes
    }


def layers(calls: list[Call], pairs: list[Pair], probes: dict) -> dict:
    """Per-layer figures from traced calls (``run`` summaries attached).

    Seconds are means per call; shares are layer seconds over call
    seconds summed over the calls the layer ran in. Compute and the
    engine residual come from in-process calls only: a sharded call's
    compute is summed over shard processes, so it is not wall time.
    """
    n = len(calls)
    total = sum(c.seconds for c in calls)
    shape = [pairs[c.pair].shape for c in calls]
    itemsize = [np.dtype(pairs[c.pair].dtype).itemsize for c in calls]
    walk = [probes[s]["walk"] for s in shape]
    plan = [probes[s]["plan"] for s in shape]
    pack = [c.run["phase_seconds"].get("pack", 0.0) for c in calls]
    pack_bytes = [c.run["ext_pack"] * size for c, size in zip(calls, itemsize)]

    local = [i for i, c in enumerate(calls) if c.run["shards"] is None]
    local_total = sum(calls[i].seconds for i in local)
    compute = sum(calls[i].run["phase_seconds"].get("compute", 0.0) for i in local)
    phases = sum(sum(calls[i].run["phase_seconds"].values()) for i in local)
    other = local_total - sum(walk[i] for i in local) - phases
    flops_local = sum(pairs[calls[i].pair].flops for i in local)

    verified = [c for c in calls if c.run["verify"] is not None]
    verify_seconds = sum(
        c.run["phase_seconds"].get("verify", 0.0) + c.run["phase_seconds"].get("recover", 0.0)
        for c in verified
    )
    sharded = [c for c in calls if c.run["shards"] is not None]
    shard_overhead = [
        c.seconds - max(
            s.get("pack", 0.0) + s.get("compute", 0.0)
            for s in c.run["shards"]["shard_phase_seconds"]
        )
        for c in sharded
    ]

    def mean(values, count):
        return sum(values) / count if count else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "plan.seconds": mean(plan, n),
        "walk.seconds": mean(walk, n),
        "walk.blocks": mean([c.run["blocks"] for c in calls], n),
        "walk.share": share(sum(walk), total),
        "pack.seconds": mean(pack, n),
        "pack.share": share(sum(pack), total),
        "pack.bytes": mean(pack_bytes, n),
        "pack.gb_per_s": share(sum(pack_bytes), sum(pack)) / 1e9,
        "compute.seconds": compute / len(local) if local else 0.0,
        "compute.share": share(compute, local_total),
        "compute.gflops": share(flops_local, compute) / 1e9,
        "compute.groups": mean([calls[i].run["blocks"] for i in local], len(local)),
        "engine.other_seconds": other / len(local) if local else 0.0,
        "engine.other_share": share(other, local_total),
        "verify.seconds": verify_seconds / len(verified) if verified else 0.0,
        "verify.share": share(verify_seconds, sum(c.seconds for c in verified)),
        "verify.mismatches": sum(c.run["verify"]["mismatches"] for c in verified),
        "verify.recoveries": sum(
            c.run["verify"]["retry_recoveries"] + c.run["verify"]["oracle_recoveries"]
            for c in verified
        ),
        "shard.overhead_seconds": mean(shard_overhead, len(sharded)),
        "shard.ipc_bytes": mean([c.run["shards"]["ipc_bytes"] for c in sharded], len(sharded)),
        "shard.ipc_slack": mean([c.run["shards"]["ipc_slack"] for c in sharded], len(sharded)),
        "shard.pool_rebuilds": sum(c.run["shards"]["pool_rebuilds"] for c in sharded),
        "shard.inline_shards": sum(c.run["shards"]["inline_shards"] for c in sharded),
    }


def host_numpy_gflops(pairs: list[Pair]) -> float:
    """Useful flops over ``a @ b`` seconds, summed over the operand pairs."""
    return sum(p.flops for p in pairs) / sum(p.ref_seconds for p in pairs) / 1e9

