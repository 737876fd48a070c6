"""The whole-group BLAS backend: one in-place gemm per strip group.

The per-strip oracle dispatches one small matmul per core slab from
Python, so on a GIL-bound host the thread executor's speedup saturates
near 1.0x: the kernels release the GIL, but the per-strip Python call
overhead and barrier bookkeeping do not shrink with more workers. This
backend flips the granularity: each strip group (one CAKE CB block, one
GOTO ``(nc, kc)`` slice) becomes a *single* BLAS gemm over the
group-contiguous A operand and the full C panel — the shape BLAS
libraries are optimized for. One Python call per group, the GIL released
for the whole contiguous panel product, and the underlying BLAS free to
use its own blocking (and threads, where NumPy links a threaded BLAS).

Numerically the group product computes the same dot products over the
same reduction depth as the per-strip walk; only the library's internal
blocking may re-associate them. Hence ``deterministic=False`` — results
are tolerance-banded against the oracle (``agreement_band``), not
bit-compared — while ``reproducible=True`` holds: the same call on the
same data returns the same bits, which the ABFT recovery ladder uses to
heal transient corruption bit-exactly.

Each group's product accumulates straight into the C panel view, the
way a CB block's partial results stay resident in the paper's schedule:
one BLAS gemm with ``beta=1`` (:func:`repro.gemm.cblas.accumulate`)
reads the panel, adds ``a @ b`` and writes it back, with no product
temporary and no separate add pass over C. Inputs the BLAS call cannot
take (complex, mixed dtypes, non-row-major views, a NumPy without a
bundled OpenBLAS) fall back to ``c += a @ b``.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.backends.base import Backend, BackendCapabilities
from repro.gemm.cblas import accumulate


class BlasGroupBackend(Backend):
    """One whole-panel in-place BLAS gemm per strip group."""

    name = "blas-group"
    capabilities = BackendCapabilities(
        deterministic=False,
        grouped=True,
        dtypes=None,  # the ``c += a @ b`` fallback covers float/complex
        reproducible=True,
    )

    def matmul_strip(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        # Also the whole-group call (``Backend.matmul_group`` delegates
        # here). Concurrent strips of one group write disjoint C views.
        accumulate(a, b, c)
