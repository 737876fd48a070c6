"""In-place ``c += a @ b`` through the gemm of the BLAS NumPy loaded.

``c += a @ b`` in NumPy materializes the product in a temporary and then
streams C twice more to add it. CAKE's schedule accumulates a CB block's
partial C results in place (§3, §4.2), and a BLAS ``?gemm`` with
``beta=1`` does exactly that: one call that reads C, adds ``a @ b`` and
writes C, with no temporary.

This module resolves that gemm with ``ctypes`` from the OpenBLAS NumPy
itself loaded (found in ``/proc/self/maps``), so there is no new
dependency and BLAS thread settings made on that library govern both
NumPy's matmul and these calls. NumPy's wheels bundle scipy-openblas
built ILP64, whose CBLAS entry points are ``scipy_cblas_dgemm64_`` and
``scipy_cblas_sgemm64_`` with 64-bit integer extents.

:func:`accumulate` is the one entry point. The BLAS call is made only
for 2-D float32/float64 operands of one native dtype, unit inner stride
and valid row strides, with ``c`` writeable, aligned and not overlapping
``a`` or ``b``. Every other input (complex, mixed dtypes, transposed or
F-ordered views, negative strides, empty extents, a host whose NumPy
does not bundle OpenBLAS) takes ``c += a @ b``. So do products with one
row or one column: NumPy computes those with gemv, and a gemm with
``beta=1`` there would accumulate into C in a different order, changing
bits for an add pass over a single row or column.

On the gemm path the bits equal NumPy's ``c += a @ b`` whenever ``k``
fits in one of OpenBLAS's K blocks (a few hundred, which covers every
strip group's ``kc``): the kernel sums the depth in registers and adds
the sum into C once, as the add pass would. A deeper ``k`` is added to
C one K block at a time, which re-associates the sum.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections.abc import Callable
from pathlib import Path

import numpy as np

#: The ILP64 CBLAS gemm per dtype, as NumPy's bundled OpenBLAS names it.
_SYMBOLS = {
    np.dtype(np.float64): ("scipy_cblas_dgemm64_", ctypes.c_double),
    np.dtype(np.float32): ("scipy_cblas_sgemm64_", ctypes.c_float),
}
_ROW_MAJOR = 101
_NO_TRANS = 111


def _loaded_blas_path() -> str | None:
    """Path of the OpenBLAS shared object mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        fields = line.split()
        path = fields[-1] if len(fields) >= 6 else ""
        if path.startswith("/") and "openblas" in os.path.basename(path).lower():
            return path
    return None


@functools.cache
def _gemms() -> dict[np.dtype, Callable[..., None]]:
    """The resolved gemm per dtype; empty when there is no such BLAS."""
    path = _loaded_blas_path()
    if path is None:
        return {}
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return {}
    found = {}
    for dtype, (symbol, scalar) in _SYMBOLS.items():
        fn = getattr(lib, symbol, None)
        if fn is None:
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = [
            ctypes.c_int, ctypes.c_int, ctypes.c_int,
            i64, i64, i64,
            scalar, ptr, i64, ptr, i64,
            scalar, ptr, i64,
        ]  # fmt: skip
        fn.restype = None
        found[dtype] = fn
    return found


def _row_stride(x: np.ndarray) -> int | None:
    """Leading dimension of a row-major view, or ``None`` if it has none."""
    step, itemsize = x.strides, x.itemsize
    if step[1] != itemsize or step[0] % itemsize:
        return None
    ld = step[0] // itemsize
    return ld if ld >= x.shape[1] else None


def accumulate(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """``c += a @ b`` in place, as one BLAS gemm with ``beta=1`` when it can.

    Raises ``ValueError`` before touching ``c`` unless ``a`` is
    ``(m, k)``, ``b`` is ``(k, n)`` and ``c`` is ``(m, n)``: the BLAS
    call trusts the extents it is given, so a mismatch would read and
    write out of bounds where NumPy would raise.
    """
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ValueError(
            f"accumulate needs 2-D operands, got {a.ndim}-D, {b.ndim}-D "
            f"and {c.ndim}-D"
        )
    (m, k), (kb, n) = a.shape, b.shape
    if kb != k or c.shape != (m, n):
        raise ValueError(
            f"cannot accumulate {a.shape} @ {b.shape} into {c.shape}"
        )
    gemm = _gemms().get(c.dtype)
    lds = (_row_stride(a), _row_stride(b), _row_stride(c))
    if (
        gemm is None
        or a.dtype != c.dtype
        or b.dtype != c.dtype
        or m < 2
        or n < 2
        or not k
        or None in lds
        or not c.flags.writeable
        or not (a.flags.aligned and b.flags.aligned and c.flags.aligned)
        or np.may_share_memory(c, a)
        or np.may_share_memory(c, b)
    ):
        c += a @ b
        return
    lda, ldb, ldc = lds
    gemm(
        _ROW_MAJOR, _NO_TRANS, _NO_TRANS,
        m, n, k,
        1.0, a.ctypes.data, lda, b.ctypes.data, ldb,
        1.0, c.ctypes.data, ldc,
    )  # fmt: skip
