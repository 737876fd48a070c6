"""Host and run metadata: cores, CPU, BLAS library and its thread count.

Everything here reads the host; nothing changes it. The BLAS thread
count is read from the OpenBLAS that numpy actually loaded (found in
``/proc/self/maps``) through ``ctypes``, so a count set by any route
(environment, an earlier ``set_num_threads`` call) shows as it is.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Thread-count getters, in the order numpy's bundled builds name them.
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIGS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_blas_path() -> str | None:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1] if line.split() else ""
        if "openblas" in os.path.basename(path).lower() and path.startswith("/"):
            return path
    return None


class Blas:
    """The OpenBLAS numpy loaded, or an empty stand-in when there is none."""

    def __init__(self) -> None:
        import numpy  # noqa: F401  - loads the BLAS this reads

        self.path = _loaded_blas_path()
        self._lib = ctypes.CDLL(self.path) if self.path else None
        self._get = self._symbol(_GETTERS, ctypes.c_int)
        self._config = self._symbol(_CONFIGS, ctypes.c_char_p)

    def _symbol(self, names, restype):
        if self._lib is None:
            return None
        for name in names:
            fn = getattr(self._lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn
        return None

    def threads(self) -> int | None:
        return None if self._get is None else int(self._get())

    def config(self) -> str | None:
        if self._config is None:
            return None
        raw = self._config()
        return raw.decode("utf-8", "replace").strip() if raw else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the last cache level sysfs reports for cpu0."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level >= best[0]:
            best = (level, size)
    return None if best is None else best[1]


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py`` paths and contents: which code ran."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def metadata(root: Path, blas: Blas) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "blas_library": blas.path,
        "blas_config": blas.config(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": commit(root),
        "src_digest": source_digest(root),
        "env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


#: Copy-bandwidth arrays stay under this many bytes each, whatever the
#: LLC reports: a virtual host may report a shared LLC larger than the
#: memory a benchmark may politely take.
COPY_CAP_BYTES = 128 << 20


def copy_gb_per_s(reps: int = 5) -> float:
    """``np.copyto`` bandwidth over arrays of 4x the LLC (capped), best of ``reps``.

    Bytes moved count the read and the write.
    """
    import numpy as np

    llc = llc_bytes() or (32 << 20)
    nbytes = min(4 * llc, COPY_CAP_BYTES)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2 * src.nbytes / best / 1e9
