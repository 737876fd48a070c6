"""The three CPUs of Table 2 as MachineSpec presets.

Calibration notes (how ``flops_per_cycle_per_core`` and the internal
bandwidth curves were chosen — each is pinned by a number the paper itself
reports):

**Intel i9-10900K** (Comet Lake, AVX2).
    Peak fp32 per core is 32 FLOP/cycle (2x 8-wide FMA); at the 3.7 GHz
    all-core clock that is ~118 GF/core, putting 10 cores at ~1184 GFLOP/s —
    Figure 10b's observed plateau is ~1150-1200 GFLOP/s, so we use 30
    FLOP/cycle of sustained rate. The internal-bandwidth curve scales
    ~55 GB/s/core up to a 6-core knee then largely flattens, matching
    Figure 10c (and reproducing the paper's observation that CAKE's DRAM
    bandwidth creeps above optimal only at 9-10 cores).

**AMD Ryzen 9 5950X** (Zen 3).
    Figure 12b reads ~1150-1200 GFLOP/s at 16 cores observed, i.e.
    ~72 GF/core sustained; at 3.4 GHz that is 21 FLOP/cycle. Internal
    bandwidth grows ~50 GB/s per core roughly linearly to 32 threads
    (Figure 12c reaches ~1600 GB/s), so the curve never saturates in range.

**ARM v8 Cortex-A53** (in-order, 64-bit NEON).
    The A53 retires at most 2 fp32 MACs/cycle; the paper's single-core
    observed throughput is ~1.4 GFLOP/s at a typical 1.4 GHz part, i.e.
    2 sustained FLOP/cycle once load/store pressure on the tiny L1 is
    folded in. DRAM is a single 32-bit LPDDR channel (2 GB/s peak,
    ``dram_efficiency=0.80``) whose *physical* traffic under GEMM is
    ~4.5x the counted operand traffic (``external_traffic_factor``; the
    16 KiB L1 forces constant line refills) — together these cap
    ARMPL/GOTO near 2 cores as in Figure 11b. The shared 512 KiB L2 is
    the LLC (no L3); its bandwidth is flat beyond 2 cores per Figure 11c,
    which is what bends CAKE's DRAM usage above optimal at 3-4 cores in
    Figure 11a.

The two traffic factors (``internal_traffic_factor``,
``external_traffic_factor``) convert counted operand movement into the
physical traffic hardware counters report; see
:class:`repro.machines.spec.MachineSpec`. Desktop values ~1.5 (external)
are pinned by the paper's Intel observations: CAKE ~4.5 GB/s observed vs
~3 GB/s of counted operands, MKL ~25 GB/s vs ~16.5 counted.

Each preset is built once per process and shared: a spec is frozen, so
the plan memos hash and compare one object instead of validating and
comparing a fresh spec field by field on every call. A derived machine
(``with_cores``, ``dataclasses.replace``) is a new spec, validated as
usual.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from repro.machines.internal_bw import SaturatingCurve
from repro.machines.spec import MachineSpec
from repro.util.units import BYTES_PER_GIB, BYTES_PER_KIB, BYTES_PER_MIB


@cache
def intel_i9_10900k() -> MachineSpec:
    """Intel i9-10900K: 10 cores, 20 MiB LLC, 40 GB/s DRAM (Table 2)."""
    return MachineSpec(
        name="Intel i9-10900K",
        cores=10,
        clock_hz=3.7e9,
        flops_per_cycle_per_core=30.0,
        l1_bytes=32 * BYTES_PER_KIB,
        l2_bytes=256 * BYTES_PER_KIB,
        llc_bytes=20 * BYTES_PER_MIB,
        dram_bytes=32 * BYTES_PER_GIB,
        dram_gb_per_s=40.0,
        dram_efficiency=0.95,
        mr=6,
        nr=16,
        internal_bw=SaturatingCurve(
            per_core_gb_per_s=55.0, knee_cores=6, post_knee_fraction=0.3
        ),
        internal_traffic_factor=11.0,
        external_traffic_factor=1.5,
    )


@cache
def amd_ryzen_9_5950x() -> MachineSpec:
    """AMD Ryzen 9 5950X: 16 cores, 64 MiB LLC, 47 GB/s DRAM (Table 2)."""
    return MachineSpec(
        name="AMD Ryzen 9 5950X",
        cores=16,
        clock_hz=3.4e9,
        flops_per_cycle_per_core=21.0,
        l1_bytes=32 * BYTES_PER_KIB,
        l2_bytes=512 * BYTES_PER_KIB,
        llc_bytes=64 * BYTES_PER_MIB,
        dram_bytes=128 * BYTES_PER_GIB,
        dram_gb_per_s=47.0,
        dram_efficiency=0.95,
        mr=6,
        nr=16,
        internal_bw=SaturatingCurve(
            per_core_gb_per_s=50.0, knee_cores=32, post_knee_fraction=1.0
        ),
        internal_traffic_factor=10.0,
        external_traffic_factor=1.5,
    )


@cache
def arm_cortex_a53() -> MachineSpec:
    """ARM v8 Cortex-A53: 4 cores, shared 512 KiB L2 as LLC, 2 GB/s DRAM."""
    return MachineSpec(
        name="ARM v8 Cortex-A53",
        cores=4,
        clock_hz=1.4e9,
        flops_per_cycle_per_core=2.0,
        l1_bytes=16 * BYTES_PER_KIB,
        l2_bytes=512 * BYTES_PER_KIB,
        llc_bytes=512 * BYTES_PER_KIB,
        llc_is_l2=True,
        dram_bytes=1 * BYTES_PER_GIB,
        dram_gb_per_s=2.0,
        dram_efficiency=0.80,
        dram_latency_cycles=180,
        mr=8,
        nr=12,
        internal_bw=SaturatingCurve(
            per_core_gb_per_s=9.0, knee_cores=2, post_knee_fraction=0.05
        ),
        internal_traffic_factor=22.0,
        external_traffic_factor=4.5,
    )


_PRESETS: dict[str, Callable[[], MachineSpec]] = {
    "intel-i9-10900k": intel_i9_10900k,
    "amd-ryzen-9-5950x": amd_ryzen_9_5950x,
    "arm-cortex-a53": arm_cortex_a53,
}

PRESET_NAMES: tuple[str, ...] = tuple(_PRESETS)


def preset(name: str) -> MachineSpec:
    """Look up a preset by its kebab-case name.

    >>> preset("intel-i9-10900k").cores
    10
    """
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown machine preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
