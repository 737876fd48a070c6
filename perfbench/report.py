"""Metric names and units, and the lines the benchmark prints.

``BENCHMARK.json`` lists the same names; a test keeps the two equal.
"""

from __future__ import annotations

import json

#: End-to-end metrics of every untraced run: its last line.
END_TO_END = {
    "setup_s": "s",
    "x_numpy_p50": "ratio",
    "x_numpy_tail": "ratio",
    "peak_rss_mb": "MB",
}

#: Printed above the last line, not in it: absolute speeds, which follow
#: a small shared host's slow phases too closely to bound a regression.
UNLISTED = {
    "throughput_gflops": "GFLOP/s",
}

#: Also printed by the open-loop ``serve-remote`` run, which
#: ``BENCHMARK.json`` leaves out for the same reason.
OPEN_LOOP = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "max_rate_rps": "req/s",
}

_CLASSES = ("small", "large")

#: Per-layer metrics printed by every traced run. A layer a workload
#: does not run reads 0 there.
PER_LAYER = {
    "host.numpy_gflops": "GFLOP/s",
    "host.copy_gb_per_s": "GB/s",
    "plan.seconds": "s",
    "walk.seconds": "s",
    "walk.blocks": "count",
    "walk.share": "ratio",
    "pack.seconds": "s",
    "pack.share": "ratio",
    "pack.bytes": "bytes",
    "pack.gb_per_s": "GB/s",
    "compute.seconds": "s",
    "compute.share": "ratio",
    "compute.gflops": "GFLOP/s",
    "compute.groups": "count",
    "engine.other_seconds": "s",
    "engine.other_share": "ratio",
    "verify.seconds": "s",
    "verify.share": "ratio",
    "verify.mismatches": "count",
    "verify.recoveries": "count",
    "shard.overhead_seconds": "s",
    "shard.ipc_bytes": "bytes",
    "shard.ipc_slack": "ratio",
    "shard.pool_rebuilds": "count",
    "shard.inline_shards": "count",
    **{
        f"{name}.{cls}": unit
        for name, unit in (
            ("server.seconds", "s"),
            ("fleet.handoff_seconds", "s"),
            ("fleet.handoff_bytes", "bytes"),
            ("wire.socket_seconds", "s"),
            ("wire.codec_seconds", "s"),
            ("wire.bytes", "bytes"),
            ("serve.wait_seconds", "s"),
        )
        for cls in _CLASSES
    },
    "loadgen.late_ms": "ms",
    "trace.overhead": "ratio",
}


def result_line(values: dict, table: dict, *, attempted: int, failed: int) -> str:
    """The last line of standard output: every metric of ``table``."""
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()
        },
    })


def table_lines(values: dict, table: dict) -> list[str]:
    return [
        f"  {name:<28} {float(values[name]):>14.6g} {unit}"
        for name, unit in table.items() if name in values
    ]
