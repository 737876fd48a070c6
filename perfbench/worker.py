"""One segment of a workload in one process: ``python3 -m perfbench.worker ...``.

``perfbench/run.py`` starts this from the checkout root with ``src`` on
``PYTHONPATH``, once per segment. A segment sets up from scratch (that
is the set-up time), then measures for ``--seconds``. BLAS is pinned to
one thread before numpy loads, and the count is read back before and
after. The full result — metadata, per-rate rows, spans — goes to
``--out`` as JSON.
"""

from __future__ import annotations

import os

# Before numpy loads: a multi-threaded BLAS would time its own thread
# wake-up, not the program (a pinned 128^3 ``a @ b`` is ~100x faster
# than an unpinned one on a 2-core host).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import host  # noqa: E402
from perfbench.report import PER_LAYER  # noqa: E402
from perfbench.spans import Tracer, trace_overhead  # noqa: E402
from perfbench.stats import median  # noqa: E402

#: Thread and process budget of each workload, next to ``nproc``.
#: ``busy`` counts threads that can run compute at once.
BUDGETS = {
    "matmul-small": {
        "client_threads": 1, "server_processes": 0, "worker_processes": 0,
        "shard_processes": 0, "engine_workers": 1, "blas_threads": 1, "busy": 1,
    },
    "matmul-large": {
        # processes=2 calls: the caller waits while two shard processes
        # each run one engine worker on one BLAS thread.
        "client_threads": 1, "server_processes": 0, "worker_processes": 0,
        "shard_processes": 2, "engine_workers": 1, "blas_threads": 1, "busy": 2,
    },
    "serve-remote": {
        # nproc client threads + the generator, the cake-serve parent
        # (front door and dispatcher), and two fleet workers each with
        # two executor threads on one BLAS thread.
        "client_threads": None, "generator_threads": 1, "server_processes": 1,
        "worker_processes": 2, "shard_processes": 0, "engine_workers": 2,
        "blas_threads": 1, "busy": None,
    },
}


def budget(workload: str) -> dict:
    nproc = os.cpu_count() or 1
    row = dict(BUDGETS[workload])
    if workload == "serve-remote":
        row["client_threads"] = nproc
        row["busy"] = nproc + 1 + 1 + row["worker_processes"] * row["engine_workers"]
    row["nproc"] = nproc
    row["oversubscribed"] = row["busy"] > nproc
    return row


def run_matmul(name: str, seed: list[int], seconds: float, trace: bool,
               blas: host.Blas) -> dict:
    from perfbench import matmul

    spec = matmul.SPECS[name]
    pairs = matmul.make_pairs(spec, seed)
    for pair in pairs:
        pair.ref_seconds = matmul.time_reference(pair.a, pair.b)
    caller = matmul.Caller(spec, pairs, blas_threads=blas.threads, pinned=blas.threads())
    result = {"setup_s": caller.setup(), "tail_percentile": spec.tail,
              "ref_seconds": {p.index: p.ref_seconds for p in pairs}}
    attempted = failed = 0
    if not trace:
        result["samples"] = matmul.samples(caller.loop(seconds), pairs)
    else:
        # The loop gets half the time untraced and half traced, or a
        # quarter each when the serve stack is measured here too.
        share = seconds / (4 if spec.serve_stack else 2)
        untraced = matmul.samples(caller.loop(share), pairs)
        tracer = Tracer()
        calls = caller.loop(share, tracer=tracer)
        layers = matmul.layers(calls, pairs, matmul.shape_probes(spec.shapes))
        layers["host.numpy_gflops"] = matmul.host_numpy_gflops(pairs)
        layers["host.copy_gb_per_s"] = host.copy_gb_per_s()
        layers["trace.overhead"] = trace_overhead(
            median(matmul.samples(calls, pairs)["ratios"]), median(untraced["ratios"])
        )
        if spec.serve_stack:
            from perfbench import serve

            with serve.connected(seed, blas.threads, blas.threads()) as load:
                stack, attempted, failed = serve.stack_layers(load, seed, seconds / 2, tracer)
            layers.update(stack)
        result["metrics"] = layers
        result["span_summary"] = tracer.summary()
        result["spans"] = [s.as_dict() for s in tracer.spans]
    result["attempted"] = caller.attempted + attempted
    result["failed"] = caller.failed + failed
    return result


def run_serve(seed: list[int], seconds: float, trace: bool, blas: host.Blas) -> dict:
    """The open loop: every rate's window, or (traced) the serve stack."""
    from perfbench import matmul, serve

    spec = serve.SPEC
    result: dict = {"limit_ms": spec.limit_ms, "rates": list(spec.rates),
                    "nominal_rate": spec.nominal, "tail_percentile": spec.tail,
                    "clients": spec.clients}
    with serve.connected(seed, blas.threads, blas.threads()) as load:
        result["setup_s"] = load.setup_s
        attempted, failed = len(load.clients) * len(load.pools), 0
        if not trace:
            schedules = serve.window_requests(spec, seed, seconds, spec.rates)
            windows = []
            for rate in spec.rates:
                windows.append(serve.Window.measure(load, rate, schedules[rate]))
                load.time_bases()
            result["samples"] = [w.samples(load) for w in windows]
            for w in windows:
                attempted += len(w.outcomes)
                failed += len(w.outcomes) - w.counts()["ok"]
        else:
            third = seconds / 3
            requests = serve.window_requests(spec, seed, third, [spec.nominal])[spec.nominal]
            tracer = Tracer()
            untraced = serve.Window.measure(load, spec.nominal, requests)
            traced = serve.Window.measure(load, spec.nominal, requests, tracer=tracer)
            layers, made, bad = serve.stack_layers(load, seed, third, tracer)
            for w in (untraced, traced):
                made += len(w.outcomes)
                bad += len(w.outcomes) - w.counts()["ok"]
            layers["host.numpy_gflops"] = matmul.host_numpy_gflops(
                [p for pool in load.pools.values() for p in pool]
            )
            layers["host.copy_gb_per_s"] = host.copy_gb_per_s()
            layers["trace.overhead"] = trace_overhead(
                median(traced.samples(load)["latency_ms"]),
                median(untraced.samples(load)["latency_ms"]),
            )
            result["metrics"] = layers
            result["span_summary"] = tracer.summary()
            result["spans"] = [s.as_dict() for s in tracer.spans]
            attempted += made
            failed += bad
    result["attempted"], result["failed"] = attempted, failed
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(BUDGETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    blas = host.Blas()
    before = blas.threads()
    seed = [args.seed % (1 << 64), args.segment]  # seed sequences take no negatives
    if args.workload == "serve-remote":
        result = run_serve(seed, args.seconds, bool(args.trace), blas)
    else:
        result = run_matmul(args.workload, seed, args.seconds, bool(args.trace), blas)
    if args.trace:
        measured = result["metrics"]
        result["metrics"] = {name: measured.get(name, 0.0) for name in PER_LAYER}
        result["not_on_path"] = sorted(set(PER_LAYER) - set(measured))
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "segment": args.segment,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {"before": before, "after": blas.threads()},
        "budget": budget(args.workload),
        "host": host.metadata(root, blas),
    })
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
