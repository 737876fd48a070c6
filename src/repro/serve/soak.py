"""Fault-injected soak: traffic and failures flowing at the same time.

The acceptance bar of the serving layer (ISSUE 8): while concurrent
clients stream multiplies, scripted faults — worker kills, hangs,
bit flips, transient numeric corruption — fire continuously, and every
admitted request must end in exactly one of two ways:

* a product **bit-identical** to the direct engine reference, or
* a **structured** terminal error (``AdmissionError``,
  ``DeadlineExceededError``, or another ``CakeError``).

Silent wrong answers and deadlocks are the two unforgivable outcomes;
the soak counts both and :func:`main` exits nonzero on either, which
is what the CI ``serve`` job runs. Faults are scripted through
``state_dir``-backed :class:`~repro.runtime.faults.NumericFaultPlan`
budgets (unique per request), so "fail once, heal on retry/rebuild"
is expressed deterministically across process boundaries.

Two levels of fault injection live here. :func:`run_soak` targets one
``MultiplyServer`` (shard kills/hangs, bit flips, transient numeric
corruption); :func:`run_fleet_soak` targets the supervised fleet (ISSUE
10) — whole worker *processes* SIGKILLed and hung on timers while
traffic flows, auditing that crash-safe re-dispatch keeps the same
contract. Run either directly::

    PYTHONPATH=src python -m repro.serve.soak --seconds 30 --clients 3
    PYTHONPATH=src python -m repro.serve.soak --fleet 2 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.errors import AdmissionError, CakeError, DeadlineExceededError
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.sharded import ShardConfig
from repro.gemm.verify import VerifyConfig
from repro.machines.presets import intel_i9_10900k
from repro.runtime.executor import RetryPolicy
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule
from repro.serve.server import MultiplyServer

#: Budget for the hang-under-deadline variant: generous enough to admit
#: and spawn a shard pool, far shorter than the injected 8 s hang.
HANG_DEADLINE_SECONDS = 1.5
HANG_SECONDS = 8.0

#: A client gives up on a handle after this long; an unresolved handle
#: is counted as a deadlock (the contract says every admitted request
#: terminates).
RESULT_TIMEOUT_SECONDS = 60.0


def _variants(state_root: Path, include_sharded: bool) -> list[dict]:
    """The request mix, cycled per client iteration.

    ``kwargs`` may be a callable of a unique request id — fault
    variants need a fresh ``state_dir`` per request so each one
    experiences its own fail-once budget.
    """

    def transient(uid: str) -> dict:
        # Detection without recovery: the engine raises NumericFaultError
        # on the corrupted first attempt; the *server's* retry reruns it
        # against the spent on-disk budget and must come back clean.
        return dict(
            engine="cake",
            verify=VerifyConfig(
                max_retries=0,
                oracle_fallback=False,
                inject=NumericFaultPlan(
                    rules=(
                        NumericFaultRule(
                            block=0, strip=0, kind="scale", factor=3.0
                        ),
                    ),
                    state_dir=str(state_root / f"retry-{uid}"),
                ),
            ),
        )

    def kill(uid: str) -> dict:
        # A shard worker dies mid-group; the shard executor's rebuild ladder
        # heals it inside the engine call. spawn, not fork: the serve
        # dispatcher is multi-threaded, and forking a threaded parent
        # can deadlock a child on an inherited lock — the exact class
        # of hang this soak exists to catch, so it must not cause one.
        return dict(
            engine="cake",
            processes=ShardConfig(processes=2, start_method="spawn"),
            verify=VerifyConfig(
                enabled=False,
                inject=NumericFaultPlan(
                    rules=(NumericFaultRule(kind="kill"),),
                    state_dir=str(state_root / f"kill-{uid}"),
                ),
            ),
        )

    def hang(uid: str) -> dict:
        # A shard worker stalls far past the request deadline; the
        # ShardConfig deadline (derived per request by the server)
        # must kill the hung pool and surface DeadlineExceededError.
        return dict(
            engine="cake",
            deadline=HANG_DEADLINE_SECONDS,
            processes=ShardConfig(processes=2, start_method="spawn"),
            verify=VerifyConfig(
                enabled=False,
                inject=NumericFaultPlan(
                    rules=(
                        NumericFaultRule(
                            kind="hang", hang_seconds=HANG_SECONDS
                        ),
                    ),
                    state_dir=str(state_root / f"hang-{uid}"),
                ),
            ),
        )

    variants = [
        {"name": "plain-cake", "kwargs": dict(engine="cake")},
        {"name": "plain-goto", "kwargs": dict(engine="goto")},
        {"name": "threaded", "kwargs": dict(engine="cake", workers=2)},
        {
            "name": "bitflip-heal",
            # ABFT detects the flipped bit at the block barrier and
            # recomputes the strip inside the engine call.
            "kwargs": dict(
                engine="cake",
                verify=VerifyConfig(
                    inject=NumericFaultPlan(
                        rules=(
                            NumericFaultRule(
                                block=0, strip=0, kind="bitflip"
                            ),
                        )
                    )
                ),
            ),
        },
        {"name": "transient-retry", "kwargs": transient},
    ]
    if include_sharded:
        variants.append({"name": "kill-rebuild", "kwargs": kill})
        variants.append(
            {"name": "hang-deadline", "kwargs": hang, "expect": "deadline"}
        )
    return variants


def run_soak(
    *,
    seconds: float = 10.0,
    clients: int = 3,
    n: int = 192,
    machine=None,
    include_sharded: bool = True,
    state_root: str | None = None,
) -> dict:
    """Run the soak and return its audit report (no exiting/printing)."""
    machine = intel_i9_10900k() if machine is None else machine
    root = Path(
        tempfile.mkdtemp(prefix="cake-soak-")
        if state_root is None
        else state_root
    )
    root.mkdir(parents=True, exist_ok=True)

    # Fixed operand pairs and their direct-engine references: the
    # bit-identity oracle every served response is audited against.
    # cores=1 keeps CB blocks small enough that the sharded variants
    # get a real multi-block shard grid at this problem size.
    rng = np.random.default_rng(2021_08)
    m, p, k = max(n // 4, 1), n, 2 * n
    pairs = [
        (
            rng.standard_normal((m, k)).astype(np.float32),
            rng.standard_normal((k, p)).astype(np.float32),
        )
        for _ in range(3)
    ]
    references = {
        "cake": [CakeGemm(machine, cores=1).multiply(a, b).c for a, b in pairs],
        "goto": [GotoGemm(machine, cores=1).multiply(a, b).c for a, b in pairs],
    }

    variants = _variants(root, include_sharded)
    counts = {
        "requests": 0,
        "ok": 0,
        "shed": 0,
        "deadline_exceeded": 0,
        "expected_deadlines": 0,
        "structured_failures": 0,
        "unstructured_failures": 0,
        "silent_wrong": 0,
        "unresolved": 0,
    }
    per_variant: dict[str, dict[str, int]] = {
        v["name"]: {"requests": 0, "ok": 0, "errors": 0} for v in variants
    }
    lock = threading.Lock()

    server = MultiplyServer(
        machine,
        capacity=4 * clients + 8,
        executors=2,
        cores=1,
        retry_policy=RetryPolicy(retries=2, base_delay=0.01, max_delay=0.2),
    )

    stop_at = time.monotonic() + seconds

    def client(worker: int) -> None:
        iteration = 0
        while time.monotonic() < stop_at:
            variant = variants[(worker + iteration) % len(variants)]
            iteration += 1
            uid = f"{worker}-{iteration}"
            kwargs = variant["kwargs"]
            if callable(kwargs):
                kwargs = kwargs(uid)
            index = iteration % len(pairs)
            a, b = pairs[index]
            reference = references[kwargs.get("engine", "cake")][index]
            with lock:
                counts["requests"] += 1
                per_variant[variant["name"]]["requests"] += 1
            try:
                handle = server.submit(a, b, **kwargs)
            except AdmissionError:
                with lock:
                    counts["shed"] += 1
                continue
            try:
                run = handle.result(timeout=RESULT_TIMEOUT_SECONDS)
            except DeadlineExceededError:
                with lock:
                    counts["deadline_exceeded"] += 1
                    if variant.get("expect") == "deadline":
                        counts["expected_deadlines"] += 1
                    else:
                        per_variant[variant["name"]]["errors"] += 1
                continue
            except TimeoutError:
                with lock:
                    counts["unresolved"] += 1
                continue
            except CakeError:
                with lock:
                    counts["structured_failures"] += 1
                    per_variant[variant["name"]]["errors"] += 1
                continue
            except Exception:  # noqa: BLE001 - the contract audit itself
                with lock:
                    counts["unstructured_failures"] += 1
                    per_variant[variant["name"]]["errors"] += 1
                continue
            if np.array_equal(run.c, reference):
                with lock:
                    counts["ok"] += 1
                    per_variant[variant["name"]]["ok"] += 1
            else:
                with lock:
                    counts["silent_wrong"] += 1

    threads = [
        threading.Thread(target=client, args=(w,), name=f"soak-{w}")
        for w in range(clients)
    ]
    wall_start = time.perf_counter()
    server.start()
    try:
        for thread in threads:
            thread.start()
        # Generous join bound: every handle wait is itself bounded, so
        # a thread outliving this is wedged — a deadlock by definition.
        join_deadline = (
            seconds + RESULT_TIMEOUT_SECONDS + HANG_SECONDS + 30.0
        )
        for thread in threads:
            thread.join(timeout=max(1.0, join_deadline))
        deadlocked = any(thread.is_alive() for thread in threads)
    finally:
        server.stop(drain=False)
    wall = time.perf_counter() - wall_start

    stats = server.stats()
    return {
        "seconds": seconds,
        "clients": clients,
        "n": n,
        "include_sharded": include_sharded,
        "wall_seconds": wall,
        "deadlocked": deadlocked or counts["unresolved"] > 0,
        **counts,
        "variants": per_variant,
        "server": stats.as_dict(),
    }


def run_fleet_soak(
    *,
    seconds: float = 10.0,
    clients: int = 3,
    workers: int = 2,
    n: int = 128,
    machine=None,
    kill_every: float = 2.0,
    hang_every: float = 5.0,
    hang_seconds: float = 2.5,
    deadline: float = 30.0,
) -> dict:
    """Fleet soak: worker *processes* are killed and hung under load.

    The shard-level soak (:func:`run_soak`) injects faults inside one
    server; this one injects them at the supervisor level — whole
    worker processes SIGKILLed or control-loop-stalled on timers while
    clients stream multiplies. The audit is identical: every response
    bit-identical to the direct engine reference or a structured
    ``CakeError``, no deadlocks, no silent wrong answers. Requests
    carry a ``deadline`` so a crash mid-request must resolve via
    re-dispatch or structured error *within that budget*, never hang.
    """
    import random

    from repro.runtime.restart import RestartPolicy
    from repro.serve.fleet import FleetServer

    machine = intel_i9_10900k() if machine is None else machine
    rng = np.random.default_rng(2021_08)
    m, p, k = max(n // 4, 1), n, 2 * n
    pairs = [
        (
            rng.standard_normal((m, k)).astype(np.float32),
            rng.standard_normal((k, p)).astype(np.float32),
        )
        for _ in range(3)
    ]
    references = {
        "cake": [CakeGemm(machine, cores=1).multiply(a, b).c for a, b in pairs],
        "goto": [GotoGemm(machine, cores=1).multiply(a, b).c for a, b in pairs],
    }

    variants = [
        {"name": "plain-cake", "kwargs": dict(engine="cake")},
        {"name": "plain-goto", "kwargs": dict(engine="goto")},
        {"name": "threaded", "kwargs": dict(engine="cake", workers=2)},
        {
            "name": "bitflip-heal",
            "kwargs": dict(
                engine="cake",
                verify=VerifyConfig(
                    inject=NumericFaultPlan(
                        rules=(
                            NumericFaultRule(
                                block=0, strip=0, kind="bitflip"
                            ),
                        )
                    )
                ),
            ),
        },
    ]
    counts = {
        "requests": 0,
        "ok": 0,
        "shed": 0,
        "deadline_exceeded": 0,
        "structured_failures": 0,
        "unstructured_failures": 0,
        "silent_wrong": 0,
        "unresolved": 0,
        "kills_injected": 0,
        "hangs_injected": 0,
    }
    per_variant: dict[str, dict[str, int]] = {
        v["name"]: {"requests": 0, "ok": 0, "errors": 0} for v in variants
    }
    lock = threading.Lock()
    result_timeout = deadline + 30.0

    fleet = FleetServer(
        machine,
        workers=workers,
        capacity=4 * clients + 8,
        worker_capacity=4 * clients + 8,
        executors=2,
        cores=1,
        retry_policy=RetryPolicy(retries=2, base_delay=0.01, max_delay=0.2),
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        # The chaos thread kills workers for the whole run: a huge cap
        # plus a short health-reset keeps restarts effectively unbounded
        # here (tests pin the bounded/terminal path separately).
        restart_policy=RestartPolicy(
            max_restarts=1_000_000,
            backoff=RetryPolicy(retries=0, base_delay=0.05, max_delay=0.5),
            reset_after=5.0,
        ),
        max_redispatch=3,
        max_inflight_per_worker=2 * clients,
    )

    stop_at = time.monotonic() + seconds
    chaos_stop = threading.Event()

    def chaos() -> None:
        chooser = random.Random(1337)
        next_kill = time.monotonic() + kill_every
        next_hang = time.monotonic() + hang_every
        while not chaos_stop.wait(0.05):
            now = time.monotonic()
            ready = fleet.supervisor.ready_indices()
            if not ready:
                continue
            if kill_every > 0 and now >= next_kill:
                fleet.kill_worker(chooser.choice(ready))
                next_kill = now + kill_every
                with lock:
                    counts["kills_injected"] += 1
            if hang_every > 0 and now >= next_hang:
                fleet.hang_worker(chooser.choice(ready), hang_seconds)
                next_hang = now + hang_every
                with lock:
                    counts["hangs_injected"] += 1

    def client(worker: int) -> None:
        iteration = 0
        while time.monotonic() < stop_at:
            variant = variants[(worker + iteration) % len(variants)]
            iteration += 1
            kwargs = dict(variant["kwargs"])
            index = iteration % len(pairs)
            a, b = pairs[index]
            reference = references[kwargs.get("engine", "cake")][index]
            with lock:
                counts["requests"] += 1
                per_variant[variant["name"]]["requests"] += 1
            try:
                handle = fleet.submit(a, b, deadline=deadline, **kwargs)
            except AdmissionError:
                with lock:
                    counts["shed"] += 1
                continue
            try:
                run = handle.result(timeout=result_timeout)
            except DeadlineExceededError:
                with lock:
                    counts["deadline_exceeded"] += 1
                    per_variant[variant["name"]]["errors"] += 1
                continue
            except TimeoutError:
                with lock:
                    counts["unresolved"] += 1
                continue
            except CakeError:
                with lock:
                    counts["structured_failures"] += 1
                    per_variant[variant["name"]]["errors"] += 1
                continue
            except Exception:  # noqa: BLE001 - the contract audit itself
                with lock:
                    counts["unstructured_failures"] += 1
                    per_variant[variant["name"]]["errors"] += 1
                continue
            if np.array_equal(run.c, reference):
                with lock:
                    counts["ok"] += 1
                    per_variant[variant["name"]]["ok"] += 1
            else:
                with lock:
                    counts["silent_wrong"] += 1

    threads = [
        threading.Thread(target=client, args=(w,), name=f"fleet-soak-{w}")
        for w in range(clients)
    ]
    chaos_thread = threading.Thread(target=chaos, name="fleet-soak-chaos")
    wall_start = time.perf_counter()
    fleet.start()
    try:
        for thread in threads:
            thread.start()
        chaos_thread.start()
        join_deadline = seconds + result_timeout + 30.0
        for thread in threads:
            thread.join(timeout=max(1.0, join_deadline))
        deadlocked = any(thread.is_alive() for thread in threads)
        chaos_stop.set()
        chaos_thread.join(5.0)
    finally:
        chaos_stop.set()
        fleet.stop(drain=False)
    wall = time.perf_counter() - wall_start

    stats = fleet.stats()
    return {
        "seconds": seconds,
        "clients": clients,
        "workers": workers,
        "n": n,
        "wall_seconds": wall,
        "deadlocked": deadlocked or counts["unresolved"] > 0,
        **counts,
        "variants": per_variant,
        "fleet": stats.as_dict(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-injected soak of the multiply server "
        "(nonzero exit on silent wrong answers or deadlocks)."
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--n", type=int, default=192)
    parser.add_argument(
        "--no-sharded",
        action="store_true",
        help="skip the kill/hang shard variants (single-core hosts)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the report here"
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="WORKERS",
        help="run the supervisor-level fleet soak with this many worker "
        "processes being killed/hung under load (0: single-server soak)",
    )
    args = parser.parse_args(argv)

    if args.fleet > 0:
        report = run_fleet_soak(
            seconds=args.seconds,
            clients=args.clients,
            workers=args.fleet,
            n=args.n,
        )
    else:
        report = run_soak(
            seconds=args.seconds,
            clients=args.clients,
            n=args.n,
            include_sharded=not args.no_sharded,
        )
    print(json.dumps(report, indent=2, default=str))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2, default=str))

    if report["deadlocked"]:
        print("SOAK FAILED: deadlock (unresolved requests)", file=sys.stderr)
        return 2
    if report["silent_wrong"] or report["unstructured_failures"]:
        print(
            "SOAK FAILED: "
            f"{report['silent_wrong']} silent wrong answers, "
            f"{report['unstructured_failures']} unstructured failures",
            file=sys.stderr,
        )
        return 1
    if report["ok"] == 0:
        print("SOAK FAILED: no request succeeded", file=sys.stderr)
        return 1
    print(
        f"soak OK: {report['ok']}/{report['requests']} bit-identical, "
        f"{report['shed']} shed, "
        f"{report['deadline_exceeded']} deadline-expired, "
        f"{report['structured_failures']} structured failures, "
        f"0 silent wrong answers, no deadlocks"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
