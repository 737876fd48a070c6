"""The ``serve-remote`` workload: an open loop into ``cake-serve`` over its socket.

``cake-serve --workers 2 --port 0`` runs as a subprocess. One process
of client threads, each owning one ``FleetClient`` connection, sends a
seeded schedule of Poisson arrivals at a few fixed rates. A request is
timed from when it was due, so a stall that delays later sends counts
against them. Every reply must be bit-identical to a direct
``cake_matmul`` of the same operands.
"""

from __future__ import annotations

import os
import pickle
import queue
import re
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from perfbench.matmul import Pair, make_pair, reference_times
from perfbench.stats import median, percentile

#: Request classes: the Fig-8 skewed small problem and the 512^3 one.
CLASSES = {
    "small": {"shape": (32, 128, 256), "dtype": "float32", "pairs": 6},
    "large": {"shape": (512, 512, 512), "dtype": "float64", "pairs": 3},
}


@dataclass(frozen=True, slots=True)
class ServeSpec:
    rates: tuple = (20.0, 40.0, 160.0)
    #: The rate latency and ``x_numpy`` are reported at, and the share
    #: of the run's seconds spent at it.
    nominal: float = 20.0
    nominal_share: float = 0.7
    large_share: float = 0.2
    #: Latency limit on the tail percentile at each rate.
    limit_ms: float = 250.0
    tail: float = 90.0
    workers: int = 2

    @property
    def clients(self) -> int:
        return max(1, os.cpu_count() or 1)


SPEC = ServeSpec()


def make_pools(seed) -> dict[str, list[Pair]]:
    rng = np.random.default_rng(seed)
    pools, index = {}, 0
    for name, cls in CLASSES.items():
        pools[name] = []
        for _ in range(cls["pairs"]):
            pools[name].append(make_pair(rng, index, cls["shape"], cls["dtype"]))
            index += 1
    return pools


@dataclass(frozen=True, slots=True)
class Request:
    index: int
    due: float
    cls: str
    pair: int


def schedule(rng, rate: float, count: int, large_share: float) -> list[Request]:
    """``count`` Poisson arrivals at ``rate``, conditioned on their count.

    Given how many arrivals a Poisson process makes in a window, their
    times are independent and uniform over it, so the window's length
    is fixed and only the arrival pattern varies with the seed. Exactly
    ``round(large_share * count)`` requests are large.
    """
    duration = count / rate
    dues = np.sort(rng.uniform(0.0, duration, count))
    large = round(large_share * count)
    classes = np.array(["large"] * large + ["small"] * (count - large))
    rng.shuffle(classes)
    sizes = {name: cls["pairs"] for name, cls in CLASSES.items()}
    return [
        Request(i, float(due), str(cls), int(rng.integers(sizes[str(cls)])))
        for i, (due, cls) in enumerate(zip(dues, classes))
    ]


class RemoteFleet:
    """``cake-serve --workers N --port 0`` as a subprocess of this one."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli",
             "--workers", str(self.workers), "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"on ([\w.:]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"cake-serve did not announce its address: {line!r}")
        return match.group(1), int(match.group(2))

    def stop(self) -> None:
        """Interrupt (the server drains), then kill if it does not exit."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


@dataclass(slots=True)
class Outcome:
    request: Request
    handed: float
    start: float
    end: float
    status: str  # "ok", "wrong", "refused", "failed", "unresolved"
    product: np.ndarray | None = None


def bit_identical(c, ref: np.ndarray) -> bool:
    return isinstance(c, np.ndarray) and c.dtype == ref.dtype and np.array_equal(c, ref)


class Load:
    """The client side: connections, operand pools and their direct products.

    The ``a @ b`` base of each pair is timed before the fleet starts and
    again in the idle gap after each window, and the median of all those
    samples is the base: a shared host's speed swings for seconds at a
    time, and bases spread over the run see the same swings the requests
    do.
    ``blas_threads`` reads the BLAS thread count, which must still be the
    pinned one whenever a base is timed.
    """

    def __init__(self, pools: dict[str, list[Pair]], *, blas_threads=None,
                 pinned: int | None = 1) -> None:
        self.pools = pools
        self.refs: dict[tuple[str, int], np.ndarray] = {}
        self.clients: list = []
        self.setup_s = 0.0
        self.base_samples: dict[int, list[float]] = {
            pair.index: [] for pool in pools.values() for pair in pool
        }
        self._blas_threads = blas_threads
        self._pinned = pinned

    def time_bases(self) -> None:
        if self._blas_threads is not None and self._blas_threads() != self._pinned:
            raise RuntimeError(
                f"BLAS runs {self._blas_threads()} threads, not the pinned "
                f"{self._pinned}: the a @ b base would move"
            )
        for pool in self.pools.values():
            for pair in pool:
                self.base_samples[pair.index] += reference_times(
                    pair.a, pair.b, min_reps=5, min_seconds=0.03
                )

    def base(self, pair: Pair) -> float:
        return median(self.base_samples[pair.index])

    def references(self) -> None:
        from repro.api import cake_matmul

        for name, pool in self.pools.items():
            for i, pair in enumerate(pool):
                self.refs[name, i] = cake_matmul(pair.a, pair.b).c

    def pair(self, request: Request) -> Pair:
        return self.pools[request.cls][request.pair]

    def connect(self, address, count: int) -> None:
        """Open ``count`` connections; each sends one request of each class."""
        from repro.serve import FleetClient

        def ready(client) -> None:
            for name, pool in self.pools.items():
                reply = client.multiply(pool[0].a, pool[0].b)
                if not bit_identical(reply.c, self.refs[name, 0]):
                    raise RuntimeError(f"warm-up {name} reply is not bit-identical")

        self.clients = [FleetClient(*address) for _ in range(count)]
        errors: list = []
        threads = [
            threading.Thread(target=_capture, args=(errors, ready, c))
            for c in self.clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def run(self, requests: list[Request], *, tracer=None, lead: float = 0.05,
            join_timeout: float = 120.0) -> tuple[float, list[Outcome]]:
        """Send ``requests`` on their schedule; return the window's start and outcomes."""
        from repro.errors import AdmissionError, CakeError

        handoff: queue.Queue = queue.Queue()
        outcomes: list = [None] * len(requests)

        def serve_client(client) -> None:
            while True:
                item = handoff.get()
                if item is None:
                    return
                request, due, handed = item
                pair = self.pair(request)
                reply = None
                start = time.perf_counter()
                try:
                    reply = client.multiply(pair.a, pair.b)
                    status = "ok"
                except AdmissionError:
                    status = "refused"
                except (CakeError, OSError):
                    status = "failed"
                end = time.perf_counter()
                outcomes[request.index] = Outcome(
                    request, handed, start, end, status,
                    None if reply is None else reply.c,
                )
                if tracer is not None:
                    parent = tracer.add("request", due, end, request=request.index,
                                        cls=request.cls, status=status)
                    tracer.add("repro.serve.FleetClient.multiply", start, end, parent=parent)

        threads = [
            threading.Thread(target=serve_client, args=(c,), daemon=True)
            for c in self.clients
        ]
        for t in threads:
            t.start()
        t0 = time.perf_counter() + lead
        for request in requests:
            due = t0 + request.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            handoff.put((request, due, time.perf_counter()))
        for _ in threads:
            handoff.put(None)
        for t in threads:
            t.join(join_timeout)
        # Products are checked after the window, so checking never
        # delays a later send.
        for o in outcomes:
            if o is not None and o.status == "ok":
                ref = self.refs[o.request.cls, o.request.pair]
                o.status = "ok" if bit_identical(o.product, ref) else "wrong"
            if o is not None:
                o.product = None
        return t0, [
            o if o is not None else Outcome(r, float("nan"), float("nan"), float("inf"), "unresolved")
            for r, o in zip(requests, outcomes)
        ]


def _capture(errors: list, fn, *args) -> None:
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - re-raised by the joining thread
        errors.append(exc)


def backlog(t0: float, outcomes, at: float) -> int:
    """Requests due by ``t0 + at`` that had not completed by then."""
    return sum(1 for o in outcomes if o.request.due <= at and t0 + at < o.end)


@dataclass(slots=True)
class Window:
    """One fixed-rate window: its outcomes, timed from each request's due time."""

    rate: float
    t0: float
    duration: float
    outcomes: list

    @classmethod
    def measure(cls, load: Load, rate: float, requests: list[Request], **kwargs) -> "Window":
        t0, outcomes = load.run(requests, **kwargs)
        return cls(rate, t0, max(requests[-1].due, 1.0 / rate), outcomes)

    def latency_ms(self, o: Outcome) -> float:
        """Due-to-reply milliseconds; a request that did not succeed never meets a limit."""
        return 1e3 * (o.end - (self.t0 + o.request.due)) if o.status == "ok" else float("inf")

    def counts(self) -> dict:
        statuses = [o.status for o in self.outcomes]
        return {s: statuses.count(s) for s in ("ok", "wrong", "refused", "failed", "unresolved")}

    def samples(self, load: Load) -> dict:
        """Raw samples for :func:`perfbench.metrics.open_loop`."""
        ok = [o for o in self.outcomes if o.status == "ok"]
        latency = [self.latency_ms(o) for o in self.outcomes]
        return {
            "rate": self.rate,
            "requests": len(self.outcomes),
            "ok": len(ok),
            "counts": self.counts(),
            "cls": [o.request.cls for o in self.outcomes],
            "latency_ms": latency,
            "ratios": [
                ms / 1e3 / load.base(load.pair(o.request))
                for o, ms in zip(self.outcomes, latency)
            ],
            "late_ms": [
                1e3 * (o.handed - (self.t0 + o.request.due))
                for o in self.outcomes if o.status != "unresolved"
            ],
            "backlog_quarters": [
                backlog(self.t0, self.outcomes, q * self.duration) for q in (0.25, 0.5, 0.75, 1.0)
            ],
            "wall": (max(o.end for o in ok) - self.t0) if ok else 0.0,
            "flops": sum(load.pair(o.request).flops for o in ok),
        }


@contextmanager
def connected(seed: list[int], blas_threads=None, pinned: int | None = 1, spec: ServeSpec = SPEC):
    """A started ``cake-serve`` and a ``Load`` connected to it; both stop on exit.

    ``load.setup_s`` is the set-up time: from launching ``cake-serve``
    until every connection has said hello and sent one request of each
    class. Operand bases and direct products are made before it starts.
    """
    load = Load(make_pools(seed), blas_threads=blas_threads, pinned=pinned)
    load.time_bases()
    for pool in load.pools.values():
        for pair in pool:
            pair.ref_seconds = load.base(pair)
    load.references()
    remote = RemoteFleet(spec.workers)
    try:
        start = time.perf_counter()
        load.connect(remote.start(), spec.clients)
        load.setup_s = time.perf_counter() - start
        yield load
    finally:
        load.close()
        remote.stop()


def stack_layers(load: "Load", seed: list[int], seconds: float, tracer,
                 spec: ServeSpec = SPEC) -> tuple[dict, int, int]:
    """The serve stack's per-layer figures, and the requests made and failed.

    Half of ``seconds`` is an open-loop window at the nominal rate (what a
    request waits for under load); the other half is the one-in-flight
    ladder over the same requests.
    """
    requests = window_requests(spec, seed, seconds / 2, [spec.nominal])[spec.nominal]
    window = Window.measure(load, spec.nominal, requests)
    rungs = ladder(load, requests, seconds / 2, tracer, spec.workers)
    attempted = len(window.outcomes) + ladder_attempts(rungs)
    failed = len(window.outcomes) - window.counts()["ok"] + ladder_failures(rungs)
    return serve_layers(spec, load, rungs, window), attempted, failed


def window_requests(spec: ServeSpec, seed: list[int], seconds: float, rates) -> dict:
    """One seeded schedule per rate.

    The nominal rate gets ``nominal_share`` of ``seconds`` (all of them
    when it is the only rate); the other rates share the rest with equal
    request counts, so the saturating top rate stays short.
    """
    others = [r for r in rates if r != spec.nominal]
    nominal_seconds = spec.nominal_share * seconds if others else seconds
    counts = {spec.nominal: round(nominal_seconds * spec.nominal)}
    if others:
        count = round((seconds - nominal_seconds) / sum(1.0 / r for r in others))
        counts.update({r: count for r in others})
    rng = np.random.default_rng([*seed, 1])
    return {
        rate: schedule(rng, rate, max(1, counts[rate]), spec.large_share)
        for rate in rates
    }


# -- the traced ladder -------------------------------------------------------


def ladder(load: Load, requests: list[Request], seconds: float, tracer, workers: int) -> dict:
    """One request in flight, the same request through each serving rung.

    Rungs: direct ``cake_matmul``; an in-process ``MultiplyServer``; an
    in-process ``FleetServer``; the remote fleet over the socket. Each
    rung's cost is the paired per-request difference from the rung
    below it, so host drift over the ladder cancels.
    """
    from repro.api import cake_matmul
    from repro.serve import FleetServer, MultiplyServer

    rungs = {}
    with MultiplyServer() as server, FleetServer(workers=workers) as fleet:
        remote = load.clients[0]
        calls = {
            "direct": lambda a, b: cake_matmul(a, b),
            "server": lambda a, b: server.multiply(a, b),
            "fleet": lambda a, b: fleet.multiply(a, b),
            "remote": lambda a, b: remote.multiply(a, b),
        }
        for name in ("server", "fleet"):  # the first request spawns/warms
            for pool in load.pools.values():
                calls[name](pool[0].a, pool[0].b)
        deadline = time.perf_counter() + seconds
        rows = []
        handoff_bytes = {}
        for request in requests:
            if time.perf_counter() >= deadline and len(rows) >= 20:
                break
            pair = load.pair(request)
            ref = load.refs[request.cls, request.pair]
            row = {"cls": request.cls}
            for name, fn in calls.items():
                with tracer.span(f"ladder.{name}", request=request.index):
                    start = time.perf_counter()
                    out = fn(pair.a, pair.b)
                    row[name] = time.perf_counter() - start
                row[name + "_ok"] = bit_identical(out.c, ref)
                if name == "fleet" and request.cls not in handoff_bytes:
                    handoff_bytes[request.cls] = (
                        len(pickle.dumps((pair.a, pair.b)))
                        + len(pickle.dumps(("result", "id", "ok", out)))
                    )
            rows.append(row)
        rungs["rows"] = rows
        rungs["handoff_bytes"] = handoff_bytes
    return rungs


def codec(pair: Pair, c: np.ndarray) -> tuple[float, int]:
    """Seconds to encode and decode a request and its reply, and frame bytes.

    Frame bytes count both frames' 12-byte prefixes, JSON headers as
    ``FleetClient`` and the front door build them, and blobs.
    """
    import json

    from repro.serve.protocol import decode_arrays, encode_arrays

    def roundtrip():
        manifest, blob = encode_arrays([pair.a, pair.b])
        decode_arrays(manifest, blob)
        out_manifest, out_blob = encode_arrays([c])
        decode_arrays(out_manifest, out_blob)
        return manifest, blob, out_manifest, out_blob

    times = []
    for _ in range(7):
        start = time.perf_counter()
        manifest, blob, out_manifest, out_blob = roundtrip()
        times.append(time.perf_counter() - start)
    header_in = {"kind": "exec", "id": 1, "arrays": manifest, "engine": "cake",
                 "deadline": None, "priority": 0, "backend": None, "workers": None}
    header_out = {"kind": "result", "id": 1, "arrays": out_manifest, "report": {}}
    wire = sum(12 + len(json.dumps(h, separators=(",", ":"))) for h in (header_in, header_out))
    return median(times), wire + len(blob) + len(out_blob)


def serve_layers(spec: ServeSpec, load: Load, rungs: dict, window: Window) -> dict:
    """Per-class serve-stack figures from the ladder and an open-loop window."""
    out = {}
    for cls, pool in load.pools.items():
        mine = [r for r in rungs["rows"] if r["cls"] == cls]
        if not mine:
            raise RuntimeError(f"the ladder ran no {cls} request; measure longer")
        out[f"server.seconds.{cls}"] = median([r["server"] - r["direct"] for r in mine])
        out[f"fleet.handoff_seconds.{cls}"] = median([r["fleet"] - r["server"] for r in mine])
        out[f"fleet.handoff_bytes.{cls}"] = rungs["handoff_bytes"][cls]
        out[f"wire.socket_seconds.{cls}"] = median([r["remote"] - r["fleet"] for r in mine])
        seconds, nbytes = codec(pool[0], load.refs[cls, 0])
        out[f"wire.codec_seconds.{cls}"] = seconds
        out[f"wire.bytes.{cls}"] = nbytes
        open_loop = [
            window.latency_ms(o) / 1e3 for o in window.outcomes if o.request.cls == cls
        ]
        out[f"serve.wait_seconds.{cls}"] = median(open_loop) - median([r["remote"] for r in mine])
    out["loadgen.late_ms"] = percentile(window.samples(load)["late_ms"] or [0.0], spec.tail).value
    return out


def ladder_failures(rungs: dict) -> int:
    return sum(
        1 for row in rungs["rows"] for key, ok in row.items()
        if key.endswith("_ok") and not ok
    )


def ladder_attempts(rungs: dict) -> int:
    return sum(1 for row in rungs["rows"] for key in row if key.endswith("_ok"))
