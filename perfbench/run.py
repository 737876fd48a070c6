"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload matmul-small --seed 1 --seconds 15 --trace 0

Workloads: ``matmul-small``, ``matmul-large``, ``serve-remote`` (see
``BENCHMARK.json``). An untraced run is three segments, each a fresh
child process (``perfbench.worker``) that sets up from scratch and then
measures for a third of ``--seconds``. Their samples are pooled before
any percentile is taken (``perfbench.metrics``); ``setup_s`` is the
median of the three set-ups and ``peak_rss_mb`` the largest peak. On a
shared 2-core VM one launch could run a third slower than the next for
its whole life, so one launch is one sample. A traced run is one
segment of ``--seconds``.

Children run with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread. This process samples the resident memory of each child and
everything it starts, stops every process the run started, and prints
the metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Any wrong product, failed or refused request exits non-zero. The full
result, with host metadata, thread budget, per-rate rows and spans, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent))

from perfbench import metrics  # noqa: E402
from perfbench.report import (  # noqa: E402
    END_TO_END, OPEN_LOOP, PER_LAYER, UNLISTED, result_line, table_lines,
)

WORKLOADS = ("matmul-small", "matmul-large", "serve-remote")
#: Fresh processes an untraced run is split into.
SEGMENTS = 3
#: Everything must end inside this many seconds of wall clock.
BUDGET_SECONDS = 170.0
PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def session_pids(sid: int) -> dict[int, int]:
    """Live processes in session ``sid`` (the worker and all it started),
    each with its thread count."""
    pids = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[3]) == sid and fields[0] != "Z":
                pids[int(entry)] = int(fields[17])
    return pids


def rss_bytes(pid: int) -> int:
    try:
        return int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * PAGE
    except (OSError, IndexError, ValueError):
        return 0


def own_peak_bytes() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return 0


class SessionSampler(threading.Thread):
    """Peaks over time of one session's summed RSS, processes and threads.

    Sampled every ``period`` seconds, about a millisecond of work each.
    Shared pages (a forked shard child's inherited heap) count in every
    process that maps them, as ``ps`` shows them. The process and thread
    peaks are the measured side of the workload's thread budget.
    """

    def __init__(self, sid: int, period: float = 0.1) -> None:
        super().__init__(daemon=True)
        self.sid = sid
        self.period = period
        self.peak = 0
        self.peak_processes = 0
        self.peak_threads = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.is_set():
            pids = session_pids(self.sid)
            self.peak = max(self.peak, sum(rss_bytes(pid) for pid in pids))
            self.peak_processes = max(self.peak_processes, len(pids))
            self.peak_threads = max(self.peak_threads, sum(pids.values()))
            self._done.wait(self.period)

    def stop(self) -> None:
        self._done.set()
        self.join()


def reap_session(sid: int, timeout: float = 15.0) -> None:
    """Stop whatever is left of a session and wait until it is gone."""
    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    while True:
        pids = session_pids(sid)
        if not pids:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def worker(args, out: Path, *, segment: int, seconds: float,
           timeout: float) -> tuple[dict, SessionSampler]:
    """Run the worker in its own session; return its result and its sampler."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH.parent), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
        "--seed", str(args.seed), "--segment", str(segment), "--seconds", str(seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    if out.exists():
        out.unlink()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=sys.stderr)
    sampler = SessionSampler(proc.pid)
    sampler.start()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        sampler.stop()
        reap_session(proc.pid)
        proc.wait()
    if code != 0 or not out.exists():
        raise RuntimeError(
            f"workload process {'timed out' if code is None else f'exited {code}'}"
        )
    return json.loads(out.read_text()), sampler


def combine(results: list[dict], *, trace: bool) -> dict:
    """One result from the segments: pooled samples, summed counts."""
    first = results[0]
    combined = {
        **{k: v for k, v in first.items() if k not in ("samples", "spans", "segment")},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "segments": [
            {"setup_s": r["setup_s"], "blas_threads": r["blas_threads"]} for r in results
        ],
    }
    if trace:
        return combined
    samples = [r["samples"] for r in results]
    if first["workload"] == "serve-remote":
        measured, rows = metrics.open_loop(
            samples, nominal=first["nominal_rate"], limit_ms=first["limit_ms"],
            tail=first["tail_percentile"], clients=first["clients"],
        )
        combined["rate_rows"] = rows
        combined["samples"] = next(r["requests"] for r in rows if r["rate"] == first["nominal_rate"])
    else:
        measured, counts = metrics.closed_loop(samples, first["tail_percentile"])
        combined["samples"] = counts["samples"]
    combined["metrics"] = {
        **measured, "setup_s": statistics.median(r["setup_s"] for r in results)
    }
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    out_dir = BENCH / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    segments = 1 if args.trace else SEGMENTS
    results, samplers = [], []
    try:
        for segment in range(segments):
            remaining = BUDGET_SECONDS - (time.monotonic() - started)
            result, sampler = worker(
                args, out_dir / f"{stem}-seg{segment}.json", segment=segment,
                seconds=args.seconds / segments, timeout=remaining,
            )
            results.append(result)
            samplers.append(sampler)
        result = combine(results, trace=bool(args.trace))
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    result["budget"]["measured_peak_processes"] = max(s.peak_processes for s in samplers)
    result["budget"]["measured_peak_threads"] = max(s.peak_threads for s in samplers)
    if not args.trace:
        peak = max(s.peak for s in samplers)
        result["metrics"]["peak_rss_mb"] = (peak + own_peak_bytes()) / 1e6
    metrics = result["metrics"]
    table = PER_LAYER if args.trace else END_TO_END
    (out_dir / f"{stem}.json").write_text(json.dumps(result, default=str))

    attempted, failed = result["attempted"], result["failed"]
    budget = result["budget"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  host: nproc={budget['nproc']} cpu={result['host']['cpu_model']!r} "
          f"numpy={result['host']['numpy']} python={result['host']['python']}")
    print(f"  blas: {result['host']['blas_config']} threads before/after="
          f"{result['blas_threads']['before']}/{result['blas_threads']['after']}")
    print(f"  budget: {json.dumps(budget)}")
    print(f"  segments={len(results)} samples={result.get('samples')} "
          f"tail=p{result['tail_percentile']:g} "
          f"fail_share={failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for row in result.get("rate_rows", []):
        print(f"  rate {row['rate']:g}/s: p50={row['latency_p50_ms']:.2f}ms "
              f"tail={row['latency_tail_ms']:.2f}ms late_tail={row['late_tail_ms']:.2f}ms "
              f"backlog={row['backlog_quarters']} met={row['met']}"
              + (" GENERATOR BEHIND" if row["generator_behind"] else ""))
    for line in table_lines(metrics, {**UNLISTED, **OPEN_LOOP}):
        print(line)
    for line in table_lines(metrics, table):
        print(line)
    print(result_line(metrics, table, attempted=attempted, failed=failed))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
