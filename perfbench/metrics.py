"""End-to-end metrics from raw samples, pooled over a run's segments.

A segment (one fresh process) returns its raw samples; these functions
pool the samples of every segment before taking a percentile, so a tail
rests on the whole run's samples and one slow launch moves it by its
share only. Pure Python: the orchestrating process never loads numpy.
"""

from __future__ import annotations

from perfbench.stats import percentile, tail_percentile


def closed_loop(segments: list[dict], tail: float) -> tuple[dict, dict]:
    """One closed-loop caller's figures.

    Each segment holds ``seconds`` and ``ratios`` per call and the
    ``flops`` of its correct calls. Throughput is over the time spent
    inside calls, not the benchmark's checking between them.
    """
    seconds = [s for seg in segments for s in seg["seconds"]]
    ratios = [r for seg in segments for r in seg["ratios"]]
    ratio_tail = tail_percentile(ratios, tail)
    return {
        "throughput_gflops": sum(seg["flops"] for seg in segments) / sum(seconds) / 1e9,
        "x_numpy_p50": percentile(ratios, 50.0).value,
        "x_numpy_tail": ratio_tail.value,
    }, {"samples": ratio_tail.samples, "tail_beyond": ratio_tail.beyond}


def rate_row(windows: list[dict], *, limit_ms: float, tail: float, clients: int) -> dict:
    """One fixed rate's figures, pooled over the segments' windows at it.

    The rate is met when the tail latency is under the limit, no
    request failed or was refused (those count as missing the limit),
    no window's backlog grew, and the generator kept to its schedule.
    """
    rate = windows[0]["rate"]
    latency = [x for w in windows for x in w["latency_ms"]]
    late = [x for w in windows for x in w["late_ms"]] or [0.0]
    tail_latency = percentile(latency, tail)
    late_tail = percentile(late, tail)
    # A backlog grows when the window ends with more requests waiting
    # than the clients could have in flight twice over, and more than
    # at its first quarter.
    growing = any(
        w["backlog_quarters"][-1] > 2 * clients
        and w["backlog_quarters"][-1] > w["backlog_quarters"][0]
        for w in windows
    )
    # The generator fell behind if its own lateness is a real share of
    # the gap between arrivals: then late sends are its doing, not the
    # server's, and the window says nothing about the program.
    behind = late_tail.value > max(5.0, 0.25 * 1e3 / rate)
    requests = sum(w["requests"] for w in windows)
    ok = sum(w["ok"] for w in windows)
    wall = sum(w["wall"] for w in windows)
    return {
        "rate": rate,
        "requests": requests,
        "ok": ok,
        "latency_p50_ms": percentile(latency, 50.0).value,
        "latency_tail_ms": tail_latency.value,
        "tail_beyond": tail_latency.beyond,
        "late_p50_ms": percentile(late, 50.0).value,
        "late_tail_ms": late_tail.value,
        "backlog_quarters": [w["backlog_quarters"] for w in windows],
        "backlog_growing": growing,
        "generator_behind": behind,
        "achieved_rps": ok / wall if wall > 0 else 0.0,
        "gflops": sum(w["flops"] for w in windows) / wall / 1e9 if wall > 0 else 0.0,
        "met": tail_latency.value < limit_ms and ok == requests and not growing
        and not behind,
    }


def open_loop(segments: list[list[dict]], *, nominal: float, limit_ms: float,
              tail: float, clients: int) -> tuple[dict, list[dict]]:
    """The open loop's figures: latency at the nominal rate, the highest met rate.

    ``max_rate_rps`` is the completion rate achieved at the highest
    fixed rate that was met, as measured; ``throughput_gflops`` is the
    useful work per second achieved at the top rate, which saturates.
    """
    by_rate: dict[float, list[dict]] = {}
    for windows in segments:
        for w in windows:
            by_rate.setdefault(w["rate"], []).append(w)
    rows = [
        rate_row(by_rate[rate], limit_ms=limit_ms, tail=tail, clients=clients)
        for rate in sorted(by_rate)
    ]
    nominal_windows = by_rate[nominal]
    latency = [x for w in nominal_windows for x in w["latency_ms"]]
    ratios = [x for w in nominal_windows for x in w["ratios"]]
    latency_tail = tail_percentile(latency, tail)
    met = [row for row in rows if row["met"]]
    return {
        "throughput_gflops": rows[-1]["gflops"],
        "x_numpy_p50": percentile(ratios, 50.0).value,
        "x_numpy_tail": tail_percentile(ratios, tail).value,
        "latency_p50_ms": percentile(latency, 50.0).value,
        "latency_tail_ms": latency_tail.value,
        "max_rate_rps": met[-1]["achieved_rps"] if met else 0.0,
    }, rows
