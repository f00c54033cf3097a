"""One benchmark pass in a fresh process.

Reads a job from stdin as JSON: {"src": path, "requests": [...], "trace":
bool}.  Replays the requests in order through ``ncposet.cli.run``, one
client in a closed loop, each call timed from the call to the return with
stdout and stderr captured in memory.  Caches persist from one request to
the next, as when one program calls the library many times.  Each output
is checked, and the machine's speed sampled (`calibrate`), between timed
calls.  Writes one JSON object to stdout when the pass ends.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def _calibration_key(item: tuple[int, int]) -> tuple[int, int]:
    return item[1], item[0]


def calibrate() -> float:
    """Seconds for a fixed slice of hashing, allocation and sorting.

    The machine's speed drifts by a third within a minute under other
    load, so every latency is later scaled by this slice's time measured
    next to it.  The collector is paused so that the library's heap does
    not enter the measurement.
    """
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(1500):
            table[i, i & 7] = str(i)
        sorted(table, key=_calibration_key)
        return perf_counter() - start
    finally:
        gc.enable()


def _q_leq_cache() -> dict | None:
    """Size and hit counts of the q_leq memo, if the library still has one."""
    cached = getattr(sys.modules.get("ncposet.variants"), "_q_leq_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def run_pass(requests: list[dict], trace: bool) -> dict:
    from ncposet import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    records = []
    calibration = [calibrate()]
    for index, request in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.run(request["argv"])
            except Exception as exc:  # a crash fails this request, not the pass
                code, crash = -1, f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        text = out.getvalue()
        records.append([code, elapsed, checks.digest(code, text),
                        crash or checks.check_output(request["expect"], code, text)])
        calibration.append(calibrate())
    result = {
        "records": records,
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result.update(layers=tracer.totals, spans=tracer.spans, missing=missing,
                      q_leq_cache=_q_leq_cache())
    return result


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    result = run_pass(job["requests"], job["trace"])
    sys.stdout.write(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
