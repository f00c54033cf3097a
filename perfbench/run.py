"""ncposet benchmark: seeded CLI request mixes, timed end to end.

    python3 perfbench/run.py --workload hasse_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed.  One run:

1. times ``setup_s``: fresh interpreters that import ``ncposet.cli`` and build
   its parser (median of several spawns, after one warm-up spawn);
2. generates the workload's request list from ``--seed`` (`workloads.py`);
3. replays the list in passes, each in a fresh worker process
   (`worker.py`), until ``--seconds`` have passed.  With ``--trace 1``
   untraced and traced passes alternate, so the trace overhead is measured
   against passes of the same run;
4. checks every output (`checks.py`), compares digests with the golden
   corpus at the default seed and with the run's first pass otherwise, and
   counts each bad output as a failed request instead of aborting;
5. prints a detail line and then, as the last line, the result object.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  Spans of the last traced pass are
written to ``perfbench/out/``.  ``--record-golden`` rewrites the golden
digests from the current code instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "posets.hasse.self_s": "s",
    "posets.hasse.vertices": "count",
    "posets.hasse.edges": "count",
    "posets.transitive_reduction.self_s": "s",
    "posets.transitive_reduction.raw_edges": "count",
    "posets.transitive_reduction.kept_edges": "count",
    "posets.transitive_reduction.kept_ratio": "ratio",
    "posets.to_json.self_s": "s",
    "posets.to_json.bytes": "bytes",
    "posets.to_dot.self_s": "s",
    "posets.to_dot.bytes": "bytes",
    "posets.leq.calls": "count",
    "posets.leq.self_s": "s",
    "variants.p_leq.calls": "count",
    "variants.p_leq.self_s": "s",
    "variants.q_leq.calls": "count",
    "variants.q_leq.self_s": "s",
    "variants.q_leq.cache_hit_ratio": "ratio",
    "variants.q_leq.cache_entries": "count",
    "variants.swap_successors.calls": "count",
    "termorders.validate_order.self_s": "s",
    "termorders.order_compare.calls": "count",
    "termorders.order_compare.self_s": "s",
    "termorders.contains_poset.self_s": "s",
    "commutative.check_coconnection.self_s": "s",
    "commutative.comm_leq.calls": "count",
    "commutative.comm_leq.self_s": "s",
    "commutative.monomials_up_to_rank.self_s": "s",
    "commutative.monomials_up_to_rank.elements": "count",
    "words.words_up_to_rank.self_s": "s",
    "words.words_up_to_rank.elements": "count",
    "words.words_up_to_degree.elements": "count",
    "words.parse_word.calls": "count",
    "words.parse_word.self_s": "s",
    "ncorder.covers_up.calls": "count",
    "ncorder.covers_up.self_s": "s",
    "ncorder.nc_leq.calls": "count",
    "ncorder.nc_leq.self_s": "s",
    "ideals.strongly_stable_closure.self_s": "s",
    "ideals.is_strongly_stable.self_s": "s",
    "ideals.ideal_member.calls": "count",
    "series.enumerate_by_rank.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# `worker.calibrate` on an unloaded core of the reference machine (2 vCPUs,
# Python 3.11).  Every time is reported at this speed: a latency is scaled
# by this constant over the calibration measured around it.
REFERENCE_CALIBRATION_S = 0.0007
SETUP_SAMPLES = 15
# Ready once ncposet.cli is imported and its parser built; then, untimed,
# the spawn samples the speed of the core it ran on.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ncposet.cli; "
    "ncposet.cli.build_parser(); print('ready', flush=True); "
    "sys.path.insert(0, sys.argv[2]); from worker import calibrate; "
    "print(sorted(calibrate() for _ in range(3))[1], flush=True)"
)
# A run must end within 180 s: no pass starts unless it should end by then.
RUN_BUDGET_S = 150.0


def measure_setup() -> list[float]:
    """Seconds from spawning an interpreter to ``ncposet.cli`` ready, per spawn,
    at the reference speed."""
    times = []
    for spawn in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - start
            speed = proc.stdout.readline()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up spawn did not import ncposet.cli")
        if spawn:  # the first spawn warms the bytecode and file caches
            times.append(elapsed * REFERENCE_CALIBRATION_S / float(speed))
    return times


def run_worker(requests: list[dict], trace: bool, timeout: float) -> dict:
    job = json.dumps({"src": str(SRC), "requests": requests, "trace": trace})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job,
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["traced"] = trace
    return result


def run_passes(requests: list[dict], seconds: float, trace: bool) -> list[dict]:
    """Closed-loop passes until ``seconds`` have passed; traced runs end on a pair."""
    passes: list[dict] = []
    start = perf_counter()
    longest = 0.0
    while True:
        elapsed = perf_counter() - start
        done = elapsed >= seconds and (not trace or len(passes) % 2 == 0)
        if passes and (done or elapsed + 1.5 * longest > RUN_BUDGET_S):
            break
        traced = trace and len(passes) % 2 == 1
        began = perf_counter()
        passes.append(run_worker(requests, traced, timeout=RUN_BUDGET_S + 20 - elapsed))
        longest = max(longest, perf_counter() - began)
    return passes


def count_failures(passes: list[dict], golden: list[str] | None) -> tuple[int, list[str]]:
    """Bad outputs over all passes: failed checks, golden or cross-pass digest drift."""
    reference = golden or [record[2] for record in passes[0]["records"]]
    failed, problems = 0, []
    for p in passes:
        for index, (_, _, digest, problem) in enumerate(p["records"]):
            if problem is None and digest != reference[index]:
                problem = "digest differs from " + ("the golden corpus" if golden else
                                                    "the first pass")
                if p["traced"]:
                    problem += " (traced pass)"
            if problem is not None:
                failed += 1
                problems.append(f"request {index}: {problem}")
    return failed, problems


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(p: dict, speed: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``speed`` scales times to the reference."""
    totals = p["layers"]
    values = {}
    for name in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        values[name] = totals.get(prefix, {}).get(field, 0) * (speed if field == "self_s" else 1)
    reduction = totals.get("posets.transitive_reduction", {})
    values["posets.transitive_reduction.kept_ratio"] = _ratio(
        reduction.get("kept_edges", 0), reduction.get("raw_edges", 0))
    cache = p["q_leq_cache"] or {"hits": 0, "misses": 0, "entries": 0}
    values["variants.q_leq.cache_hit_ratio"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"])
    values["variants.q_leq.cache_entries"] = cache["entries"]
    return values


def scaled_latencies(p: dict) -> list[float]:
    """The pass's per-request latencies in seconds at the reference speed.

    Request i ran between calibrations i and i+1; it is scaled by the
    median of the four calibrations around it, so one disturbed sample
    does not move it.
    """
    cal = p["calibration"]
    return [record[1] * REFERENCE_CALIBRATION_S / statistics.median(cal[max(0, i - 1) : i + 3])
            for i, record in enumerate(p["records"])]


def raw_wall(p: dict) -> float:
    """Measured seconds the pass spent inside ``cli.run``, not scaled."""
    return sum(record[1] for record in p["records"])


def summarize(passes: list[dict], setup: list[float], trace: bool) -> tuple[dict, dict]:
    """(metrics, detail) for the result line and the detail line."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    scaled = [scaled_latencies(p) for p in untraced]
    walls = [sum(latencies) for latencies in scaled]
    latencies_ms = [t * 1000 for latencies in scaled for t in latencies]
    detail = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "wall_s_per_pass": walls,
        "raw_wall_s_per_pass": [raw_wall(p) for p in untraced],
        "call_samples": len(latencies_ms),
        "setup_samples": len(setup),
    }
    if not trace:
        values = {
            "wall_s": statistics.median(walls),
            "call_p50_ms": statistics.median(latencies_ms),
            "call_p90_ms": statistics.quantiles(latencies_ms, n=10)[-1],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    else:
        traced_walls = [sum(scaled_latencies(p)) for p in traced]
        per_pass = [layer_values(p, wall / raw_wall(p)) for p, wall in zip(traced, traced_walls)]
        values = {name: statistics.median(v[name] for v in per_pass) for name in PER_LAYER}
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        cache = traced[-1]["q_leq_cache"]
        detail.update(
            traced_wall_s_per_pass=traced_walls,
            q_leq_cache_lookups=cache["hits"] + cache["misses"] if cache else 0,
            untraced_targets=traced[-1]["missing"],
        )
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, detail


def load_golden(workload: str, seed: int) -> list[str] | None:
    path = GOLDEN / f"{workload}.json"
    if seed != workloads.DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["digests"]


def write_trace(workload: str, seed: int, passes: list[dict]) -> Path:
    traced = [p for p in passes if p["traced"]]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "span_fields": ["id", "parent", "request", "name", "start_s", "end_s"],
        "spans": traced[-1]["spans"],
        "layers_per_pass": [p["layers"] for p in traced],
    }))
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool,
            requests: list[dict] | None = None) -> dict:
    """One benchmark run; returns the result object and prints nothing.

    ``requests`` replaces the generated list (the self-tests pass a short
    one); the golden corpus is then not consulted.
    """
    golden = load_golden(workload, seed) if requests is None else None
    if requests is None:
        requests = workloads.generate(workload, seed)
    setup = measure_setup()
    passes = run_passes(requests, seconds, trace)
    failed, problems = count_failures(passes, golden)
    metrics, detail = summarize(passes, setup, trace)
    attempted = sum(len(p["records"]) for p in passes)
    detail.update(workload=workload, seed=seed, requests_per_pass=len(requests),
                  golden_checked=golden is not None, failed_frac=failed / attempted,
                  problems=problems[:20])
    if trace:
        detail["trace_file"] = str(write_trace(workload, seed, passes).relative_to(ROOT))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def record_golden() -> None:
    """Rewrite the golden digests at the default seed from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        requests = workloads.generate(workload, workloads.DEFAULT_SEED)
        records = run_worker(requests, False, timeout=RUN_BUDGET_S)["records"]
        bad = [f"request {i}: {r[3]}" for i, r in enumerate(records) if r[3] is not None]
        if bad:
            raise SystemExit(f"{workload}: outputs fail their checks: {bad[:5]}")
        (GOLDEN / f"{workload}.json").write_text(json.dumps(
            {"seed": workloads.DEFAULT_SEED, "digests": [r[2] for r in records]}, indent=0))
        print(f"{workload}: {len(records)} digests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ncposet" / "cli.py").is_file():
        print(f"error: no ncposet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
