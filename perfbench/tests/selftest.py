"""Self-tests of the benchmark harness (not of the library).

    python3 perfbench/tests/selftest.py

Run from the root of a source checkout.  The file name keeps the repo's
pytest run from collecting these: they spawn benchmark workers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ncposet import cli  # noqa: E402


def _short_mix() -> list[dict]:
    """Cheap requests of every workload, so that every layer is entered."""
    def bound(request):
        argv = request["argv"]
        flag = "--max-degree" if "--max-degree" in argv else "--max-rank"
        return int(argv[argv.index(flag) + 1])

    hasse = [r for r in workloads.generate("hasse_mix", 1) if bound(r) <= 8]
    certify = [r for r in workloads.generate("certify_mix", 1) if bound(r) <= 5]
    orders = [r for r in certify if r["argv"][0] == "check-order"]
    reports = [r for r in certify if r["argv"][0] == "coconnection"]
    return hasse[:12] + orders[:6] + reports[:6] + workloads.generate("query_mix", 1)[:100]


class Corrupting:
    """Replaces ``cli.run`` for one pass, damaging request ``target``'s result."""

    def __init__(self, target: int, mode: str) -> None:
        self.target, self.mode, self.calls = target, mode, 0

    def __call__(self, argv):
        index, self.calls = self.calls, self.calls + 1
        if index != self.target:
            return ORIGINAL_RUN(argv)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = ORIGINAL_RUN(argv)
        text = buffer.getvalue()
        if self.mode == "byte":
            middle = len(text) // 2
            text = text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1:]
        else:
            code += 1
        sys.stdout.write(text)
        return code


ORIGINAL_RUN = cli.run


class SeededRequests(unittest.TestCase):
    def test_same_seed_same_list(self):
        for name in workloads.WORKLOADS:
            first = workloads.generate(name, 7)
            self.assertEqual(first, workloads.generate(name, 7))
            self.assertNotEqual(first, workloads.generate(name, 8))
            self.assertGreaterEqual(len(first), 100)
            json.dumps(first)  # plain data: the worker receives it as JSON


class FailedRequestsCount(unittest.TestCase):
    """A damaged output counts as a failed request and raises failed_frac."""

    def _failed_frac(self, target: int, mode: str) -> float:
        requests = workloads.generate("query_mix", workloads.DEFAULT_SEED)[:60]
        golden = json.loads((run.GOLDEN / "query_mix.json").read_text())["digests"]
        cli.run = Corrupting(target, mode)
        try:
            damaged = worker.run_pass(requests, trace=False)
        finally:
            cli.run = ORIGINAL_RUN
        damaged["traced"] = False
        failed, _ = run.count_failures([damaged], golden)
        return failed / len(requests)

    def test_corrupted_stdout_byte(self):
        requests = workloads.generate("query_mix", workloads.DEFAULT_SEED)
        targets = [i for i in range(60) if requests[i]["expect"]["kind"] != "error"]
        for target in targets[::6]:  # error-path requests print nothing to damage
            self.assertGreater(self._failed_frac(target, "byte"), 0, requests[target]["argv"])

    def test_wrong_exit_code(self):
        for target in (0, 13, 29):
            self.assertGreater(self._failed_frac(target, "code"), 0)

    def test_invariants_catch_a_damaged_hasse_level(self):
        for request in workloads.generate("hasse_mix", workloads.DEFAULT_SEED)[:10]:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.run(request["argv"])
            text = buffer.getvalue()
            self.assertIsNone(checks.check_output(request["expect"], code, text))
            damaged = text.replace('"rank": 1,', '"rank": 2,', 1).replace(
                'label="x1"]', 'label="x2"]', 1)
            self.assertIsNotNone(checks.check_output(request["expect"], code, damaged))

    def test_traced_digests_match_untraced(self):
        # every pass is compared with the first, untraced one
        result = run.measure("query_mix", 1, seconds=0, trace=True, requests=_short_mix())
        self.assertEqual(result["detail"]["traced_passes"], 1)
        self.assertEqual(result["failed"], 0, result["detail"]["problems"])


class MetricsReported(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def _check(self, trace: bool, section: str):
        result = run.measure("query_mix", 1, seconds=0, trace=trace, requests=_short_mix())
        self.assertTrue(result["correct"], result["detail"]["problems"])
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertEqual(result["detail"]["failed_frac"], 0.0)
        return result

    def test_end_to_end_metrics(self):
        result = self._check(False, "end_to_end")
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics(self):
        result = self._check(True, "per_layer")
        self.assertEqual(result["detail"]["untraced_targets"], [])
        entered = [name for name, m in result["metrics"].items() if m["value"] == 0]
        self.assertEqual(entered, [], "layers the short mix never entered")


if __name__ == "__main__":
    unittest.main()
