"""Self-test of the benchmark itself: python3 bench/selftest.py

Checks that the correctness gate counts bad outputs as failed ops, that the
traced run's work counters repeat exactly, and that BENCHMARK.json lists
exactly the metrics run.py reports.
"""

import dataclasses
import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from patprob.patterns import BifixIndicator, Word  # noqa: E402
from patprob.recursions import P_table  # noqa: E402

BIFIX_ARGV = ("bifix", "--word", "10001", "--L", "2")


def failed_frac(ops) -> float:
    timings = run.Timings(run.PYTHON_WORK)
    run.run_pass(ops, timings)
    return timings.failed / timings.attempted


class CorrectnessGate(unittest.TestCase):
    def test_altered_route_table_is_a_failed_op(self):
        good = workloads.check_all_op(Word.parse("10010", 2), 30)
        tables, _agree, text = good.run()
        # a valid table, but of another class (h=0000 instead of 0100)
        other = P_table(BifixIndicator.parse("0000"), 2, 30)
        altered = dict(tables, markov=dataclasses.replace(other, method="markov"))
        corrupt = workloads.Op(good.kind, lambda: (altered, True, text), good.check)
        self.assertEqual(failed_frac([good, corrupt]), 0.5)

    def test_wrong_golden_digest_is_a_failed_op(self):
        launcher = workloads.CliLauncher(run.ROOT)
        golden = workloads.load_golden()["cli"][" ".join(BIFIX_ARGV)]
        wrong = dict(golden, sha256="0" * 64)
        ops = [workloads.cli_op(launcher, BIFIX_ARGV, golden), workloads.cli_op(launcher, BIFIX_ARGV, wrong)]
        self.assertEqual(failed_frac(ops), 0.5)

    def test_biased_monte_carlo_estimate_is_a_failed_op(self):
        good = workloads.build_mc_stream(seed=0)[0]
        result = good.run()
        shifted = tuple(min(1.0, p + 0.05) if p else p for p in result.p_hat)
        biased = dataclasses.replace(result, p_hat=shifted)
        corrupt = workloads.Op(good.kind, lambda: biased, good.check)
        self.assertEqual(failed_frac([good, corrupt]), 0.5)

    def test_op_that_raises_is_a_failed_op(self):
        boom = workloads.Op("boom", lambda: 1 // 0, lambda result: True)
        self.assertEqual(failed_frac([boom]), 1.0)


class TracedRun(unittest.TestCase):
    def test_work_counters_repeat_exactly(self):
        launcher = workloads.CliLauncher(run.ROOT)
        golden = workloads.load_golden()["cli"]
        ops = (
            workloads.build_deep_tables(seed=3)[-2:]  # the two series slots
            + [workloads.check_all_op(Word.parse("1001", 2), 40)]
            + workloads.build_class_sweep(seed=3)[:12]
            + workloads.build_mc_stream(seed=3)[:1]
            + [
                workloads.cli_op(launcher, argv, golden[" ".join(argv)])
                for argv in (BIFIX_ARGV, ("census", "--n", "5", "--L", "2"))
            ]
        )
        units = dict(run.per_layer_catalogue())
        counted = [name for name, unit in units.items() if unit in ("count", "bits", "bytes")]
        runs = []
        for _ in range(2):
            timings = run.timed_passes(ops, run.PYTHON_WORK, seconds=0, min_passes=1)
            metrics, _spans = run.per_layer(workloads, launcher, ops, timings)
            self.assertEqual(timings.failed, 0)
            self.assertEqual(set(metrics), set(units))
            runs.append({name: metrics[name] for name in counted})
        self.assertEqual(runs[0], runs[1])
        for name in ("recursions.expected_wait_series.terms", "oracle.monte_carlo.symbols",
                     "patterns.census.words", "markov.reach_rows", "numerics.max_num_bits",
                     "cli.stdout_bytes", "cli.main.calls"):
            self.assertGreater(runs[0][name], 0, name)


class BenchmarkFile(unittest.TestCase):
    def test_lists_exactly_the_reported_metrics(self):
        with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_catalogue())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
