"""Tests of run.py's accounting and output parsing.

Run from the repository root:
    python3 -m unittest discover -s e2ebench/tests -p "test_*.py"
They need no build: processes are plain Python one-liners.
"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

RAXML_STDOUT = """\
alignment: 4 taxa x 30 sites -> 12 patterns
  task 1/3 (inference, seed 1): lnL -120.5000
  task 2/3 (inference, seed 2): lnL -119.2500
  task 3/3 (bootstrap, seed 1000): lnL -118.0000
best-known ML tree: task 1, lnL -119.2500 (wall 0.1s)
bootstrap replicates: 1; majority-rule splits: 1
best tree: (a:0.1,(b:0.2,c:0.3):0.05,d:1e-08);
"""

CELL_STDOUT = """\
alignment: 4 taxa x 30 sites -> 12 patterns
  task 1/2 (inference, seed 1): lnL -120.50000000000001
  task 2/2 (bootstrap, seed 1000): lnL -118
best-known ML tree: task 0, lnL -120.50000000000001
best tree: (a:0.1,(b:0.2,c:0.3):0.05,d:1e-08);
cell.virtual_s 0.5
cell.cycles.newview 1234
core.signaled_offloads 77
host.run_s 0.25
obs.search.rounds 4
"""

def parsed(stdout, kind, tasks):
    a = run.Analysis(tasks)
    a.stdout = stdout
    run.parse_output(a, kind)
    return a


class OutputParsing(unittest.TestCase):
    def test_raxml_task_lines(self):
        a = parsed(RAXML_STDOUT, "raxml", 3)
        self.assertEqual(a.task_lnl, ["-120.5000", "-119.2500", "-118.0000"])
        self.assertEqual(a.best_lnl, -119.25)
        self.assertTrue(a.best_tree.startswith("(a:0.1"))
        self.assertEqual(a.problems, [])
        self.assertEqual(a.failed_tasks(), 0)
        self.assertEqual(a.values, {})
        self.assertEqual(a.patterns, 12)

    def test_pattern_count_must_match_set_up(self):
        a = parsed(RAXML_STDOUT, "raxml", 3)
        taxa = ("a", "b", "c", "d")
        self.assertIsNone(run.input_problem(a, run.Input(1, "", taxa, 12)))
        self.assertIsNone(run.input_problem(a, run.Input(1, "", taxa, 0)))
        self.assertIn("patterns",
                      run.input_problem(a, run.Input(1, "", taxa, 13)))

    def test_cell_lines_and_counters(self):
        a = parsed(CELL_STDOUT, "cell", 2)
        self.assertEqual(a.task_lnl, ["-120.50000000000001", "-118"])
        self.assertEqual(a.values["cell.virtual_s"], "0.5")
        self.assertEqual(a.values["obs.search.rounds"], "4")
        self.assertEqual(a.failed_tasks(), 0)

    def test_cell_fingerprint_ignores_host_time(self):
        a = parsed(CELL_STDOUT, "cell", 2)
        b = parsed(CELL_STDOUT.replace("host.run_s 0.25", "host.run_s 0.3"),
                   "cell", 2)
        c = parsed(CELL_STDOUT.replace("core.signaled_offloads 77",
                                       "core.signaled_offloads 78"), "cell", 2)
        self.assertEqual(a.fingerprint(), b.fingerprint())
        self.assertNotEqual(a.fingerprint(), c.fingerprint())

    def test_missing_task_line_fails_every_task(self):
        stdout = RAXML_STDOUT.replace(
            "  task 2/3 (inference, seed 2): lnL -119.2500\n", "")
        a = parsed(stdout, "raxml", 3)
        self.assertTrue(a.problems)
        self.assertEqual(a.failed_tasks(), 3)


class FailureAccounting(unittest.TestCase):
    def run_fake(self, code, stdout, tasks=3):
        """run_analysis on a Python one-liner standing in for the CLI."""
        script = (f"import sys; sys.stdout.write({stdout!r}); "
                  f"sys.exit({code})")
        with tempfile.TemporaryDirectory() as d:
            saved = run.run_process

            def without_wrapper(cmd, log_stem, usage=False, **kw):
                return saved(cmd, log_stem, **kw)

            run.run_process = without_wrapper
            try:
                return run.run_analysis([sys.executable, "-c", script],
                                        "raxml", tasks, Path(d) / "a")
            finally:
                run.run_process = saved

    def test_crash_counts_every_task_as_failed(self):
        a = self.run_fake(3, RAXML_STDOUT)
        self.assertEqual(a.exit_code, 3)
        self.assertEqual(a.failed_tasks(), 3)
        ok = self.run_fake(0, RAXML_STDOUT)
        self.assertEqual(run.tally([ok, a]), (6, 3))

    def test_signal_death_counts_as_failed(self):
        a = self.run_fake("__import__('os').kill(__import__('os').getpid(),"
                          " 9)", "")
        self.assertNotEqual(a.exit_code, 0)
        self.assertEqual(run.tally([a]), (3, 3))

    def test_non_finite_lnl_is_a_failed_task_not_a_dropped_one(self):
        for bad in ("nan", "-inf", "inf"):
            stdout = RAXML_STDOUT.replace("lnL -118.0000", f"lnL {bad}")
            a = self.run_fake(0, stdout)
            self.assertEqual(len(a.task_lnl), 3, bad)
            self.assertEqual(a.failed_tasks(), 1, bad)
            self.assertEqual(run.tally([a]), (3, 1), bad)

    def test_non_finite_best_lnl_fails_the_analysis(self):
        stdout = RAXML_STDOUT.replace("task 1, lnL -119.2500",
                                      "task 1, lnL nan")
        a = self.run_fake(0, stdout)
        self.assertEqual(a.failed_tasks(), 3)

    def test_timeout_kills_and_fails(self):
        with tempfile.TemporaryDirectory() as d:
            code, wall, _, _, _, _ = run.run_process(
                [sys.executable, "-c", "import time; time.sleep(30)"],
                Path(d) / "slow", timeout=0.5)
        self.assertNotEqual(code, 0)
        self.assertLess(wall, 10)

    def test_repeat_mismatch_is_a_check_failure(self):
        a = parsed(RAXML_STDOUT, "raxml", 3)
        b = parsed(RAXML_STDOUT.replace("lnL -118.0000", "lnL -118.0001"),
                   "raxml", 3)
        problems = []
        run.check_repeats([a, b], [object()], problems)
        self.assertEqual(len(problems), 1)
        self.assertEqual(b.failed_tasks(), 3)


class Statistics(unittest.TestCase):
    def test_trimmed_mean_drops_one_disturbed_analysis(self):
        self.assertEqual(run.trimmed_mean([1.0, 2.0, 3.0, 40.0]), 2.5)
        self.assertEqual(run.trimmed_mean([1.0, 2.0, 6.0]), 3.0)
        self.assertEqual(run.trimmed_mean([5.0]), 5.0)

    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        values = [100.0, 90.0] + [float(i) for i in range(16)] + [-50.0, -60.0]
        self.assertEqual(run.trimmed_mean(values), 7.5)


class Newick(unittest.TestCase):
    def test_leaves(self):
        self.assertEqual(run.newick_leaves("((a:1,b:2)90:0.5,c:1e-08,d);"),
                         ["a", "b", "c", "d"])

    def test_tree_problems(self):
        taxa = ["a", "b", "c", "d"]
        self.assertIsNone(run.tree_problem("(a,(b,c),d);", taxa))
        self.assertIn("leaves", run.tree_problem("(a,(b,c),e);", taxa))
        self.assertIn("leaves", run.tree_problem("(a,(b,c));", taxa))
        self.assertIn("parse", run.tree_problem("(a,(b,c),d;", taxa))
        self.assertIn("parse", run.tree_problem("(a:x,(b,c),d);", taxa))
        self.assertIn("parse", run.tree_problem("(a,(b,c),d)", taxa))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_every_workload(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_result_line_rejects_a_metric_benchmark_json_lacks(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"wall_sec": 1.0}, run.END_TO_END)

    def test_result_line_has_every_metric_and_finite_values(self):
        line = json.loads(run.result_line(True, 2, 0, {"wall_s": math.nan},
                                          run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(set(line["metrics"]),
                         {name for name, _ in run.END_TO_END})
        self.assertTrue(all(math.isfinite(v["value"])
                            for v in line["metrics"].values()))

    def test_workload_arguments_come_from_its_task_counts(self):
        w = run.WORKLOADS["dna42_analysis"]
        self.assertEqual(w.tasks, w.inferences + w.bootstraps)
        args = w.args()
        self.assertEqual(args[args.index("--inferences") + 1],
                         str(w.inferences))
        self.assertEqual(args[args.index("--bootstraps") + 1],
                         str(w.bootstraps))
        self.assertIn("gamma", run.WORKLOADS["dna_wide_gamma"].args())
        for w in run.WORKLOADS.values():
            self.assertGreater(w.min_analyses, w.inputs)

    def test_input_seeds_are_distinct_and_positive(self):
        seeds = {run.input_seed(w, s, k) for w in run.WORKLOADS
                 for s in range(20) for k in range(8)}
        self.assertEqual(len(seeds), len(run.WORKLOADS) * 20 * 8)
        self.assertTrue(all(0 < s < 2**31 for s in seeds))


if __name__ == "__main__":
    unittest.main()
