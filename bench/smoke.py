"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Kept out of the repository's pytest suite (the file name does not match
``test_*.py``) because it spawns interpreters; it takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import sexakit  # noqa: E402

import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str, seed: int = 3, traced: bool = False):
    if name == "cli_cold":
        return workloads.CliCold(ROOT, seed, in_process=traced), 2
    if name == "corpus_replay":
        return workloads.CorpusReplay(ROOT, seed, 24), 24
    return workloads.ReciprocalTable(ROOT, seed, 6, 24), 24


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_passes_on_the_current_code(self):
        for name in spec.WORKLOADS:
            with self.subTest(name):
                workload, ops = tiny(name)
                try:
                    run = workloads.drive(workload, ops=ops)
                finally:
                    workload.close()
                self.assertEqual(run.attempted, ops)
                self.assertEqual(run.failed, 0)

    def test_a_wrong_oracle_value_fails_the_op(self):
        for name in spec.WORKLOADS:
            with self.subTest(name):
                workload, ops = tiny(name)
                if name == "cli_cold":
                    workload.expected_text = workload.expected_text.replace(
                        "34;41,15", "34;41,16")
                    workload.reference[0].steps[0] = ("half_B", Fraction(1))
                elif name == "corpus_replay":
                    label, value = workload.problems[0].steps[0]
                    workload.problems[0].steps[0] = (label, value + 1)
                else:
                    workload.entries[0].recip_text += ",1"
                try:
                    run = workloads.drive(workload, ops=ops)
                finally:
                    workload.close()
                self.assertGreater(run.failed / run.attempted, 0)

    def test_mutated_problems_yield_exactly_one_mismatch(self):
        workload, ops = tiny("corpus_replay")
        try:
            mutated = [p for p in workload.problems if p.mutated is not None]
            self.assertTrue(mutated)
            for p in mutated:
                self.assertEqual(
                    [row[0] for row in p.rows()].count("MISMATCH"), 1)
            self.assertEqual(workloads.drive(workload, ops=ops).failed, 0)
        finally:
            workload.close()


class Tracing(unittest.TestCase):
    def traced(self, name: str):
        workload, ops = tiny(name, traced=True)
        recorder = tracer.Recorder()
        recorder.install()
        try:
            run = workloads.drive(workload, ops=ops, wrap=recorder.root)
        finally:
            recorder.uninstall()
            workload.close()
        return run, tracer.summarize(list(recorder.spans()))

    def test_traced_ops_stay_correct_and_counts_repeat(self):
        for name in spec.WORKLOADS:
            with self.subTest(name):
                run, (calls, self_ns, op_ns) = self.traced(name)
                self.assertEqual(run.failed, 0)
                self.assertGreater(calls["sexa"], 0)
                self.assertGreater(op_ns, 0)
                self.assertEqual(self.traced(name)[1][0], calls)

    def test_uninstall_restores_every_binding(self):
        before = (sexakit.parse, sexakit.corpus.render,
                  vars(sexakit.Sexa)["__mul__"], sexakit.StepTrace.record)
        recorder = tracer.Recorder()
        recorder.install()
        self.assertIsNot(sexakit.corpus.render, before[1])
        recorder.uninstall()
        self.assertEqual(before, (sexakit.parse, sexakit.corpus.render,
                                  vars(sexakit.Sexa)["__mul__"],
                                  sexakit.StepTrace.record))


class Command(unittest.TestCase):
    def run_bench(self, cwd: Path, *args: str):
        return subprocess.run([sys.executable, "bench/run.py", *args],
                              cwd=cwd, capture_output=True, text=True,
                              timeout=180)

    def test_result_line_has_every_metric(self):
        for name, trace, metrics in (
                ("cli_cold", "0", spec.END_TO_END),
                ("corpus_replay", "0", spec.END_TO_END),
                ("reciprocal_table", "1", spec.PER_LAYER)):
            with self.subTest(name):
                done = self.run_bench(ROOT, "--workload", name, "--seed", "7",
                                      "--seconds", "0.3", "--trace", trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.splitlines()[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(m[0] for m in metrics))

    def test_fails_without_the_program(self):
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copytree(BENCH, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = self.run_bench(Path(bare), "--workload", "cli_cold",
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)

    def test_benchmark_json_matches_the_spec(self):
        written = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(written, spec.benchmark_json())


if __name__ == "__main__":
    unittest.main()
