"""Tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
import time
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class TinyCli(workloads.CliSession):
    VERTEX = ((6, 2),)
    MEMORY = (3,)
    SOFIC = (4,)
    HITS = 2


class TinyBf(workloads.BowenFranks):
    SIZES = (7, 9)


class TinyModel(workloads.OperatorModel):
    MODELS = ((5, 2, 11),)


class BenchTest(unittest.TestCase):
    def setUp(self):
        (HERE / "_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_work"))
        self.lib = run.Lib()

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def workload(self, cls, seed=1):
        w = cls(self.lib, seed, self.work / f"{cls.__name__}-{seed}")
        w.prepare()
        return w

    def test_tiny_passes_are_correct(self):
        for cls in (TinyCli, TinyBf, TinyModel):
            s = workloads.Session()
            self.workload(cls).run_pass(s)
            self.assertEqual((s.wrong, s.failures), ([], []), cls.__name__)

    def test_corrupted_expected_answer_is_caught(self):
        bf = self.workload(TinyBf)
        bf.cases[0].expected["free_rank"] += 1
        model = self.workload(TinyModel)
        model.cases[0].expected["structure"] += 1
        for w in (bf, model):
            s = workloads.Session()
            w.run_pass(s)
            self.assertTrue(s.wrong)
            self.assertTrue(all(m.startswith(w.cases[0].name) for m in s.wrong), s.wrong)

    def test_wrong_answer_makes_the_run_exit_nonzero(self):
        real = oracles.vertex_k_groups

        def corrupted(adjacency):
            expected = real(adjacency)
            return {**expected, "free_rank": expected["free_rank"] + 1}

        oracles.vertex_k_groups = corrupted
        workloads.WORKLOADS["tiny"] = TinyBf
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"])
        finally:
            oracles.vertex_k_groups = real
            del workloads.WORKLOADS["tiny"]
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().splitlines()[-1])["correct"])

    def test_cold_calls_compute_and_hits_do_not(self):
        cli = self.workload(TinyCli)
        s = workloads.Session()
        tracer = Tracer()
        tracer.install(self.lib)
        first = tracer.mark()
        s.tracer = tracer
        try:
            cli.run_pass(s)
        finally:
            tracer.uninstall()
        counts = run.cache_counts(tracer, s, 0, first)
        self.assertEqual(s.wrong, [])
        self.assertEqual(counts, {"cli.cache_hits": 6.0, "cli.cache_misses": 3.0})
        self.assertEqual(sorted(p.name for p in cli.work.iterdir()), ["corpus"])

    def test_wrappers_pass_values_through_and_uninstall(self):
        lib = self.lib
        p = lib.presentations.parse_presentation(
            {"type": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"]]})
        before = lib.invariants.k_groups(lib.partitions.build_chain(p, 6))
        originals = (lib.cli.build_chain, lib.partitions.build_chain,
                     lib.intlinalg.smith_normal_form)
        tracer = Tracer()
        tracer.install(lib)
        try:
            self.assertIsNot(lib.cli.build_chain, originals[0])
            self.assertIs(lib.cli.build_chain, lib.partitions.build_chain)
            q = lib.presentations.parse_presentation(
                {"type": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"]]})
            after = lib.invariants.k_groups(lib.partitions.build_chain(q, 6))
        finally:
            tracer.uninstall()
        self.assertEqual(before, after)
        self.assertEqual(originals, (lib.cli.build_chain, lib.partitions.build_chain,
                                     lib.intlinalg.smith_normal_form))
        names = {span[4] for span in tracer.spans}
        self.assertLessEqual({"parse", "contexts", "build_chain", "k_groups", "snf"}, names)
        metrics = tracer.pass_metrics(0)
        self.assertEqual(metrics["intlinalg.snf_calls"], 2 * (6 - 1))

    def test_deadline_miss_is_a_named_failure(self):
        s = workloads.Session(deadline_s=0.05)

        def spin():
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass

        ok, _ = s.run("case", "spinner", spin)
        self.assertFalse(ok)
        self.assertLess(s.ops[0].seconds, 1.0)
        self.assertIn("spinner", s.failures[0])

    def test_op_medians_give_one_value_per_operation_of_a_pass(self):
        def op(pass_index, case, cpu):
            return workloads.Op(0, pass_index, "case", case, cpu, cpu, True)

        ops = [op(0, "a", 1.0), op(0, "a", 2.0), op(0, "b", 5.0),
               op(1, "a", 3.0), op(1, "a", 4.0), op(1, "b", 7.0),
               op(2, "a", 9.0), op(2, "a", 9.0), op(2, "b", 9.0)]
        self.assertEqual(run.op_medians(ops, {0, 1}), [2.0, 3.0, 6.0])
        self.assertEqual(run.op_medians(ops, {0, 1, 2}), [3.0, 4.0, 7.0])

    def test_same_seed_same_inputs(self):
        a, b, c = (self.workload(TinyBf, seed) for seed in (5, 5, 6))
        self.assertEqual([x.obj for x in a.cases], [x.obj for x in b.cases])
        self.assertNotEqual([x.obj for x in a.cases], [x.obj for x in c.cases])

    def test_oracles(self):
        self.assertEqual(oracles.det_and_rank([[2, 1], [1, 1]]), (1, 2))
        self.assertEqual(oracles.det_and_rank([[1, 2], [2, 4]]), (0, 1))
        # golden mean shift: I - A = [[0, -1], [-1, 1]], det -1, so K0 = 0
        self.assertEqual(oracles.vertex_k_groups([[1, 1], [1, 0]]),
                         {"free_rank": 0, "order": 1})

    def test_benchmark_json_lists_the_metrics_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        gated = [w["name"] for w in spec["workloads"]]
        self.assertEqual(gated, ["cli-session", "bowen-franks", "operator-model"])
        self.assertLessEqual(set(gated), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
