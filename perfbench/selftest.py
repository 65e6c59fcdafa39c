"""Self-tests for the benchmark's own machinery.

Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import unittest

import harness
import oracle
import run
from workloads import WORKLOADS, synthetic_hierarchy


def library():
    if str(run.SRC) not in run.sys.path:
        run.sys.path.insert(0, str(run.SRC))
    return run.import_library()


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        cases = {
            5: None,
            19: None,
            20: 500,
            39: 500,
            40: 750,
            99: 750,
            100: 900,
            199: 900,
            200: 950,
            999: 950,
            1000: 990,
            9999: 990,
            10000: 999,
        }
        for n, want in cases.items():
            with self.subTest(n=n):
                self.assertEqual(harness.tail_percentile(n), want)

    def test_summary_reports_value_and_support(self):
        summary = harness.summarize([float(i) for i in range(1, 41)])
        self.assertEqual(summary["tail_percentile"], 75.0)
        self.assertEqual(summary["tail"], 30.0)
        self.assertEqual(summary["tail_beyond"], 10)
        self.assertTrue(summary["tail_supported"])
        self.assertFalse(harness.summarize([1.0] * 10)["tail_supported"])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        t = harness.Tracer()
        t.spans = [
            ["study", 0.0, 10.0, None, 0],
            ["io.load_hierarchy", 1.0, 3.0, 0, 0],
            ["sensitivity.run_sweep", 4.0, 9.0, 0, 0],
            ["evaluation.evaluate", 5.0, 6.0, 2, 0],
            ["sensitivity.run_sweep", 10.0, 12.0, None, 1],
        ]
        self.assertEqual(t.self_times(), [3.0, 2.0, 4.0, 1.0, 2.0])
        per = t.per_study({"sweep": ("sensitivity.run_sweep",), "eval": ("evaluation.evaluate",)})
        self.assertEqual(per, {"sweep": [4.0, 2.0], "eval": [1.0, 0.0]})


class SyntheticHierarchy(unittest.TestCase):
    def test_k_unique_dimensions_and_two_to_the_k_subsets(self):
        lib = library()
        for k in (1, 3, 5, 8):
            with self.subTest(k=k):
                h = synthetic_hierarchy(lib, k, 4, seed=k)
                ids = h.dimension_ids()
                self.assertEqual(len(ids), k)
                self.assertEqual(len(set(ids)), k)
                self.assertEqual(len(h.criterion_ids()), 4 * k)
                subsets = lib.sp.enumerate_group_subsets(ids)
                self.assertEqual(len(subsets), 2**k)
                self.assertEqual(len(set(subsets)), 2**k)
                self.assertEqual(list(subsets), oracle.subsets(list(ids)))


class OracleCheck(unittest.TestCase):
    def test_single_perturbed_utility_is_a_failure(self):
        lib = library()
        wl = WORKLOADS["sweep-export"]
        workdir = run.WORK / "selftest"
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = wl.make_inputs(lib, seed=7, workdir=workdir)
        want = wl.build_oracle(inputs)
        out = wl.study(lib, inputs, harness.NullTracer())
        self.assertEqual(wl.check(out, inputs, want), [])

        # one utility in the written CSV, off by 1e-9
        lines = inputs["export"].read_text(encoding="utf-8").splitlines()
        fields = lines[1 + 12345].split(",")
        col = lines[0].split(",").index("utility")
        fields[col] = repr(float(fields[col]) + 1e-9)
        lines[1 + 12345] = ",".join(fields)
        inputs["export"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems = wl.check(out, inputs, want)
        self.assertEqual(len(problems), 1)
        self.assertIn("exported utilities", problems[0])

    def test_tolerances(self):
        problems: list[str] = []
        oracle.close("u", [1.0, 2.0], [1.0, 2.0 + 5e-13], oracle.UTIL_TOL, problems)
        self.assertEqual(problems, [])
        oracle.close("u", [1.0, 2.0], [1.0, 2.0 + 5e-12], oracle.UTIL_TOL, problems)
        oracle.same("r", [1, 2], [2, 1], problems)
        self.assertEqual(len(problems), 2)


class Descriptor(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        desc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in desc["workloads"]], list(WORKLOADS))
        for w in desc["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in desc["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in desc["per_layer"]],
            list(run.PER_LAYER),
        )


if __name__ == "__main__":
    unittest.main()
