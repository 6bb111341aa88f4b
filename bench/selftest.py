"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

- a tiny run of every workload prints every metric of BENCHMARK.json with its unit;
- an item whose expected value is corrupted counts as failed, by name;
- stdout is byte-identical with and without the tracer installed;
- normalised times cancel a uniformly slower machine, not a slower toolkit;
- the reference arithmetic the checks rely on is sound.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def items_in(workload, count: int, work: Path):
    return run.write_inputs(workload.generate(SEED, count), work)


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        import foliations.cli
        self.cli = foliations.cli
        self.work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)


class TinyRunTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", name,
                         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    if trace == 0:
                        for metric in expected:
                            self.assertIn(metric, done.stdout.split("\n", 2)[2])
                        self.assertIn("failed_frac", done.stdout)

    def test_refuses_to_run_without_sources(self):
        scratch = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, scratch / "bench")
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "jets", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class FailureAccountingTest(BenchTestCase):
    def corrupted(self, name: str):
        workload = WORKLOADS[name]
        items = items_in(workload, 25, self.work)
        if name == "jets":
            item = items[1]                     # a saddle_node_family member
            item.expect["dims"] = [9] * item.expect["n"]
        elif name == "resolve":
            item = next(i for i in items if i.kind == "probe")
            item.expect["max_steps"] += 1       # claims budget was left
        else:
            item = items[0]                     # a saddle holonomy
            item.expect["ratio"] = -item.expect["ratio"]
        return workload, item

    def test_corrupted_expectation_fails_by_name(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload, item = self.corrupted(name)
                latencies, _kernel_s, failures = run.measure(workload, self.cli, [item], 1e-9)
                self.assertEqual(len(latencies), 1)
                self.assertEqual([f[0] for f in failures], [item.name])

    def test_raising_item_fails(self):
        workload = WORKLOADS["dynamics"]
        item = items_in(workload, 1, self.work)[0]
        item.argv = ["dynamics", "holonomy", str(self.work / "missing.field")]
        latencies, _kernel_s, failures = run.measure(workload, self.cli, [item], 1e-9)
        self.assertEqual(len(failures), 1)


class TracedOutputTest(BenchTestCase):
    def test_traced_stdout_is_identical(self):
        for name, count in (("jets", 8), ("resolve", 20), ("dynamics", 10)):
            workload = WORKLOADS[name]
            items = [i for i in items_in(workload, count, self.work)
                     if i.kind not in ("probe", "catalog")]
            plain = [run.run_item(self.cli, i)[1:] for i in items]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [run.run_item(self.cli, i)[1:] for i in items]
            finally:
                tracer.uninstall()
            with self.subTest(workload=name):
                self.assertEqual(plain, traced)
                self.assertEqual(tracer.spans["cli.main"][0], len(items))

    def test_uninstall_restores_the_toolkit(self):
        import foliations.algebra as algebra
        before = (algebra.Poly.__mul__, algebra.GaussianRational.__add__, self.cli.main)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(algebra.Poly.__mul__, before[0])
        tracer.uninstall()
        self.assertEqual((algebra.Poly.__mul__, algebra.GaussianRational.__add__,
                          self.cli.main), before)


class SpeedTest(unittest.TestCase):
    def test_a_slower_machine_cancels_out(self):
        raw = [0.010, 0.020, 0.030, 0.040, 0.050]
        kernel_s = [0.001, 0.0012, 0.001, 0.0011, 0.001]
        halved = speed.normalise([2 * s for s in raw], [2 * k for k in kernel_s])
        for a, b in zip(speed.normalise(raw, kernel_s), halved):
            self.assertAlmostEqual(a, b)

    def test_a_slower_toolkit_shows(self):
        kernel_s = [0.001] * 5
        self.assertAlmostEqual(speed.normalise([0.003] * 5, kernel_s)[2], 0.003)
        self.assertAlmostEqual(speed.normalise([0.006] * 5, kernel_s)[2], 0.006)


class ReferenceTest(unittest.TestCase):
    def test_prime_and_square_root_of_minus_one(self):
        p = ref.PRIME
        self.assertEqual(p % 4, 1)
        self.assertEqual(ref.SQRT_MINUS_ONE ** 2 % p, p - 1)
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):   # deterministic below 3.3e24
            d, s = p - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            x = pow(a, d, p)
            self.assertTrue(x in (1, p - 1) or any(
                pow(x, 2 ** r, p) == p - 1 for r in range(1, s)))

    def test_parse_round_trip(self):
        for text in ("3", "-1/2", "i", "-i", "2i", "-3/4i", "1+2i", "1/2-3/4i"):
            value = ref.parse_gauss(text)
            self.assertEqual(ref.parse_gauss(ref.input_text(value)[1:-1]), value)
        poly = ref.parse_poly("-x^2*y + (1+2i)*x - 3/4i*y^3 - 2", ("x", "y"))
        self.assertEqual(poly, {(2, 1): ref.gauss(-1), (1, 0): ref.gauss(1, 2),
                                (0, 3): ref.gauss(0, "-3/4"), (0, 0): ref.gauss(-2)})

    def test_jet_dims_of_a_known_field(self):
        # x d/dx - y d/dy: the first integrals are the powers of xy
        comps = [{(1, 0): ref.gauss(1)}, {(0, 1): ref.gauss(-1)}]
        self.assertEqual(ref.jet_dims(comps, 2, 4), [0, 1, 1, 2])

    def test_camacho_sad_index_of_a_saddle_node(self):
        # X = x(y + 1) d/dx + 2y^2 d/dy: residue of (y+1)/(2y^2) at 0 is 1/2
        comps = [{(1, 1): ref.gauss(1), (1, 0): ref.gauss(1)}, {(0, 2): ref.gauss(2)}]
        self.assertEqual(ref.camacho_sad_index(comps, 0, [ref.ZERO, ref.ZERO]),
                         ref.gauss("1/2"))


if __name__ == "__main__":
    unittest.main()
