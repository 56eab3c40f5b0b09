"""Self-tests of the benchmark's input generator and correctness gate.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import gate
import inputs

nilcx = inputs.import_nilcx()
WORK = Path(__file__).resolve().parent / "_work" / "selftest"


def _dims(algebra, j) -> list[int]:
    dc = nilcx.DolbeaultComplex(algebra, j)
    return [dc.cohomology(k).dimension for k in range(dc.n + 1)]


class InputTests(unittest.TestCase):
    def test_same_seed_gives_same_bytes(self):
        for workload in ("kuranishi", "validate"):
            first = inputs.build(workload, 7)
            self.assertEqual(first, inputs.build(workload, 7))
            self.assertNotEqual(first, inputs.build(workload, 8))

    def test_relabelling_keeps_cohomology_dims(self):
        rng = random.Random(0)
        for name, kwargs in (("h15", {}), ("h9", {}), ("torus", {"n": 3})):
            entry = nilcx.get(name, **kwargs)
            (_, j), = entry.structures
            want = _dims(entry.algebra, j)
            self.assertEqual(sum((-1) ** k * d for k, d in enumerate(want)), 0)
            for _ in range(3):
                perm = list(range(1, entry.algebra.dim + 1))
                rng.shuffle(perm)
                alg, pj = inputs.relabel(nilcx, entry.algebra, j, perm, name)
                self.assertEqual(_dims(alg, pj), want, f"{name} relabelled by {perm}")

    def test_relabelled_n10_keeps_h1(self):
        entry = nilcx.get("n10", s=1, t=0)
        (_, j), = entry.structures
        alg, pj = inputs.relabel(nilcx, entry.algebra, j, [3, 9, 1, 10, 6, 2, 8, 4, 7, 5], "n10")
        dc = nilcx.DolbeaultComplex(alg, pj)
        self.assertEqual(dc.cohomology(1).dimension, gate.N10_DIMS[1])

    def test_expected_dims_have_zero_euler_characteristic(self):
        self.assertEqual(sum((-1) ** k * d for k, d in enumerate(gate.N10_DIMS)), 0)
        facts = {"catalog": "torus", "dim": 8, "params": ["4"]}
        dims = [gate.expected_dim(facts, k) for k in range(5)]
        self.assertEqual(dims, [4, 16, 24, 16, 4])


class GateTests(unittest.TestCase):
    """Real CLI outputs pass the gate; corrupted copies fail it."""

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        cls.outputs = {}
        for workload in ("validate", "kuranishi"):
            texts, jobs = inputs.build(workload, gate.DEFAULT_SEED)
            inputs.write(WORK / workload, texts, jobs)
            for job in jobs:
                if job["id"] in ("validate-h15", "series-h15", "kuranishi-h9"):
                    cls.outputs[job["id"]] = (job, cls._run(job, WORK / workload))
        texts, jobs = inputs.build("kuranishi", gate.DEFAULT_SEED)
        job = {
            "id": "cohomology-h15-d1",
            "kind": "cohomology",
            "input": "h15",
            "argv": ["cohomology", "--degree", "1", "--json", "h15.alg"],
            "facts": jobs[0]["facts"],
        }
        cls.outputs[job["id"]] = (job, cls._run(job, WORK / "kuranishi"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    @staticmethod
    def _run(job, cwd) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "nilcx.cli", *job["argv"]],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": str(inputs.SRC)},
            capture_output=True,
            check=True,
        )
        return proc.stdout

    def _assert_rejected(self, job_id, corrupt):
        job, out = self.outputs[job_id]
        self.assertEqual(gate.check_stdout(job, out), [], job_id)
        res = json.loads(out)
        bad = copy.deepcopy(res)
        corrupt(bad)
        self.assertNotEqual(gate.check(job, bad), [], f"{job_id} corrupted: {bad}")

    def test_cohomology_dimension(self):
        self._assert_rejected("cohomology-h15-d1", lambda r: r.update(dim=r["dim"] + 1))

    def test_cohomology_gram_off_diagonal(self):
        self._assert_rejected("cohomology-h15-d1", lambda r: r["gram"][0].__setitem__(1, "1/2"))

    def test_cohomology_gram_diagonal(self):
        self._assert_rejected("cohomology-h15-d1", lambda r: r["gram"][0].__setitem__(0, "-1"))

    def test_validate_structure_fact(self):
        def flip(r):
            facts = r["structures"]["J"]
            facts["abelian"] = not facts["abelian"]

        self._assert_rejected("validate-h15", flip)

    def test_kuranishi_deformed_j(self):
        def corrupt(r):
            row = r["deformed_j"][0]
            row[1] = str(-int(row[1]) + 1) if row[1].lstrip("-").isdigit() else "0"

        self._assert_rejected("kuranishi-h9", corrupt)

    def test_kuranishi_obstruction_count(self):
        self._assert_rejected("kuranishi-h9", lambda r: r["obstructions"].pop())

    def test_series_frame(self):
        job, out = self.outputs["series-h15"]
        self.assertEqual(gate.check_stdout(job, out), [])
        text = out.decode()
        flipped = text.replace("(-i)", "(i)", 1)
        self.assertNotEqual(flipped, text)
        self.assertNotEqual(gate.check_stdout(job, flipped.encode()), [])

    def test_unreadable_output(self):
        job, out = self.outputs["validate-h15"]
        self.assertNotEqual(gate.check_stdout(job, out[: len(out) // 2]), [])

    def test_recorded_digest_catches_one_byte(self):
        job, out = self.outputs["validate-h15"]
        recorded = gate.recorded_digests("validate")[job["id"]]
        self.assertEqual(gate.digest(out), recorded)
        self.assertNotEqual(gate.digest(out.replace(b"true", b"True", 1)), recorded)


class ParseTests(unittest.TestCase):
    def test_gaussian_rationals(self):
        F = gate.Fraction
        cases = {
            "3": (F(3), F(0)),
            "-1/2": (F(-1, 2), F(0)),
            "i": (F(0), F(1)),
            "-i": (F(0), F(-1)),
            "2/3i": (F(0), F(2, 3)),
            "-2/3i": (F(0), F(-2, 3)),
            "1+i": (F(1), F(1)),
            "1/2-3/4i": (F(1, 2), F(-3, 4)),
            "-1-i": (F(-1), F(-1)),
        }
        for text, want in cases.items():
            self.assertEqual(gate.parse_gr(text), want, text)
            re_, im_ = want
            self.assertEqual(str(nilcx.gr(re_, im_)), text)


if __name__ == "__main__":
    unittest.main()
