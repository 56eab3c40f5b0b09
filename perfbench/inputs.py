"""Seeded inputs and job lists for the nilcx benchmark.

A workload is a fixed list of CLI jobs over a few catalog algebras. The
seed only chooses labels and points: every input is a catalog entry with
its basis relabelled by a seeded permutation (carried through the
brackets and J), n10's parameters (s, t) on the ``validate`` workload are
drawn from small rationals, and ``kuranishi --at`` points are drawn small
enough to stay inside the region where the deformed eigenspaces split.
Relabelling changes no invariant the gate checks (cohomology dimensions,
step, classifications, obstruction counts), so one expectation table
serves every seed.

Run as a script, it writes one workload's ``.alg`` files and a
``jobs.json`` manifest into a directory; the benchmark times that script
as its set-up step::

    python3 perfbench/inputs.py --workload cohomology --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("validate", "cohomology", "kuranishi")

# n10's parameters on ``validate``: (s, t) != (1, 0) keeps J non-abelian.
_N10_S = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3, 2))
_N10_T = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3), Fraction(-1, 2))
# Coordinates of ``--at`` points, in the degree-one harmonic basis.
_AT_COORDS = (
    Fraction(0),
    Fraction(1, 7),
    Fraction(-1, 7),
    Fraction(1, 9),
    Fraction(-1, 9),
    Fraction(1, 11),
)


def import_nilcx():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "nilcx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nilcx sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nilcx

    return nilcx


def relabel(nilcx, algebra, j, perm: list[int], name: str):
    """The algebra and J on the basis f_perm[i] = e_i (1-based indices)."""
    brackets: dict = {}
    for (a, b), targets in algebra.bracket_table().items():
        pa, pb = perm[a - 1], perm[b - 1]
        sign = 1 if pa < pb else -1
        key = (min(pa, pb), max(pa, pb))
        brackets[key] = {perm[k - 1]: sign * c for k, c in targets.items()}
    m = algebra.dim
    rows = [[0] * m for _ in range(m)]
    for r in range(m):
        for c in range(m):
            rows[perm[r] - 1][perm[c] - 1] = j.matrix[r, c]
    new_alg = nilcx.LieAlgebra(m, brackets, name=name)
    new_j = nilcx.AlmostComplexStructure(nilcx.linalg.Matrix(rows))
    return new_alg, new_j


def _permutation(rng: random.Random, m: int) -> list[int]:
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return perm


def _inputs(workload: str, rng: random.Random) -> list[tuple]:
    """(file stem, catalog name, catalog kwargs) for a workload, in order."""
    if workload == "validate":
        s = rng.choice(_N10_S)
        t = rng.choice([t for t in _N10_T if t * t != s * s])
        return [
            ("n10", "n10", {"s": s, "t": t}),
            ("h9", "h9", {}),
            ("h15", "h15", {}),
            ("torus3", "torus", {"n": 3}),
            ("torus4", "torus", {"n": 4}),
        ]
    if workload == "cohomology":
        return [("n10", "n10", {"s": 1, "t": 0}), ("torus4", "torus", {"n": 4})]
    if workload == "kuranishi":
        return [("h15", "h15", {}), ("h9", "h9", {}), ("torus3", "torus", {"n": 3})]
    raise SystemExit(f"perfbench: unknown workload {workload!r}")


def _point(rng: random.Random, params: int) -> str:
    return ",".join(str(rng.choice(_AT_COORDS)) for _ in range(params))


def _jobs(workload: str, facts: dict, rng: random.Random) -> list[dict]:
    """The fixed job list; only ``--at`` points depend on the seed."""

    def job(kind, stem, *flags, tag=""):
        return {
            "id": f"{kind}-{stem}{tag}",
            "kind": kind,
            "input": stem,
            "argv": [kind, *flags, f"{stem}.alg"],
        }

    if workload == "validate":
        jobs = [job("validate", stem, "--json") for stem in facts]
        jobs += [job("series", stem) for stem in ("h9", "h15", "torus3", "torus4")]
        return jobs
    if workload == "cohomology":
        jobs = [job("cohomology", "n10", "--degree", "1", "--json", tag="-d1")]
        jobs += [
            job("cohomology", "torus4", "--degree", str(k), "--json", tag=f"-d{k}")
            for k in range(5)
        ]
        jobs.append(job("abelian-locus", "torus4", "--json"))
        return jobs
    orders = {"h15": 6, "h9": 6, "torus3": 3}
    return [
        job(
            "kuranishi",
            stem,
            "--order",
            str(orders[stem]),
            # one token: argparse would read a leading "-" as an option
            f"--at={_point(rng, facts[stem]['h1_dim'])}",
            "--json",
        )
        for stem in orders
    ]


def build(workload: str, seed: int, nilcx=None, span=None) -> tuple[dict, list[dict]]:
    """Input texts by file stem, and the job list with facts attached.

    ``span(name)`` is an optional context-manager factory the traced run
    passes in to time ``catalog.get`` and ``algfile.render``.
    """
    nilcx = nilcx or import_nilcx()
    span = span or (lambda name: nullcontext())
    rng = random.Random(f"nilcx-bench:{workload}:{seed}")
    texts: dict = {}
    facts: dict = {}
    for stem, name, kwargs in _inputs(workload, rng):
        with span("catalog.get"):
            entry = nilcx.get(name, **kwargs)
        (sname, j), = entry.structures
        perm = _permutation(rng, entry.algebra.dim)
        algebra, j = relabel(nilcx, entry.algebra, j, perm, entry.algebra.name)
        with span("algfile.render"):
            texts[stem] = nilcx.render(algebra.name, algebra, [(sname, j)])
        facts[stem] = {
            "algebra": algebra.name,
            "catalog": name,
            "params": [str(p) for p in entry.params] if entry.params else None,
            **entry.facts,
            "structures": entry.structure_facts,
            "j": [[str(j.matrix[r, c]) for c in range(algebra.dim)] for r in range(algebra.dim)],
        }
    jobs = _jobs(workload, facts, rng)
    for jb in jobs:
        jb["facts"] = facts[jb["input"]]
    return texts, jobs


def write(out: Path, texts: dict, jobs: list[dict]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for stem, text in texts.items():
        (out / f"{stem}.alg").write_text(text, encoding="utf-8")
    (out / "jobs.json").write_text(
        json.dumps(jobs, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    texts, jobs = build(args.workload, args.seed)
    write(args.out, texts, jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
