"""In-process replicas of the benchmark's CLI jobs, timed layer by layer.

Each replica makes the calls its CLI command makes, in the same order, but
opens a span around every call into a layer's public function, so the
traced run can say which layer the time went to. Calls that a command
makes implicitly are made first in their own span, which leaves the work
unchanged because the Dolbeault complex caches each per-degree result:
the differentials, the Laplacian and the harmonic space of every degree a
command touches are built in ``dolbeault.*`` spans before the command's
own call. Hidden calls that cannot be split off from outside stay in the
caller's span: ``algfile.parse`` includes the parser's ``validate_lie``,
and ``dolbeault.init`` includes ``is_abelian`` and ``adapted_frame``.

The probes time single operations on the complexes the jobs built: the
Laplacian's products and eliminations, and single Green and adjoint
calls on seeded forms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

from gate import flag


class Counts:
    """Work counts of one traced pass; they repeat exactly for one seed."""

    def __init__(self):
        self.chain_dim_max = 0
        self.dbar_nnz = 0
        self.harmonic_dim_sum = 0
        self.coeffs = 0
        self.obstruction_terms = 0


def _nnz(m) -> int:
    return sum(1 for row in m.rows for x in row if x)


def _build_degrees(tr, dc, degrees, counts: Counts) -> dict:
    """dbar, Laplacian and harmonic space of each degree, one span each."""
    for d in sorted({d for k in degrees for d in (k - 1, k) if 0 <= d < dc.n}):
        with tr.span("dolbeault.dbar"):
            m = dc.dbar_matrix(d)
        counts.dbar_nnz += _nnz(m)
    spaces = {}
    for k in degrees:
        with tr.span("dolbeault.laplacian"):
            dc.laplacian_matrix(k)
        with tr.span("dolbeault.harmonic"):
            spaces[k] = dc.cohomology(k)
        counts.chain_dim_max = max(counts.chain_dim_max, dc.chain_dim(k))
        counts.harmonic_dim_sum += spaces[k].dimension
    return spaces


def run_job(nilcx, tr, job: dict, inputs: Path, counts: Counts):
    """Run one job in-process; returns (result dict for the gate, complex)."""
    kind, argv = job["kind"], job["argv"]
    with tr.span("algfile.parse"):
        af = nilcx.parse(inputs / f"{job['input']}.alg")
    a = af.algebra
    sname, j = af.structures[0]
    head = {"algebra": af.name, "dim": a.dim}
    if kind == "validate":
        with tr.span("lie.validate"):
            report = nilcx.validate_lie(a)
        with tr.span("cxs.integrable"):
            integrable = bool(nilcx.is_integrable(a, j))
        with tr.span("cxs.abelian"):
            abelian = nilcx.is_abelian(a, j)
        with tr.span("cxs.j_series"):
            _, nilpotent = nilcx.j_ascending_series(a, j)
        facts = {"integrable": integrable, "abelian": abelian, "nilpotent": nilpotent}
        return {**head, "step": report.step, "structures": {sname: facts}}, None
    if kind == "series":
        with tr.span("lie.ascending_series"):
            ascending = nilcx.ascending_series(a)
        with tr.span("cxs.frame"):
            frame = nilcx.adapted_frame(a, j)
        frame_rows = [[str(x) for x in v] for v in frame.vectors]
        return {**head, "dims": list(ascending.dims), "frame": frame_rows}, None

    with tr.span("dolbeault.init"):
        dc = nilcx.DolbeaultComplex(a, j)
    spaces = _build_degrees(tr, dc, job_degrees(job), counts)
    if kind == "cohomology":
        k = int(flag(argv, "--degree"))
        space = spaces[k]
        gram = [[str(space.gram[r, c]) for c in range(space.dimension)] for r in range(space.dimension)]
        return {**head, "degree": k, "dim": space.dimension, "basis": list(space.harmonic_basis), "gram": gram}, dc
    if kind == "abelian-locus":
        with tr.span("kuranishi.locus"):
            rows = nilcx.infinitesimal_abelian_locus(dc)
        return {**head, "dim": len(rows), "basis": rows}, dc

    order = int(flag(argv, "--order"))
    with tr.span("kuranishi.series"):
        series = nilcx.kuranishi_series(dc, order=order)
    with tr.span("kuranishi.obstructions"):
        obs = nilcx.obstructions(series)
    point = tuple(Fraction(x) for x in flag(argv, "--at").split(","))
    with tr.span("kuranishi.deform"):
        deformed = nilcx.deform_structure(dc, series, point)
    with tr.span("kuranishi.classify"):
        rep = nilcx.classify_deformation(a, deformed)
    counts.coeffs += len(series.coeffs)
    counts.obstruction_terms += sum(len(p.coeffs) for p in obs.polys)
    jm = deformed.j_new.matrix
    return {
        **head,
        "coordinates": [m for m in series.coeffs if sum(m) == 1],
        "coefficients": [m for m in series.coeffs if sum(m) >= 2],
        "obstructions": [str(p) for p in obs.polys],
        "point": [str(t) for t in point],
        "deformed_j": [[str(jm[r, c]) for c in range(jm.ncols)] for r in range(jm.nrows)],
        "classification": {
            "integrable": rep.integrable,
            "abelian": rep.abelian,
            "nilpotent": rep.nilpotent,
        },
    }, dc


def job_degrees(job: dict) -> list[int]:
    """Degrees whose operators a job builds and the probes time."""
    if job["kind"] == "cohomology":
        return [int(flag(job["argv"], "--degree"))]
    if job["kind"] == "abelian-locus":
        return [1]
    if job["kind"] == "kuranishi":
        return [1, 2]
    return []


class ProbeStats:
    def __init__(self):
        self.dense_mults = 0
        self.useful_mults = 0
        self.green_s: list[float] = []
        self.adjoint_s: list[float] = []


def _useful_pairs(a, b) -> int:
    """Products of two nonzero entries in A*B: sum_t nnz(col t of A) nnz(row t of B)."""
    return sum(
        sum(1 for row in a.rows if row[t]) * sum(1 for x in b.rows[t] if x)
        for t in range(a.ncols)
    )


def probe(nilcx, tr, dc, degrees, rng: random.Random, stats: ProbeStats) -> None:
    """Time the Laplacian's products and eliminations, and Green/adjoint calls."""
    for k in degrees:
        factors = []
        if k >= 1:
            d = dc.dbar_matrix(k - 1)
            factors.append((d, d.conj_transpose()))
        if k < dc.n:
            d = dc.dbar_matrix(k)
            factors.append((d.conj_transpose(), d))
        for left, right in factors:
            stats.dense_mults += left.nrows * left.ncols * right.ncols
            stats.useful_mults += _useful_pairs(left, right)
            with tr.span("linalg.matmul"):
                left * right
        with tr.span("linalg.rref"):
            nilcx.linalg.rref(dc.laplacian_matrix(k))
        if k < dc.n:
            with tr.span("linalg.rref"):
                nilcx.linalg.rref(dc.dbar_matrix(k))
        keys = dc.chain_basis(k)
        for _ in range(2):
            coeffs = {key: rng.choice((-2, -1, 1, 2)) for key in rng.sample(keys, min(3, len(keys)))}
            mu = dc.form(k, coeffs)
            t0 = perf_counter()
            with tr.span("dolbeault.green"):
                dc.green(mu)
            stats.green_s.append(perf_counter() - t0)
            if k >= 1:
                t0 = perf_counter()
                with tr.span("dolbeault.adjoint"):
                    dc.dbar_adjoint(mu)
                stats.adjoint_s.append(perf_counter() - t0)


def per_call_ms(samples: list[float]) -> float:
    return 1000 * median(samples) if samples else 0.0
