"""nilcx benchmark: seeded CLI workloads, an output gate and a layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 35 --trace 0

``--trace 0`` times real jobs: each job is one ``python -m nilcx.cli``
subprocess, run one at a time, and its stdout goes through the gate in
``gate.py``. Passes over the workload's fixed job list repeat while another
whole pass still fits in ``--seconds``. The run reports the end-to-end
metrics ``setup_s``, ``jobs_per_s``, ``job_p50_s`` and ``peak_rss_mb``.

``--trace 1`` replays the job list in-process (``layers.py``), once without
and once with spans, and reports per-layer self times, work counts, span
coverage and the tracing overhead; the spans go to
``perfbench/_work/traces/``.

``--workload all`` runs every workload in turn. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it stamps the run with the Python version, ``nproc``, the
commit and a digest of ``src``. Nothing is printed as a result when the
checkout has no nilcx sources: the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import gate
import inputs
import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPS = 3
STARTUP_REPS = 5
# A run must end within 180 s even when the program has regressed badly:
# no job starts after HARD_STOP_S and none may run longer than JOB_LIMIT_S.
HARD_STOP_S = 120.0
JOB_LIMIT_S = 45.0
# Wall time of ``reference.py`` on the sizing machine at its median speed.
REF_NOMINAL_S = 0.1


NPROC = len(os.sched_getaffinity(0))


def _stamp(workload: str, seed: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "claim": None,
    }


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(inputs.SRC)}


def _run_child(argv: list[str], cwd: Path, out: Path, limit: float):
    """Run one child through ``launch.py``; returns (wall s, exit code, maxrss KiB).

    The child's stdout goes to ``out`` and its stderr next to it. A child
    still running after ``limit`` seconds is killed with its launcher.
    """
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(out), str(out.with_suffix(".err")), *argv]
    proc = subprocess.Popen(
        launcher, cwd=cwd, env=_child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        report, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return limit, -signal.SIGKILL, 0
    if proc.returncode:
        raise SystemExit(f"perfbench: launch.py failed with exit code {proc.returncode}")
    rep = json.loads(report)
    return rep["wall_s"], rep["exit_code"], rep["maxrss_kib"]


class Clock:
    """Child wall times, raw and scaled to a reference machine speed.

    The machine this benchmark was sized on changes speed by a third over
    minutes as other tenants come and go. ``reference.py``, a fixed child
    doing the same kind of work as a job, is timed between consecutive
    children; ``wall * REF_NOMINAL_S / reference``, with the mean of the
    reference times just before and just after, is the child's time on a
    machine where the reference takes REF_NOMINAL_S. On the sizing machine
    a job's wall time grew with the reference time (log-log slope about 1
    for half-second jobs and 0.6 for 3- to 6-second ones), and scaling cut
    the run-to-run spread of the metrics two- to threefold. ``main`` pins
    the benchmark and its children to one CPU, so reference and job run on
    the same core.
    """

    def __init__(self, work: Path):
        self.raw: list[float] = []
        self.refs: list[float] = []
        self._last_ref = None
        self._work = work

    def reference_s(self) -> float:
        argv = [sys.executable, str(HERE / "reference.py")]
        wall, rc, _ = _run_child(argv, self._work, self._work / "reference.out", JOB_LIMIT_S)
        if rc:
            raise SystemExit(f"perfbench: reference.py failed with exit code {rc}")
        return wall

    def run(self, argv, cwd, out):
        """Run a child; returns (scaled wall s, exit code, maxrss KiB)."""
        before = self._last_ref or self.reference_s()
        wall, rc, maxrss = _run_child(argv, cwd, out, JOB_LIMIT_S)
        self._last_ref = self.reference_s()
        ref = (before + self._last_ref) / 2
        self.raw.append(wall)
        self.refs.append(ref)
        return wall * REF_NOMINAL_S / ref, rc, maxrss


def _setup(clock: Clock, workload: str, seed: int, work: Path):
    """Write the inputs SETUP_REPS times, each in a fresh interpreter."""
    times, problems = [], []
    for rep in range(SETUP_REPS):
        out = work / f"setup{rep}"
        argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
        wall, rc, _ = clock.run(argv, ROOT, work / f"setup{rep}.log")
        if rc != 0:
            raise SystemExit(f"perfbench: input set-up failed with exit code {rc}")
        times.append(wall)
        if rep and any(
            (out / f.name).read_bytes() != f.read_bytes() for f in (work / "setup0").iterdir()
        ):
            problems.append("the same seed gave different input bytes")
    jobs = json.loads((work / "setup0" / "jobs.json").read_text(encoding="utf-8"))
    return times, jobs, problems


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    clock = Clock(work)
    setup_times, jobs, problems = _setup(clock, workload, seed, work)
    inp = work / "setup0"
    digests = gate.recorded_digests(workload) if seed == gate.DEFAULT_SEED else {}
    first_out: dict = {}
    walls, rss = [], []
    by_job: dict = defaultdict(list)
    passes = 0
    attempted = failed = 0
    start = perf_counter()
    while True:
        p0 = perf_counter()
        dims: dict = defaultdict(dict)
        for job in jobs:
            if perf_counter() - start > HARD_STOP_S:
                problems.append("hard time limit reached; pass cut short")
                break
            out = work / "job.out"
            argv = [sys.executable, "-m", "nilcx.cli", *job["argv"]]
            wall, rc, maxrss = clock.run(argv, inp, out)
            stdout = out.read_bytes()
            attempted += 1
            walls.append(wall)
            by_job[job["id"]].append(wall)
            rss.append(maxrss)
            errs = [f"exit code {rc}"] if rc else gate.check_stdout(job, stdout)
            if stdout != first_out.setdefault(job["id"], stdout):
                errs.append("stdout differs between passes")
            if job["id"] in digests and gate.digest(stdout) != digests[job["id"]]:
                errs.append("stdout differs from the recorded digest")
            if errs:
                failed += 1
                problems += [f"{job['id']}: {e}" for e in errs]
            elif job["kind"] == "cohomology":
                dims[job["input"]][int(gate.flag(job["argv"], "--degree"))] = json.loads(stdout)["dim"]
        passes += 1
        problems += gate.euler_problems(dims, {j["input"]: j["facts"] for j in jobs})
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - p0) > seconds or elapsed > HARD_STOP_S:
            break
    if seed == gate.DEFAULT_SEED and set(digests) != {j["id"] for j in jobs}:
        problems.append("recorded digests do not cover the job list")
    raw_jobs = clock.raw[SETUP_REPS:]
    metrics = {
        "setup_s": (median(setup_times), "s"),
        # one pass over the list, each job at its median over the passes
        "jobs_per_s": (len(by_job) / sum(median(v) for v in by_job.values()), "1/s"),
        "job_p50_s": (median(walls), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }
    extra = {
        "passes": passes,
        "job_samples": len(walls),
        "failed_frac": failed / attempted,
        "raw": {
            "setup_s": median(clock.raw[:SETUP_REPS]),
            "jobs_per_s": attempted / sum(raw_jobs),
            "job_p50_s": median(raw_jobs),
            "reference_s": median(clock.refs),
        },
    }
    return _result(attempted, failed, problems, metrics, extra)


def _traced_pass(nilcx, tr: Tracer, jobs: list[dict], inp: Path, probe=None):
    """One in-process pass; returns (wall s of the jobs, failures, problems, counts).

    ``probe(job, complex)`` runs after each job that built a complex, outside
    the job's wall time, so the complex need not outlive the job.
    """
    counts = layers.Counts()
    problems = []
    failed = 0
    wall = 0.0
    for job in jobs:
        t0 = perf_counter()
        try:
            with tr.job(f"job:{job['id']}"):
                res, dc = layers.run_job(nilcx, tr, job, inp, counts)
            wall += perf_counter() - t0
            errs = gate.check(job, res)
        except Exception as exc:  # a failing job is counted, not fatal
            dc, errs = None, [f"{type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            problems += [f"{job['id']} (in-process): {e}" for e in errs]
        elif dc is not None and probe is not None:
            probe(job, dc)
    return wall, failed, problems, counts


def run_traced(workload: str, seed: int, work: Path) -> dict:
    nilcx = inputs.import_nilcx()
    tr = Tracer()
    with tr.job("setup"):
        texts, jobs = inputs.build(workload, seed, nilcx, span=tr.span)
    inp = work / "inputs"
    inputs.write(inp, texts, jobs)

    startup = []
    for rep in range(STARTUP_REPS):
        argv = [sys.executable, "-m", "nilcx.cli", "catalog"]
        wall, rc, _ = _run_child(argv, ROOT, work / "startup.out", JOB_LIMIT_S)
        if rc:
            raise SystemExit(f"perfbench: 'nilcx catalog' failed with exit code {rc}")
        startup.append(wall)

    rng = random.Random(f"nilcx-bench-probe:{workload}:{seed}")
    stats = layers.ProbeStats()

    def probe(job, dc):
        with tr.job(f"probe:{job['id']}"):
            layers.probe(nilcx, tr, dc, layers.job_degrees(job), rng, stats)

    plain_wall, *_ = _traced_pass(nilcx, Tracer(enabled=False), jobs, inp)
    traced_wall, failed, problems, counts = _traced_pass(nilcx, tr, jobs, inp, probe)

    coverage = tr.coverage("job:")
    low = {k: v for k, v in coverage.items() if v < 0.9}
    if low:
        problems.append(f"layer spans cover under 90% of {sorted(low)}")
    selfs = tr.self_times()
    metrics = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in LAYER_SPANS}
    metrics.update(
        {
            "cli.startup_s": (median(startup), "s"),
            "dolbeault.green_call_ms": (layers.per_call_ms(stats.green_s), "ms"),
            "dolbeault.adjoint_call_ms": (layers.per_call_ms(stats.adjoint_s), "ms"),
            "dolbeault.chain_dim_max": (counts.chain_dim_max, "count"),
            "dolbeault.dbar_nnz": (counts.dbar_nnz, "count"),
            "dolbeault.harmonic_dim_sum": (counts.harmonic_dim_sum, "count"),
            "linalg.dense_mults": (stats.dense_mults, "count"),
            "linalg.useful_mult_ratio": (
                stats.useful_mults / stats.dense_mults if stats.dense_mults else 0.0,
                "ratio",
            ),
            "kuranishi.coeffs": (counts.coeffs, "count"),
            "kuranishi.obstruction_terms": (counts.obstruction_terms, "count"),
            "trace.coverage_min": (min(coverage.values()), "ratio"),
            "trace.overhead_frac": ((traced_wall - plain_wall) / plain_wall, "ratio"),
        }
    )
    header = _stamp(workload, seed, 1)
    header["self_s"] = {k: round(v, 6) for k, v in sorted(selfs.items())}
    tr.write(WORK / "traces" / f"trace-{workload}-s{seed}.jsonl", header)
    return _result(len(jobs), failed, problems, metrics, {"coverage": coverage})


# Span names whose summed self time is a per-layer metric (name + "_s").
LAYER_SPANS = (
    "catalog.get",
    "algfile.parse",
    "lie.validate",
    "lie.ascending_series",
    "cxs.integrable",
    "cxs.abelian",
    "cxs.j_series",
    "cxs.frame",
    "dolbeault.init",
    "dolbeault.dbar",
    "dolbeault.laplacian",
    "dolbeault.harmonic",
    "linalg.matmul",
    "linalg.rref",
    "kuranishi.series",
    "kuranishi.obstructions",
    "kuranishi.deform",
    "kuranishi.classify",
    "kuranishi.locus",
)


def _result(attempted, failed, problems, metrics, extra) -> dict:
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "_extra": {**extra, "problems": problems[:20]},
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return run_traced(workload, seed, work)
        return run_untraced(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nilcx benchmark")
    p.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (inputs.SRC / "nilcx" / "__init__.py").is_file():
        print(f"perfbench: no nilcx sources under {inputs.SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_one(name, args.seed, args.seconds, args.trace)
        extra = res.pop("_extra")
        stamp = _stamp(name, args.seed, args.trace)
        print(json.dumps({"stamp": stamp, **extra}, sort_keys=True))
        if args.workload == "all":
            print(json.dumps({"workload": name, **res}, sort_keys=True))
        results[name] = res
    if args.workload == "all":
        res = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
