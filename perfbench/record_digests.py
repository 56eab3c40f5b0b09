"""Record the SHA-256 of every job's stdout at the default seed.

The gate compares each job's stdout with these digests when the benchmark
runs at the default seed, so that a change which alters any output byte
shows as a failed job. Re-record only when an output change is intended::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import inputs
from run import WORK, _run_child


def main() -> int:
    digests: dict = {}
    work = WORK / "digests"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in inputs.WORKLOADS:
            texts, jobs = inputs.build(workload, gate.DEFAULT_SEED)
            inputs.write(work / workload, texts, jobs)
            digests[workload] = {}
            for job in jobs:
                out = work / "job.out"
                argv = [sys.executable, "-m", "nilcx.cli", *job["argv"]]
                _, rc, _ = _run_child(argv, work / workload, out, 120.0)
                stdout = out.read_bytes()
                errs = [f"exit code {rc}"] if rc else gate.check_stdout(job, stdout)
                if errs:
                    print(f"{job['id']}: {errs}", file=sys.stderr)
                    return 1
                digests[workload][job["id"]] = gate.digest(stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
