"""Record the sha256 of every seed-0 artifact into ``perfbench/golden.json``.

    python3 perfbench/record_golden.py      (from the root of a checkout)

Refactors that must not move a digit are checked against these hashes: the
traced benchmark run reports how many differ as ``cli.artifacts_changed``.
Re-record only when a change is meant to alter artifacts, and say so.
"""

from __future__ import annotations

import contextlib
import json
import shutil
from pathlib import Path

import checks
import run as bench
import workloads


def main() -> None:
    root = Path.cwd()
    cli = bench.load_library(root)
    base = root / bench.WORK_DIR / "golden"
    golden = {}
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build(workload, 0)
            result = bench.Workspace(base / workload, jobs).run_pass(cli)
            for job, rc, arts in zip(jobs, result["rcs"], result["arts"]):
                problems = checks.check_job(job, rc, arts)
                if problems:
                    raise SystemExit(f"{workload}/{job.name} fails its checks: {problems}")
            golden[workload] = {job.name: digest
                                for job, digest in zip(jobs, bench.hashes(result["arts"]))}
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    bench.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
