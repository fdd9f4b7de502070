"""Run seeds lo-hi of one or all benchmark workloads in-process, through the benchmark's checks.

    python3 tools/seed_sweep.py --seeds 0 29                        (from the root of a checkout)
    python3 tools/seed_sweep.py --workload resonate --seeds 0 999

For each workload and seed, the jobs of ``perfbench/workloads.build(workload,
seed)`` run ``PASSES`` times through the benchmark's own ``Workspace``, with
the library imported from the checkout's ``src``, and every pass goes through
the benchmark's ``Tally``: each artifact must pass the independent oracle
checks of ``perfbench/checks.py``, and each later pass must write the same
bytes as the first.  These are the checks a timed benchmark run applies to
every pass, so a seed that fails here would make that run report
``correct: false``.  The tool prints each failing seed with its first
problems and a closing count, and exits 1 if any seed fails.  Like
``artifact_hashes.py``, it reads only ``perfbench/`` besides the library.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

#: passes per seed: the second must write the first's bytes
PASSES = 2
#: problems printed per failing seed
SHOWN = 3


def _perfbench(root: Path):
    """The checkout's ``perfbench/run.py`` and ``perfbench/workloads.py``."""
    path = str(root / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import run
    import workloads
    return run, workloads


def sweep(root: Path, names: list[str], seeds) -> dict[tuple[str, int], list[str]]:
    """The problems of each (workload, seed), an empty list where every
    pass of every job passed."""
    bench, workloads = _perfbench(root)
    cli = bench.load_library(root)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in names:
            for seed in seeds:
                jobs = workloads.build(workload, seed)
                ws = bench.Workspace(Path(tmp) / f"{workload}-{seed}", jobs)
                tally = bench.Tally()
                for i in range(PASSES):
                    tally.check_pass(jobs, ws.run_pass(cli), f"pass {i + 1}")
                out[workload, seed] = tally.problems
    return out


def main(argv=None) -> int:
    root = Path.cwd()
    _, workloads = _perfbench(root)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                    help="one workload (default: all of them)")
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("LO", "HI"),
                    help="the first and the last seed, both included")
    args = ap.parse_args(argv)
    lo, hi = args.seeds
    if not 0 <= lo <= hi:
        ap.error("--seeds needs 0 <= LO <= HI")
    names = list(workloads.WORKLOADS) if args.workload is None else [args.workload]
    results = sweep(root, names, range(lo, hi + 1))
    failed = [key for key, problems in results.items() if problems]
    for workload, seed in failed:
        problems = results[workload, seed]
        print(f"FAIL {workload} seed {seed}: {len(problems)} problems")
        for p in problems[:SHOWN]:
            print(f"  {p}")
    print(f"{len(failed)} of {len(results)} seeds failed "
          f"({', '.join(names)}; seeds {lo}-{hi}; {PASSES} passes each)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
