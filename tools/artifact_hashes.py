"""Hash every CLI artifact of seeds 0-3 of every benchmark workload, plus extras.

    python3 tools/artifact_hashes.py --out hashes.json       (from the root of a checkout)
    python3 tools/artifact_hashes.py --compare hashes.json

Each job of ``perfbench/workloads.build(workload, seed)``, and each of the
fixed ``EXTRA`` jobs for what the workloads miss, runs once through
``plasmonics.cli.main`` in a temporary directory, with the library imported
from the checkout's ``src``.  ``--out`` writes the sha256 of every artifact;
``--compare`` reports the jobs whose artifacts differ from a saved file, with
the ``rc`` and the names of the artifacts that changed in each, and exits 1
if any do, so a refactor proves byte-identity against its parent by running
``--out`` in the parent's checkout and ``--compare`` in its own.  The tool
reads only ``perfbench/`` besides the library, so when the parent's copy of
this file is older, copy this one into the parent's checkout first: both
sides then run the same jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

SEEDS = range(4)

BOTH = ("--order", "both")
MAGNETIC_SHELL = {
    "run": {"geometry": "shell"},
    "geometry": {"radius": 0.3, "rho": 0.5},
    "drude": {"gamma": 0.05, "mu_c_re": 1.5},
}
LOSSY_MAGNETIC_SHELL = {
    "run": {"geometry": "shell"},
    "geometry": {"radius": 0.3, "rho": 0.7},
    "drude": {"gamma": 0.05, "mu_c_re": 1.3, "mu_c_im": 0.1},
}
FLAG_SHELL = {"geometry": {"radius": 0.2, "rho": 0.6}, "drude": {"gamma": 0.03}}
LOSSY_SPHERE = {"drude": {"gamma": 0.05}}
GENERAL_ANISO = {
    "aniso": {"r11": 1.3, "r22": 0.7, "r33": -0.4, "r12": 0.3, "r13": -0.2, "r23": 0.5,
              "delta": 0.05},
    "drude": {"gamma": 0.03},
}
MG_HOST = {"host": {"eps_m": 2.25}, "drude": {"gamma": 0.05},
           "mg": {"f": 0.1, "validity_constant": 0.3}}
MAGNETIC_SPHERE = {
    "geometry": {"radius": 0.4},
    "drude": {"gamma": 0.02, "mu_c_re": 1.5},
    "grid": {"omega_min": 0.30, "omega_max": 0.95},
}
LOSSY_MAGNETIC_SPHERE = {
    "geometry": {"radius": 0.4},
    "drude": {"gamma": 0.02, "mu_c_re": 1.5, "mu_c_im": 0.1},
    "grid": {"omega_min": 0.30, "omega_max": 0.95},
}
SHELL = {"run": {"geometry": "shell"}, "geometry": {"radius": 0.3, "rho": 0.5},
         "drude": {"gamma": 0.05}}
C10_SPHERE = {"geometry": {"radius": 0.3 * math.sqrt(3.0)}, "drude": {"gamma": 0.05},
              "grid": {"omega_min": 0.40, "omega_max": 0.75}}

#: (name, command, config, extra argv): magnetic shells exercise shell branches
#: 1-4 and the gap cross terms, which no workload reaches; the flag-shell jobs
#: select the shell by the ``--geometry`` flag instead of ``[run] geometry``;
#: two write ``modes`` of the nonmagnetic eps+/eps- sphere branches, lossless
#: and lossy; ``aniso-general`` sets every entry of R, where the workloads
#: leave r13 and r23 at zero, and splits the dipole triplet into three
#: resonances; ``mg-host`` is the only job with a non-vacuum host and a
#: non-default validity constant, so it pins ``valid``, ``margin`` and
#: ``remainder_scale`` away from the defaults.  The workloads run every
#: resonance search under ``--order both``; the three single-order jobs run
#: one order alone, and ``lossy-magnetic-sphere`` gives the four sphere
#: families a complex permeability.  None of them exits nonzero, and none is
#: jittered.
EXTRA = (
    ("magnetic-shell", "resonance", MAGNETIC_SHELL, BOTH),
    ("modes-magnetic-shell", "modes", MAGNETIC_SHELL, ()),
    ("lossy-magnetic-shell", "resonance", LOSSY_MAGNETIC_SHELL, BOTH),
    ("modes-lossy-magnetic-shell", "modes", LOSSY_MAGNETIC_SHELL, ()),
    ("flag-shell", "resonance", FLAG_SHELL, ("--geometry", "shell", *BOTH)),
    ("modes-flag-shell", "modes", FLAG_SHELL, ("--geometry", "shell")),
    ("modes-sphere", "modes", {}, ()),
    ("modes-lossy-sphere", "modes", LOSSY_SPHERE, ()),
    ("aniso-general", "aniso", GENERAL_ANISO, ()),
    ("mg-host", "mg", MG_HOST, ()),
    ("corrected-magnetic-sphere", "resonance", MAGNETIC_SPHERE, ("--order", "corrected")),
    ("corrected-shell", "resonance", SHELL, ("--order", "corrected")),
    ("quasistatic-c10-sphere", "resonance", C10_SPHERE, ()),
    ("lossy-magnetic-sphere", "resonance", LOSSY_MAGNETIC_SPHERE, BOTH),
)


def artifact_hashes(root: Path) -> dict:
    sys.path.insert(0, str(root / "perfbench"))
    import run as bench
    import workloads

    cli = bench.load_library(root)
    batches = [(f"{workload}/{seed}", workloads.build(workload, seed))
               for workload in workloads.WORKLOADS for seed in SEEDS]
    batches.append(("extra", [workloads.Job(*job) for job in EXTRA]))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (prefix, jobs) in enumerate(batches):
            result = bench.Workspace(Path(tmp) / str(i), jobs).run_pass(cli)
            for job, rc, digest in zip(jobs, result["rcs"], bench.hashes(result["arts"])):
                out[f"{prefix}/{job.name}"] = {"rc": rc, "files": digest}
    return out


def changes(want: dict | None, got: dict | None) -> list[str]:
    """What differs between two entries of one job: ``rc`` and the names of
    the artifacts whose hashes differ, or that only one side wrote."""
    if want is None or got is None:
        return ["only in this checkout" if want is None else "only in the saved file"]
    out = ["rc"] if want["rc"] != got["rc"] else []
    a, b = want["files"], got["files"]
    return out + sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the hashes to this JSON file")
    mode.add_argument("--compare", type=Path, help="compare the hashes with this JSON file")
    args = ap.parse_args(argv)
    got = artifact_hashes(Path.cwd())
    if args.out:
        args.out.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"{len(got)} jobs hashed")
        return 0
    want = json.loads(args.compare.read_text())
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    for key in differ:
        print(f"differs: {key}: {', '.join(changes(want.get(key), got.get(key)))}")
    print(f"{len(differ)} of {len(want.keys() | got.keys())} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
