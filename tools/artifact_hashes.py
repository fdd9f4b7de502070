"""Hash every CLI artifact of seeds 0-3 of every benchmark workload, plus extras.

    python3 tools/artifact_hashes.py --out hashes.json       (from the root of a checkout)
    python3 tools/artifact_hashes.py --compare hashes.json
    python3 tools/artifact_hashes.py --compare hashes.json --rtol 1e-12

Each job of ``perfbench/workloads.build(workload, seed)``, and each of the
fixed ``EXTRA`` jobs for what the workloads miss, runs once through
``plasmonics.cli.main`` in a temporary directory, with the library imported
from the checkout's ``src``.  ``--out`` writes the ``rc``, the sha256 and
the text of every artifact; ``--compare`` reports the jobs whose artifacts
differ from a saved file, with the ``rc`` and the names of the artifacts that
changed in each, and exits 1 if any do, so a refactor proves byte-identity
against its parent by running ``--out`` in the parent's checkout and
``--compare`` in its own.  The tool reads only ``perfbench/`` besides the
library, so when the parent's copy of this file is older, copy this one into
the parent's checkout first: both sides then run the same jobs.

With ``--rtol X`` a change may move the last digits.  For each artifact
whose bytes changed, the numbers of its CSV cells, JSON values or text are
compared field by field, and the largest relative difference is reported
with the field where it lies.  A field is a JSON key path with the list
indices left out (``reports[].tau_at_min.re``), a CSV column, or all the
numbers of a text.  The difference of a and b is |a - b| / max(|a|, |b|,
floor), where the floor is ``FLOOR`` (sqrt of the machine epsilon) times the
largest magnitude in the same field on either side, so an exact 0 against a
rounding residue reads as small.  A closing table gives the largest
difference per (artifact, field) over all jobs, for the fields that moved.
The structure must still match exactly: ``rc``, artifact names, JSON keys,
list lengths and every non-float value (``found``, the integer
multiplicities and degrees, strings, null), CSV headers and row counts, and
the text between numbers.  A job differs if its structure does or if a
difference exceeds X.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
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
MG_FROHLICH = {"grid": {"omega_min": 0.5773502691896258}}
MG_LOSSLESS_DENSE = {"mg": {"f": 0.3}}

#: (name, command, config, extra argv): magnetic shells exercise shell branches
#: 1-4 and the gap cross terms, which no workload reaches; the flag-shell jobs
#: select the shell by the ``--geometry`` flag instead of ``[run] geometry``;
#: two write ``modes`` of the nonmagnetic eps+/eps- sphere branches, lossless
#: and lossy; ``aniso-general`` sets every entry of R, where the workloads
#: leave r13 and r23 at zero, and splits the dipole triplet into three
#: resonances; ``mg-host`` is the only job with a non-vacuum host and a
#: non-default validity constant, so it pins ``valid``, ``margin`` and
#: ``remainder_scale`` away from the defaults; ``mg-frohlich-pole`` starts
#: its lossless grid on the Frohlich point 1/sqrt(3), where the ball's
#: polarizability has its pole, so it is the one job refused with exit code
#: 3, and ``mg-lossless-f03`` runs the lossless sweep at f = 0.3, whose
#: composite pole 1 - f m / 3 = 0 lies inside the grid.  The workloads run every
#: resonance search under ``--order both``; the three single-order jobs run
#: one order alone, and ``lossy-magnetic-sphere`` gives the four sphere
#: families a complex permeability.  The workload spectra are nonmagnetic and
#: stop at n_max 18; ``spectrum-lossy-magnetic-sphere`` scans with mu_c !=
#: mu_m, and ``spectrum-large-sphere`` (radius 30) runs the series to n_max
#: 43.  None of them is jittered.
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
    ("mg-frohlich-pole", "mg", MG_FROHLICH, ()),
    ("mg-lossless-f03", "mg", MG_LOSSLESS_DENSE, ()),
    ("corrected-magnetic-sphere", "resonance", MAGNETIC_SPHERE, ("--order", "corrected")),
    ("corrected-shell", "resonance", SHELL, ("--order", "corrected")),
    ("quasistatic-c10-sphere", "resonance", C10_SPHERE, ()),
    ("lossy-magnetic-sphere", "resonance", LOSSY_MAGNETIC_SPHERE, BOTH),
    ("spectrum-lossy-magnetic-sphere", "spectrum", LOSSY_MAGNETIC_SPHERE, ()),
    ("spectrum-large-sphere", "spectrum", {"geometry": {"radius": 30.0}}, ()),
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
            for job, rc, arts, digest in zip(jobs, result["rcs"], result["arts"],
                                             bench.hashes(result["arts"])):
                out[f"{prefix}/{job.name}"] = {
                    "rc": rc, "files": digest,
                    "texts": {name: data.decode() for name, data in arts.items()}}
    return out


def changes(want: dict | None, got: dict | None) -> list[str]:
    """What differs between two entries of one job: ``rc`` and the names of
    the artifacts whose hashes differ, or that only one side wrote."""
    if want is None or got is None:
        return ["only in this checkout" if want is None else "only in the saved file"]
    out = ["rc"] if want["rc"] != got["rc"] else []
    a, b = want["files"], got["files"]
    return out + sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))


class StructureError(Exception):
    """Two artifacts differ in more than their floating-point numbers."""


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")

#: a number is compared relative to at least this fraction of the largest
#: magnitude in its field, so a rounding residue such as -2.3e-18 beside
#: entries of 1/3 reads as 7e-18 of its field, not as 100% of itself
FLOOR = math.sqrt(sys.float_info.epsilon)


def rel_diff(a: float, b: float, floor: float = 0.0) -> float:
    """|a - b| / max(|a|, |b|, floor), 0 for equal numbers or two NaNs."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), floor)


def json_pairs(a, b, field: str = "", where: str = ""):
    """The (field, a, b) float pairs of two JSON values of the same
    structure.  ``field`` is the key path with list indices left out
    (``reports[].omega_star``), so every entry of a list shares its fields;
    ``where`` keeps the indices, to name a structural difference."""
    if isinstance(a, float) and isinstance(b, float):
        yield field, a, b
        return
    if type(a) is not type(b):
        raise StructureError(f"{where or 'top'}: {a!r} against {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise StructureError(f"{where or 'top'}: keys {sorted(a)} against {sorted(b)}")
        for k in a:
            yield from json_pairs(a[k], b[k], f"{field}.{k}" if field else k, f"{where}.{k}")
    elif isinstance(a, list):
        if len(a) != len(b):
            raise StructureError(f"{where or 'top'}: {len(a)} entries against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_pairs(x, y, f"{field}[]", f"{where}[{i}]")
    elif a != b:
        raise StructureError(f"{where}: {a!r} against {b!r}")


def csv_pairs(a: str, b: str):
    """The (column, a, b) number pairs of two CSV tables whose header, row
    count, row lengths and non-numeric cells match."""
    ra, rb = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if len(ra) != len(rb) or ra[:1] != rb[:1]:
        raise StructureError(f"{len(ra)} rows with header {ra[:1]} against "
                             f"{len(rb)} rows with header {rb[:1]}")
    header = ra[0] if ra else []
    for i, (x, y) in enumerate(zip(ra[1:], rb[1:]), start=2):
        if len(x) != len(y) or len(x) != len(header):
            raise StructureError(f"row {i}: {len(x)} cells against {len(y)}, "
                                 f"under a header of {len(header)}")
        for column, u, v in zip(header, x, y):
            try:
                yield column, float(u), float(v)
            except ValueError:
                if u != v:
                    raise StructureError(f"row {i}, {column}: {u!r} against {v!r}") from None


def text_pairs(a: str, b: str):
    """The number pairs of two texts whose other characters match, all in
    one field."""
    if NUMBER.split(a) != NUMBER.split(b):
        raise StructureError("the text between numbers differs")
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        yield "numbers", float(x), float(y)


def artifact_diff(name: str, a: str, b: str) -> dict[str, float]:
    """The largest relative difference of each field of two artifacts: a
    JSON key path, a CSV column, or the numbers of a text.  Each field's
    floor is ``FLOOR`` times its largest finite magnitude on either side."""
    if name.endswith(".json"):
        pairs = list(json_pairs(json.loads(a), json.loads(b)))
    elif name.endswith(".csv"):
        pairs = list(csv_pairs(a, b))
    else:
        pairs = list(text_pairs(a, b))
    scale: dict[str, float] = {}
    for field, x, y in pairs:
        scale[field] = max([scale.get(field, 0.0), *(abs(v) for v in (x, y) if math.isfinite(v))])
    out: dict[str, float] = {}
    for field, x, y in pairs:
        out[field] = max(out.get(field, 0.0), rel_diff(x, y, FLOOR * scale[field]))
    return out


def numeric_changes(want: dict | None, got: dict | None, rtol: float,
                    fields: dict) -> tuple[bool, list[str]]:
    """Whether two entries of one job differ beyond ``rtol`` or in structure,
    and one note per changed artifact: its largest relative difference and
    the field where it lies, or the structural difference.  ``fields``
    collects the largest difference per (artifact, field) over calls."""
    if want is None or got is None or want["rc"] != got["rc"] or \
            want["files"].keys() != got["files"].keys():
        return True, changes(want, got)
    differ, notes = False, []
    for name in sorted(want["files"]):
        if want["files"][name] == got["files"][name]:
            continue
        try:
            per_field = artifact_diff(name, want["texts"][name], got["texts"][name])
        except StructureError as exc:
            differ = True
            notes.append(f"{name} structure: {exc}")
            continue
        field, d = max(per_field.items(), key=lambda kv: kv[1], default=("", 0.0))
        for f, v in per_field.items():
            fields[name, f] = max(fields.get((name, f), 0.0), v)
        differ = differ or not d <= rtol
        notes.append(f"{name} max relative difference {d:.3g} at {field or 'no number'}")
    return differ, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the hashes to this JSON file")
    mode.add_argument("--compare", type=Path, help="compare the hashes with this JSON file")
    ap.add_argument("--rtol", type=float, default=None,
                    help="with --compare: allow numbers to differ by this relative amount")
    args = ap.parse_args(argv)
    if args.rtol is not None and not (args.compare and args.rtol >= 0):
        ap.error("--rtol needs --compare and a value >= 0")
    got = artifact_hashes(Path.cwd())
    if args.out:
        args.out.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"{len(got)} jobs hashed")
        return 0
    want = json.loads(args.compare.read_text())
    if args.rtol is not None and not all("texts" in entry for entry in want.values()):
        ap.error(f"{args.compare} holds no artifact texts; write it again with --out")
    keys = sorted(want.keys() | got.keys())
    changed = [k for k in keys if changes(want.get(k), got.get(k))]
    if args.rtol is None:
        for key in changed:
            print(f"differs: {key}: {', '.join(changes(want.get(key), got.get(key)))}")
        print(f"{len(changed)} of {len(keys)} jobs differ")
        return 1 if changed else 0
    differ, fields = 0, {}
    for key in changed:
        bad, notes = numeric_changes(want.get(key), got.get(key), args.rtol, fields)
        differ += bad
        print(f"{'differs' if bad else 'within'}: {key}: {'; '.join(notes)}")
    moved = sorted((key, d) for key, d in fields.items() if d > 0)
    if moved:
        print("largest relative difference per field that moved:")
        for (name, field), d in moved:
            print(f"  {name} {field}: {d:.3g}")
    print(f"{differ} of {len(keys)} jobs differ beyond rtol {args.rtol:g} "
          f"({len(changed) - differ} more changed within it)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
