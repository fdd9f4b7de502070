"""Self-test of the tracer: traced counts of one-job runs against hand-derived values.

    python3 perfbench/selftest.py      (from the root of a checkout)

* A series spectrum with G points calls ``scattering_coeffs`` G times,
  ``harmonics_all`` 2G times (incident and scattered direction) and
  ``bessel_jh_seq`` 4G times (two direct calls, two inside ``riccati_seq``).
  With ``--jobs 2`` every ``extinction`` span must still hang under the
  ``scan_spectrum`` span, so ``cli.main`` stays the only root.
* The default ``aniso`` job builds one ``q1_multiplet``, which certifies W_R
  at quadrature degrees 10 and 16: 22^2 = 484 and 34^2 = 1156 outer points,
  each with one inner ``scalar_harmonics_grid`` call, plus one outer call per
  degree: 1642 calls, over ``quad_points(1, None, True)`` points.
* ``self_times`` on hand-built overlapping spans gives the hand-derived shares.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import tracing

GRID_POINTS = 16


def quad_points(n: int, degree: int | None, check: bool) -> int:
    """Points ``q1_multiplet`` evaluates: outer rule plus an inner rule per outer point."""
    d = 2 * n + 8 if degree is None else degree
    total = 0
    for deg in ([d, d + 6] if check else [d]):
        per_rule = (2 * deg + 2) ** 2
        total += per_rule * (1 + per_rule)
    return total


def _traced_job(cli, workdir: Path, name: str, argv: list[str], ini: str) -> dict:
    out = workdir / name
    out.mkdir(parents=True, exist_ok=True)
    cfg = workdir / f"{name}.ini"
    cfg.write_text(ini)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["rc"] = rc
    summary["roots"] = sum(1 for r in tracer.spans if r[1] is None)
    return summary


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got}, expected {want}")


def check_self_times(problems: list[str]) -> None:
    # root A [0, 10]; B [1, 4] under A; C [2, 6] and D [3, 8] under A as if
    # from pool threads.  Leaves share each instant equally.
    a = ["A", None, 0.0, 10.0, None]
    spans = [a, ["B", a, 1.0, 4.0, None], ["C", a, 2.0, 6.0, None], ["D", a, 3.0, 8.0, None]]
    got = tracing.self_times(spans)
    want = [3.0, 1.0 + 0.5 + 1.0 / 3.0, 0.5 + 1.0 / 3.0 + 1.0, 1.0 / 3.0 + 1.0 + 2.0]
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        problems.append(f"self_times {got} != {want}")


def run(cli, workdir: Path) -> list[str]:
    """Problems found; an empty list means every count matched."""
    problems: list[str] = []
    check_self_times(problems)
    grid = f"[geometry]\nradius = 1.0\n[drude]\ngamma = 0.05\n[grid]\ncount = {GRID_POINTS}\n"
    g = GRID_POINTS
    try:
        for jobs in ("1", "2"):
            s = _traced_job(cli, workdir, f"spectrum-jobs{jobs}", ["spectrum", "--jobs", jobs], grid)
            calls = s["calls"]
            _expect(problems, f"jobs={jobs} rc", s["rc"], 0)
            _expect(problems, f"jobs={jobs} scattering_coeffs.calls",
                    calls["mie.scattering_coeffs"], g)
            _expect(problems, f"jobs={jobs} harmonics_all.calls",
                    calls["specfun.harmonics_all"], 2 * g)
            _expect(problems, f"jobs={jobs} bessel_jh_seq.calls",
                    calls["specfun.bessel_jh_seq"], 4 * g)
            _expect(problems, f"jobs={jobs} bessel_jh_seq calls under scattering_coeffs",
                    s["bessel_under_coeffs"], 4 * g)
            _expect(problems, f"jobs={jobs} root spans", s["roots"], 1)
        s = _traced_job(cli, workdir, "aniso", ["aniso"], "")
        _expect(problems, "aniso rc", s["rc"], 0)
        _expect(problems, "q1_multiplet.calls", s["calls"]["effective.q1_multiplet"], 1)
        _expect(problems, "scalar_harmonics_grid.calls",
                s["calls"]["specfun.scalar_harmonics_grid"], 1642)
        _expect(problems, "scalar_harmonics_grid points",
                sum(s["extras"]["specfun.scalar_harmonics_grid"]), quad_points(1, None, True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


if __name__ == "__main__":
    import run as bench

    root = Path.cwd()
    found = run(bench.load_library(root), root / bench.WORK_DIR / "selftest")
    for p in found:
        print(f"FAIL {p}")
    print("OK" if not found else f"FAILED: {len(found)} problems")
    sys.exit(1 if found else 0)
