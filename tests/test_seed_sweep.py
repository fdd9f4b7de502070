"""``tools/seed_sweep.py``: seeds of a benchmark workload through the
benchmark's own checks, two passes each."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("seed_sweep", _ROOT / "tools" / "seed_sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_resonate_seeds_pass():
    got = sweep.sweep(_ROOT, ["resonate"], range(2))
    assert got == {("resonate", 0): [], ("resonate", 1): []}


def test_failing_seed_reported(monkeypatch, capsys):
    checks = sweep._perfbench(_ROOT)[0].checks
    check_job = checks.check_job
    monkeypatch.setattr(checks, "check_job", lambda job, rc, arts: (
        ["planted problem"] if job.command == "modes" else check_job(job, rc, arts)))
    monkeypatch.chdir(_ROOT)
    assert sweep.main(["--workload", "resonate", "--seeds", "3", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL resonate seed 3: ")
    assert out[1].strip().endswith(": planted problem")
    assert out[-1].startswith("1 of 1 seeds failed")
