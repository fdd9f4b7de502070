"""The ``--rtol`` comparison of ``tools/artifact_hashes.py``: per-field
differences, the field names, and the floor scaled by each field's largest
magnitude."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"
_spec = importlib.util.spec_from_file_location("artifact_hashes", _PATH)
ah = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ah)


def _aniso(path_shifts, omegas=(0.55, 0.57, 0.59)):
    return json.dumps({"resonances": [
        {"found": True, "multiplicity": 1, "omega_star": om, "path_shift": ps}
        for om, ps in zip(omegas, path_shifts)]})


class TestArtifactDiff:
    def test_exact_zero_against_residue_reads_small(self):
        # the quadrature's -2.3e-18 beside +-1/3 against the closed form's 0.0
        a = _aniso([-0.33333333333333465, -2.322155276680036e-18, 0.33333333333333465])
        b = _aniso([-1 / 3, 0.0, 1 / 3])
        got = ah.artifact_diff("aniso.json", a, b)
        assert got["resonances[].path_shift"] < 1e-9
        assert got["resonances[].omega_star"] == 0.0

    def test_floor_leaves_large_values_relative(self):
        a = _aniso([0.25, 0.5, 1.0])
        b = _aniso([0.25, 0.5 * (1 + 1e-7), 1.0])
        got = ah.artifact_diff("aniso.json", a, b)
        assert got["resonances[].path_shift"] == pytest.approx(1e-7, rel=1e-6)

    def test_lone_zero_field_is_still_relative(self):
        # a field whose only value is 0 on one side has no scale to floor it
        a = json.dumps({"x": 0.0, "y": 1.0})
        b = json.dumps({"x": 1e-20, "y": 1.0})
        assert ah.artifact_diff("r.json", a, b) == {"x": 1.0, "y": 0.0}

    def test_csv_columns_named(self):
        a = "family,n,tau2_re\nbranch5,1,0.25\nbranch6,1,0.5\n"
        b = "family,n,tau2_re\nbranch5,1,0.25\nbranch6,1,0.5000001\n"
        got = ah.artifact_diff("modes.csv", a, b)
        assert set(got) == {"n", "tau2_re"}
        assert got["tau2_re"] == pytest.approx(2e-7, rel=1e-6)

    def test_note_names_the_field(self):
        want = {"rc": 0, "files": {"aniso.json": "x"},
                "texts": {"aniso.json": _aniso([0.1, 0.2, 0.3])}}
        got = {"rc": 0, "files": {"aniso.json": "y"},
               "texts": {"aniso.json": _aniso([0.1, 0.2, 0.3], (0.55, 0.57, 0.5900001))}}
        fields = {}
        differ, notes = ah.numeric_changes(want, got, 1e-6, fields)
        assert not differ
        assert notes[0].endswith("at resonances[].omega_star")
        assert set(fields) == {("aniso.json", "resonances[].omega_star"),
                               ("aniso.json", "resonances[].path_shift")}

    @pytest.mark.parametrize("name, a, b", [
        ("r.json", '{"a": [1.0, 2.0]}', '{"a": [1.0]}'),
        ("r.json", '{"a": 1.0}', '{"b": 1.0}'),
        ("r.json", '{"found": true}', '{"found": false}'),
        ("m.csv", "x,y\n1,2\n", "x,z\n1,2\n"),
        ("m.csv", "k,y\na,2\n", "k,y\nb,2\n"),
        ("stdout", "ok 1.0\n", "bad 1.0\n"),
    ])
    def test_structure_must_match(self, name, a, b):
        with pytest.raises(ah.StructureError):
            ah.artifact_diff(name, a, b)
