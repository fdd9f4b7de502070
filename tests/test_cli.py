import json
import math

import pytest

from plasmonics import cli


def run(args, capsys=None):
    rc = cli.main(args)
    return rc


class TestSelftest:
    def test_passes(self, tmp_path, capsys):
        rc = run(["selftest", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out


class TestResonanceCommand:
    def test_default_frohlich(self, tmp_path):
        rc = run(["resonance", "--geometry", "sphere", "--order", "quasistatic",
                  "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "resonance.json").read_text())
        eps_plus = [r for r in payload["reports"]
                    if r["family"] == "eps+" and r["n"] == 1][0]
        assert abs(eps_plus["omega_star"] - 0.57735) <= 1e-5
        assert abs(eps_plus["omega_star"] - 1 / math.sqrt(3)) <= 1e-6

    def test_shell_orders(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\ngeometry = shell\n[geometry]\nradius = 0.1\nrho = 0.5\n")
        rc = run(["resonance", "--config", str(cfg), "--order", "both",
                  "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "resonance.json").read_text())
        fams = {(r["family"], r["order"]) for r in payload["reports"]}
        assert ("bonding", "quasistatic") in fams
        assert ("antibonding", "corrected") in fams


class TestSpectrumCommand:
    def test_zero_contrast_all_zero(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        # omega_p so small the Drude correction underflows: zero contrast
        cfg.write_text("[drude]\nomega_p = 1e-200\n[grid]\ncount = 5\n")
        rc = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "omega,qext"
        assert all(ln.split(",")[1] == "0" for ln in lines[1:])
        peaks = json.loads((tmp_path / "spectrum_peaks.json").read_text())
        assert peaks == {"peaks": []}

    def test_determinism_and_jobs(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[drude]\ngamma = 0.05\n[geometry]\nradius = 0.05\n"
                       "[grid]\ncount = 40\n")
        outs = []
        for sub, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / sub
            rc = run(["spectrum", "--config", str(cfg), "--out", str(out),
                      "--jobs", jobs])
            assert rc == 0
            outs.append((out / "spectrum.csv").read_bytes()
                        + (out / "spectrum_peaks.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[grid]\ncount = 5\n")
        rc = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path),
                  "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        assert len(payload["spectrum"]) == len(rows) == 5
        for entry, row in zip(payload["spectrum"], rows):
            assert f"{entry['omega']:.17g},{entry['qext']:.17g}" == row

    def test_shell_geometry_refused(self, tmp_path, capsys):
        # no coated-sphere scattering yet: a sphere spectrum must not pass for a shell
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\ngeometry = shell\n[grid]\ncount = 5\n")
        for args in (["--geometry", "shell"], ["--config", str(cfg)]):
            out = tmp_path / args[0].lstrip("-")
            rc = run(["spectrum", "--out", str(out), *args])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["type"] == "config"
            assert "sphere" in err["error"]["message"]
            assert not (out / "spectrum.csv").exists()


class TestOtherCommands:
    def test_modes_csv(self, tmp_path):
        rc = run(["modes", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert lines[0] == "family,n,omega,tau0_re,tau0_im,tau2_re,tau2_im"
        assert any(ln.startswith("eps+,1,") for ln in lines[1:])

    def test_mg_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[mg]\nf = 0.05\n[grid]\ncount = 6\n[drude]\ngamma = 0.02\n")
        rc = run(["mg", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "mg.json").read_text())
        assert len(payload["sweep"]) == 6
        entry = payload["sweep"][0]
        assert set(entry) == {"omega", "gamma_star_re", "gamma_star_im", "f",
                              "valid", "margin", "remainder_scale"}

    def test_ev_units_conversion(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[units]\nscale = ev\nomega_p_ev = 9.0\n"
            "[geometry]\nradius = 20.0\n"          # nanometers
            "[grid]\nomega_min = 3.0\nomega_max = 6.0\ncount = 4\n")
        rc = run(["modes", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        row = (tmp_path / "modes.csv").read_text().splitlines()[1].split(",")
        # mid-grid photon energy 4.5 eV -> omega/omega_p = 0.5
        assert abs(float(row[2]) - 0.5) < 1e-15
        cfg2 = tmp_path / "bad.ini"
        cfg2.write_text("[units]\nscale = ev\n")
        rc = run(["modes", "--config", str(cfg2), "--out", str(tmp_path)])
        assert rc == 2

    def test_aniso(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[aniso]\ndelta = 0.1\nr11 = 1.0\nr22 = -1.0\nr33 = 0.0\n"
                       "[drude]\ngamma = 0.02\n")
        rc = run(["aniso", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "aniso.json").read_text())
        assert len(payload["resonances"]) == 3


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        rc = run(["spectrum", "--config", str(tmp_path / "nope.ini"),
                  "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "config"

    def test_unparseable_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[grid]\ncount = many\n")
        rc = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "count" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_invalid_radius(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[geometry]\nradius = -2\n")
        rc = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_domain_error_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[mg]\nf = 1.5\n[grid]\ncount = 3\n")
        rc = run(["mg", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        payload = json.loads(err)
        assert payload["error"]["type"] == "DomainError"

    def test_bad_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--out", str(tmp_path)])
        assert exc.value.code == 2
