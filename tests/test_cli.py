import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from plasmonics import cli
from plasmonics.errors import DomainError


def run(args, capsys=None):
    rc = cli.main(args)
    return rc


def _run_subprocess(tmp_path, command, ini):
    """Run ``command`` on the config text ``ini`` in a fresh interpreter."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    return subprocess.run([sys.executable, "-m", "plasmonics.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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


    @pytest.mark.parametrize("ini", [
        "[geometry]\nradius = 0.5196152422706632\n[drude]\ngamma = 0.05\n"
        "[grid]\nomega_min = 0.4\nomega_max = 0.75\n",
        "[geometry]\nradius = 0.4\n[drude]\ngamma = 0.02\nmu_c_re = 1.5\n",
        "[run]\ngeometry = shell\n[geometry]\nradius = 0.3\nrho = 0.5\n[drude]\ngamma = 0.05\n",
    ], ids=["sphere", "magnetic-sphere", "shell"])
    def test_single_orders_match_both(self, tmp_path, ini):
        # --order both shares each quasistatic search between its two orders;
        # one order alone writes the same reports, byte for byte
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        reports = {}
        for order in ("quasistatic", "corrected", "both"):
            out = tmp_path / order
            assert run(["resonance", "--config", str(cfg), "--order", order,
                        "--out", str(out)]) == 0
            payload = json.loads((out / "resonance.json").read_text())
            reports[order] = [json.dumps(r, indent=2, sort_keys=True) for r in payload["reports"]]
        assert len(reports["quasistatic"]) == len(reports["corrected"]) >= 4
        assert reports["both"] == reports["quasistatic"] + reports["corrected"]


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

    def test_mg_far_from_spectrum(self, tmp_path):
        # gamma = 1e300 puts lambda* about 1e300 from the ball spectrum:
        # dist^2 overflows, once an untyped OverflowError, and the remainder
        # scale is 0 with no warning
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[drude]\ngamma = 1e300\n[grid]\ncount = 5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["mg", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        sweep = json.loads((tmp_path / "mg.json").read_text())["sweep"]
        assert all(e["valid"] and e["remainder_scale"] == 0.0 for e in sweep)

    def test_mg_omega_product_overflow(self, tmp_path):
        # at omega = 1e300, omega (omega + i gamma) overflows and eps_c tends
        # to eps_inf: once a numpy overflow warning on exit 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[drude]\neps_inf = 0.3\n[grid]\nomega_max = 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["mg", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0

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

    @pytest.mark.parametrize("command", ["resonance", "modes"])
    def test_shell_rho_checked_for_flag_and_key(self, tmp_path, capsys, command):
        # --geometry shell is validated exactly like [run] geometry = shell
        flag = tmp_path / "flag.ini"
        flag.write_text("[geometry]\nrho = 1.5\n")
        key = tmp_path / "key.ini"
        key.write_text("[run]\ngeometry = shell\n[geometry]\nrho = 1.5\n")
        messages = []
        for name, args in (("flag", ["--config", str(flag), "--geometry", "shell"]),
                           ("key", ["--config", str(key)])):
            out = tmp_path / name
            rc = run([command, "--out", str(out), *args])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["type"] == "config"
            messages.append(err["message"])
            assert not out.exists()
        assert messages == ["shell rho must lie in (0, 1)"] * 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        ("drude", "gamma"), ("drude", "omega_p"), ("geometry", "radius"), ("host", "eps_m")])
    @pytest.mark.parametrize("command", ["spectrum", "resonance", "modes", "mg"])
    def test_nonfinite_refused(self, tmp_path, capsys, command, section, key, value):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n[grid]\ncount = 5\n")
        out = tmp_path / "out"
        rc = run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config"
        assert err["message"] == f"[{section}] {key}: {value!r} is not a finite number"
        assert not out.exists()

    @pytest.mark.parametrize("command, ini", [
        ("mg", "[grid]\nomega_min = 1e-160\ncount = 20\n"),
        ("mg", "[grid]\nomega_min = 1e-200\ncount = 20\n"),
        ("spectrum", "[grid]\nomega_min = 1e-200\ncount = 5\n"),
        ("spectrum", "[drude]\nmu_c_re = 1e8\n[grid]\ncount = 5\n"),
        ("modes", "[run]\ngeometry = shell\n[host]\nmu_m = 1e300\n"),
        ("modes", "[grid]\nomega_min = 1e-200\nomega_max = 2e-200\n"),
        ("modes", "[grid]\nomega_min = 1e-170\nomega_max = 2e-170\n"),
        ("spectrum", "[geometry]\nradius = 1e154\n[grid]\ncount = 5\n[spectrum]\nmode = dipole\n"),
        ("spectrum", "[host]\neps_m = 0\n[grid]\ncount = 5\n[spectrum]\nmode = dipole\n"),
    ], ids=["mg-omega-1e-160", "mg-omega-1e-200", "spectrum-omega-1e-200",
            "spectrum-mu_c-1e8", "modes-shell-mu_m-1e300", "modes-omega-1e-200",
            "modes-omega-1e-170", "spectrum-dipole-radius-1e154", "spectrum-dipole-eps_m-0"])
    def test_out_of_range_refused(self, tmp_path, capsys, command, ini):
        # finite inputs whose Drude permittivity, Bessel seeds or material
        # constants leave double range: a typed refusal, never a NaN artifact
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        out = tmp_path / "out"
        rc = run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "DomainError"
        for art in out.iterdir():
            text = art.read_text()
            assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize("command, ini, message", [
        ("resonance", "[drude]\nomega_p = 1e300\n", "omega_p**2 overflows"),
        ("modes", "[drude]\nomega_p = 1e154\n", "Drude permittivity overflows"),
        ("mg", "[drude]\neps_inf = 1e300\n[grid]\ncount = 5\n", "mg.json: "),
        ("spectrum", "[geometry]\nradius = 1e-158\n[grid]\ncount = 5\n",
         "out of double-precision range at z"),
    ], ids=["omega_p-1e300", "modes-omega_p-1e154", "mg-eps_inf-1e300",
            "spectrum-radius-1e-158"])
    def test_non_finite_refused_at_source(self, tmp_path, capsys, command, ini, message):
        # an unsquarable omega_p, a Drude permittivity beyond double range, an
        # infinite remainder_scale and an overflowed h_1 seed: each is refused
        # where it arises, with no warning and no artifact holding nan or inf
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert error["type"] == "DomainError"
        assert message in error["message"]
        for art in out.glob("*"):
            assert not re.search(r"\b(nan|inf|infinity)\b", art.read_text(), re.IGNORECASE)

    @pytest.mark.parametrize("args", [["modes"], ["resonance", "--order", "corrected"]],
                             ids=["modes", "resonance-corrected"])
    def test_tiny_shell_rho_refused(self, tmp_path, capsys, args):
        # at rho = 1e-120 the shell expansion's products of order
        # rho^(2n+2) underflow already at n = 1, a typed refusal naming rho
        # and n
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\ngeometry = shell\n[geometry]\nradius = 0.3\nrho = 1e-120\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run([*args, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert caught == []
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DomainError"
        assert "rho = 1e-120" in error["message"] and "n = 1" in error["message"]

    def test_tiny_shell_rho_is_the_sphere(self, tmp_path):
        # at rho = 1e-10 the eps branches 5-8 of the shell are the sphere's
        # eps+ (5, 6) and eps- (7, 8) families to rounding, at every n
        rows = {}
        for geometry in ("sphere", "shell"):
            cfg = tmp_path / f"{geometry}.ini"
            cfg.write_text(f"[run]\ngeometry = {geometry}\n"
                           "[geometry]\nradius = 0.3\nrho = 1e-10\n")
            out = tmp_path / geometry
            assert run(["modes", "--config", str(cfg), "--out", str(out)]) == 0
            lines = (out / "modes.csv").read_text().splitlines()[1:]
            for line in lines:
                family, n, *values = line.split(",")
                rows[family, int(n)] = [float(v) for v in values]
        for n in (1, 2, 3):
            for branch, family in ((5, "eps+"), (6, "eps+"), (7, "eps-"), (8, "eps-")):
                got, want = rows[f"branch{branch}", n], rows[family, n]
                assert got[0] == want[0]
                assert all(abs(g - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want))

    def test_stderr_is_one_json_document(self, tmp_path):
        # numpy warns on the way to this refusal; pytest would capture the
        # warnings, so the command runs as a subprocess
        proc = _run_subprocess(tmp_path, "spectrum", "[grid]\nomega_min = 1e-158\n")
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"]["type"] == "DomainError"
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("ini, message", [
        ("[drude]\nmu_c_re = 1e300\n[grid]\nomega_min = 1e-12\ncount = 5\n"
         "[spectrum]\nmode = series\n", "eps*mu = "),
        ("[drude]\nmu_c_re = 1e300\n[grid]\nomega_min = 1e-12\ncount = 5\n"
         "[spectrum]\nmode = dipole\n", "eps*mu = "),
        ("[geometry]\nradius = 1e300\n[grid]\nomega_min = 1e154\nomega_max = 1e155\n"
         "count = 5\n", "size parameter |k_m| r = inf"),
        ("[geometry]\nradius = 725\n[drude]\ngamma = 0.0001\n[grid]\nomega_min = 0.001\n"
         "omega_max = 0.002\ncount = 3\n", "out of double-precision range at z"),
    ], ids=["wavenumber-series", "wavenumber-dipole", "size-parameter", "riccati-cos"])
    def test_overflow_refused(self, tmp_path, ini, message):
        # eps*mu beyond double range, whose square root overflows, a size
        # parameter |k_m| r that overflows to inf from finite factors, and an
        # interior argument with Im z near 722, where cos z overflows: once
        # an untyped OverflowError with a traceback (exit 1)
        proc = _run_subprocess(tmp_path, "spectrum", ini)
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "DomainError"
        assert message in error["message"]

    @pytest.mark.parametrize("rc", [0, 1, 2, 3])
    def test_warnings_shown_unless_refused(self, tmp_path, monkeypatch, rc):
        # a warning raised during a command is shown as raised unless the
        # command ends in exit 2 or 3
        def command(cfg, out):
            warnings.warn("held back", RuntimeWarning)
            return rc

        monkeypatch.setattr(cli, "cmd_selftest", command)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["selftest", "--out", str(tmp_path)]) == rc
        shown = [(w.category, str(w.message), w.filename) for w in caught]
        assert shown == ([] if rc in (2, 3) else [(RuntimeWarning, "held back", __file__)])

    def test_non_finite_json_refused(self, tmp_path):
        with pytest.raises(DomainError, match="x.json"):
            cli._write_json(tmp_path / "x.json", {"v": math.inf})
        assert not (tmp_path / "x.json").exists()

    def test_bad_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--out", str(tmp_path)])
        assert exc.value.code == 2
