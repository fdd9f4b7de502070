"""Acceptance suite: the ten release criteria, each at its stated tolerance.

Every test prints one PASS line on success (run with ``pytest -s`` or check
the captured output); a failing criterion fails its test.
"""

import json
import math

import numpy as np
import pytest

from plasmonics import cli, effective, media, mie, shell_modes as sh, specfun, sphere_modes as sm
from plasmonics.specfun import Direction

from _oracles import classical_mie_extinction, shell_basis, shell_blocks, w_blocks

LADDER = [0.08, 0.04, 0.02, 0.01]


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_wronskian_identity():
    mags = np.geomspace(0.1, 50.0, 10)
    angs = np.linspace(0.0, math.pi / 2.0, 20)
    zs = [m * complex(math.cos(a), math.sin(a)) for m in mags for a in angs]
    assert len(zs) == 200
    worst = 0.0
    for n in range(0, 21):
        for z in zs:
            worst = max(worst, specfun.wronskian_residual(n, z) * abs(z))
    assert worst <= 1e-11
    _report(1, f"max |j H - h J - i/z|*|z| = {worst:.3e} <= 1e-11 over n<=20, 200 points")


def test_criterion_02_frohlich_resonances():
    drude = media.DrudeParams(eps_inf=1.0, omega_p=1.0, gamma_damp=0.0)
    host = media.MaterialPreset(drude)
    r1 = sm.find_resonance("eps+", 1, host, 0.05, "quasistatic")
    r2 = sm.find_resonance("eps+", 2, host, 0.05, "quasistatic")
    e1 = abs(r1.omega_star - 1.0 / math.sqrt(3.0))
    e2 = abs(r2.omega_star - math.sqrt(2.0 / 5.0))
    assert r1.found and e1 <= 1e-8
    assert r2.found and e2 <= 1e-8
    _report(2, f"omega*/omega_p errors: n=1 {e1:.2e}, n=2 {e2:.2e} <= 1e-8")


def test_criterion_03_mie_dipole_and_oracle_agreement():
    drude = media.DrudeParams(1.0, 1.0, 0.05)
    preset = media.MaterialPreset(drude)
    om_f = 1.0 / math.sqrt(3.0)
    geom = mie.SphereGeometry(0.01 / om_f)  # k_m r = 0.01 at the peak
    pw = mie.PlaneWave(Direction(0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    grid = np.linspace(0.90 * om_f, 1.10 * om_f, 50)
    worst_dip = 0.0
    worst_oracle = 0.0
    for w in grid:
        med = preset.medium_at(w)
        q_series = mie.extinction(geom, med, w, pw, mode="series")
        q_dipole = mie.extinction(geom, med, w, pw, mode="dipole")
        worst_dip = max(worst_dip, abs(q_series - q_dipole) / abs(q_series))
        ref = classical_mie_extinction(med.eps_c, w, geom.radius, 6)
        worst_oracle = max(worst_oracle, abs(q_series - ref) / abs(ref))
    assert worst_dip <= 5e-2
    assert worst_oracle <= 1e-9
    _report(3, f"dipole-vs-series max rel {worst_dip:.2e} <= 5e-2; "
               f"classical-oracle max rel {worst_oracle:.2e} <= 1e-9")


def test_criterion_04_sphere_expansion_order():
    drude = media.DrudeParams(1.0, 1.0, 0.0)
    worst_slope = math.inf
    for omega in (0.45, 0.6):
        med = media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, omega), 2.0)
        for n in (1, 2, 3):
            blk = w_blocks(n, omega, med)
            for e in sm.eigen_expansions(n, omega, med):
                errs = []
                for r in LADDER:
                    ev = np.linalg.eigvals(blk.assembled(r))
                    pred = e.tau0 + (r * omega) ** 2 * e.tau2_coeff
                    errs.append(abs(ev[np.argmin(np.abs(ev - pred))] - pred))
                slope = np.polyfit(np.log(LADDER), np.log(errs), 1)[0]
                worst_slope = min(worst_slope, slope)
                assert slope >= 2.7, (omega, n, e.family, slope)
    _report(4, f"all four families, n<=3: min residual slope {worst_slope:.2f} >= 2.7")


def test_criterion_05_shell_spectrum():
    err_l = abs(sh.shell_np_eigenvalue(1, 0.5) - math.sqrt(2.0) / 6.0)
    assert err_l <= 1e-12
    drude = media.DrudeParams(1.0, 1.0, 0.0)
    om = 0.6
    med = media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, om), 2.0)
    con = media.contrasts(med)
    worst = 0.0
    for rho in (0.2, 0.5, 0.8):
        for n in (1, 2, 3):
            blk = shell_blocks(n, rho, om, med)
            L = sh.shell_np_eigenvalue(n, rho)
            ev = sorted(np.linalg.eigvals(blk.w0), key=lambda z: (z.real, z.imag))
            want = sorted([con.lambda_mu + L, con.lambda_mu - L,
                           con.lambda_eps + L, con.lambda_eps - L] * 2,
                          key=lambda z: (z.real, z.imag))
            worst = max(worst, max(abs(a - b) for a, b in zip(ev, want)))
    assert worst <= 1e-10
    # rho -> 0 reduction to the solid sphere
    worst_red = 0.0
    shell = sh.shell_degenerate_expansion(1, 1e-3, om, med)
    for es in sm.eigen_expansions(1, om, med):
        best = min(shell, key=lambda e: abs(e.tau0 - es.tau0) + abs(e.tau2_coeff - es.tau2_coeff))
        worst_red = max(worst_red, abs(best.tau0 - es.tau0), abs(best.tau2_coeff - es.tau2_coeff))
    assert worst_red <= 1e-4
    _report(5, f"W0 spectrum multiplicity-2 error {worst:.1e} <= 1e-10; "
               f"lambda_sh(0.5) error {err_l:.1e} <= 1e-12; rho->0 reduction {worst_red:.1e} <= 1e-4")


def test_criterion_06_shell_expansion_order():
    om = 0.6
    drude = media.DrudeParams(1.0, 1.0, 0.0)
    med = media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, om), 2.0)
    rho = 0.5
    blk = shell_blocks(1, rho, om, med)
    basis = shell_basis(1, rho, med)
    worst_slope = math.inf
    exps = sh.shell_degenerate_expansion(1, rho, om, med)
    assert len(exps) == 8
    for e in exps:
        errs = []
        for rs in LADDER:
            ev = np.linalg.eigvals(blk.assembled(rs))
            pred = e.tau0 + (rs * om) ** 2 * e.tau2_coeff
            errs.append(abs(ev[np.argmin(np.abs(ev - pred))] - pred))
        slope = np.polyfit(np.log(LADDER), np.log(errs), 1)[0]
        worst_slope = min(worst_slope, slope)
        assert slope >= 2.7, (e.family, slope)
    # degenerate pairs do not interact at first order
    for a in range(8):
        for b in range(8):
            if abs(basis.taus[a] - basis.taus[b]) < 1e-12:
                assert abs(basis.left_vectors[a] @ blk.w1 @ basis.vectors[b]) < 1e-13
    _report(6, f"all 8 branches: min slope {worst_slope:.2f} >= 2.7; first-order terms vanish")


def test_criterion_07_maxwell_garnett():
    worst = 0.0
    eps_m, eps_c = 1.0, 4.0 + 0.0j
    for f in (1e-3, 1e-2, 0.1):
        et = effective.mg_effective(eps_m, eps_c, f)
        beta = (eps_c - eps_m) / (eps_c + 2 * eps_m)
        cm = eps_m * (1 + 3 * f * beta / (1 - f * beta))
        worst = max(worst, abs(et.gamma_star - cm))
    assert worst <= 1e-12
    drude = media.DrudeParams(1.0, 1.0, 0.02)
    far = effective.mg_effective(1.0, media.drude_permittivity(drude, 2.5), 0.1)
    near = effective.mg_effective(1.0, media.drude_permittivity(drude, 0.60), 0.1)
    assert far.valid and not near.valid
    _report(7, f"MG-CM agreement {worst:.1e} <= 1e-12 at f in (1e-3, 1e-2, 0.1); "
               "validity flag trips approaching the Frohlich point at f = 0.1")


def test_criterion_08_periodic_regular_part():
    r0 = effective.periodic_regular_part([0.0, 0.0, 0.0])
    coefs = []
    for axis in range(3):
        ts = np.linspace(1e-3, 5e-2, 10)
        vals = []
        for t in ts:
            x = np.zeros(3)
            x[axis] = t
            vals.append(effective.periodic_regular_part(x, certify=False) - r0)
        coefs.append(np.polyfit(ts**2, vals, 1)[0])
    for c in coefs:
        assert abs(c - (-1.0 / 6.0)) <= 0.02 * (1.0 / 6.0)
    assert max(coefs) - min(coefs) <= 0.01 * (1.0 / 6.0)
    _report(8, f"quadratic coefficients {['%.5f' % c for c in coefs]} within 2% of -1/6, "
               "isotropic within 1%")


def test_criterion_09_anisotropic_consistency():
    alpha = 0.7
    eps_c = -2.0 + 0.3j
    worst = 0.0
    for n in (1, 2, 3):
        aniso = effective.AnisoPermittivity(eps_c=eps_c, delta=0.1,
                                            r_matrix=alpha * np.eye(3))
        got = effective.q1_multiplet(aniso, n)[n, n]  # the m = 0 diagonal entry
        want = eps_c * alpha * (0.5 - media.ball_np_eigenvalue(n))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8
    drude = media.DrudeParams(1.0, 1.0, 0.02)
    res = effective.aniso_resonance(drude, 1.0, np.diag([1.0, -1.0, 0.0]), delta=0.1)
    assert len([r for r in res if r.report.found]) == 3
    _report(9, f"isotropic-R first-order identity error {worst:.1e} <= 1e-8 (n<=3); "
               "traceless R splits the dipole triplet into 3 resonances")


def test_criterion_10_end_to_end(tmp_path):
    om_qs_ideal = 1.0 / math.sqrt(3.0)
    radius = 0.3 / om_qs_ideal  # k_m r = 0.3 at the quasistatic root
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\ngeometry = sphere\n"
        f"[geometry]\nradius = {radius!r}\n"
        "[drude]\ngamma = 0.05\n"
        "[grid]\nomega_min = 0.40\nomega_max = 0.75\ncount = 300\n")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert cli.main(["resonance", "--config", str(cfg), "--order", "both",
                     "--out", str(tmp_path)]) == 0
    peaks = json.loads((tmp_path / "spectrum_peaks.json").read_text())["peaks"]
    assert len(peaks) == 1 and peaks[0]["fwhm"] is not None
    reports = json.loads((tmp_path / "resonance.json").read_text())["reports"]
    qs_rep = [r for r in reports
              if r["family"] == "eps+" and r["n"] == 1 and r["order"] == "quasistatic"][0]
    corr_rep = [r for r in reports
                if r["family"] == "eps+" and r["n"] == 1 and r["order"] == "corrected"][0]
    om_mie, fwhm = peaks[0]["omega"], peaks[0]["fwhm"]
    assert abs(corr_rep["omega_star"] - om_mie) <= fwhm / 2.0
    mie_shift = om_mie - qs_rep["omega_star"]
    corr_shift = corr_rep["shift_from_quasistatic"]
    assert mie_shift != 0 and corr_shift != 0
    assert math.copysign(1.0, mie_shift) == math.copysign(1.0, corr_shift)
    _report(10, f"corrected resonance {corr_rep['omega_star']:.5f} inside the Mie peak "
                f"FWHM window ({om_mie:.5f} +/- {fwhm / 2:.5f}); both shifts "
                f"{corr_shift:+.4f}/{mie_shift:+.4f} are redshifts")
