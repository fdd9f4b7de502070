import math

import numpy as np
import pytest

from plasmonics import media, shell_modes as sh, sphere_modes as sm
from plasmonics.errors import DegeneracyError, DegenerateContrastError, DomainError

LADDER = [0.08, 0.04, 0.02, 0.01]


def _magnetic_medium(omega=0.6, mu_s=2.0):
    drude = media.DrudeParams(1.0, 1.0, 0.0)
    return media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, omega), mu_s)


class TestShellEigenvalue:
    def test_closed_form_value(self):
        assert abs(sh.shell_np_eigenvalue(1, 0.5) - math.sqrt(2.0) / 6.0) < 1e-15

    def test_small_rho_limit(self):
        for n in (1, 2, 3):
            assert abs(sh.shell_np_eigenvalue(n, 1e-9) - 1 / (2 * (2 * n + 1))) < 1e-9

    def test_monotone_in_rho(self):
        vals = [sh.shell_np_eigenvalue(1, rho) for rho in np.linspace(0.01, 0.99, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_squared_identity(self):
        # L^2 = (1/(2(2n+1)))^2 + f g rho^2, the determinant of the coupling
        for n in (1, 2, 3):
            for rho in (0.2, 0.5, 0.8):
                c = sh.shell_coeffs(n, rho)
                phat = sm.half_np_eigenvalue(n)
                L = sh.shell_np_eigenvalue(n, rho)
                assert abs(L**2 - (phat**2 + c.f * c.g * rho**2)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sh.shell_np_eigenvalue(0, 0.5)
        with pytest.raises(DomainError):
            sh.shell_np_eigenvalue(1, 1.0)


class TestShellCoeffs:
    def test_examples(self):
        c = sh.shell_coeffs(1, 0.5)
        assert abs(c.f - 1.0 / 6.0) < 1e-15
        assert abs(c.g - 2.0 / 3.0) < 1e-15

    def test_tilde_ratio(self):
        for n in (1, 2, 3):
            for rho in (0.3, 0.7):
                c = sh.shell_coeffs(n, rho)
                assert abs(c.pt / c.p - rho ** (n + 1)) < 1e-14

    def test_rho_to_one_limits(self):
        for n in (1, 2, 5):
            c = sh.shell_coeffs(n, 1.0 - 1e-12)
            assert abs(c.f - n / (2 * n + 1)) < 1e-9
            assert abs(c.g - (n + 1) / (2 * n + 1)) < 1e-9
            assert abs(c.f * c.g - n * (n + 1) / (2 * n + 1) ** 2) < 1e-9


class TestShellBlocks:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_w0_spectrum_multiplicity_two(self, n, rho):
        med = _magnetic_medium()
        blk = sh.shell_blocks(n, rho, 0.6, med)
        con = media.contrasts(med)
        L = sh.shell_np_eigenvalue(n, rho)
        ev = sorted(np.linalg.eigvals(blk.w0), key=lambda z: (z.real, z.imag))
        want = sorted([con.lambda_mu + L, con.lambda_mu - L,
                       con.lambda_eps + L, con.lambda_eps - L] * 2,
                      key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(ev, want)) < 1e-10

    def test_block_structure(self):
        med = _magnetic_medium()
        blk = sh.shell_blocks(1, 0.5, 0.6, med)
        # [[Lam + P0, Q0], [R0, Lam - P0]] with diagonal 4x4 blocks
        assert np.max(np.abs(blk.w0[:4, :4] - np.diag(np.diag(blk.w0[:4, :4])))) == 0.0
        assert np.max(np.abs(blk.w0[:4, 4:] - np.diag(np.diag(blk.w0[:4, 4:])))) == 0.0
        # R1 = -rho^-2 Q1 entrywise
        assert np.max(np.abs(blk.w1[4:, :4] + blk.w1[:4, 4:] / 0.5**2)) < 1e-14

    def test_basis_eigenrelations(self):
        med = _magnetic_medium()
        blk = sh.shell_blocks(2, 0.5, 0.6, med)
        basis = sh.shell_basis(2, 0.5, med)
        for i in range(8):
            v = basis.vectors[i]
            w = basis.left_vectors[i]
            assert np.max(np.abs(blk.w0 @ v - basis.taus[i] * v)) < 1e-12
            assert np.max(np.abs(w @ blk.w0 - basis.taus[i] * w)) < 1e-12
            assert abs(np.dot(w, v) - basis.normalizers[i]) < 1e-12

    def test_rho_to_zero_block_spectrum(self):
        med = _magnetic_medium()
        blk_sh = sh.shell_blocks(1, 1e-6, 0.6, med)
        blk_sp = sm.w_blocks(1, 0.6, med)
        ev = np.linalg.eigvals(blk_sh.w0)
        for t in np.diag(blk_sp.w0):
            assert np.min(np.abs(ev - t)) < 1e-5

    def test_nonmagnetic_rejected(self):
        med = media.MediumPair(1.0, 1.0, -2.0, 1.0)
        with pytest.raises(DegenerateContrastError):
            sh.shell_blocks(1, 0.5, 0.6, med)


class TestDegenerateExpansion:
    def test_tau1_zero_and_first_order_block_vanishes(self):
        med = _magnetic_medium()
        blk = sh.shell_blocks(1, 0.5, 0.6, med)
        basis = sh.shell_basis(1, 0.5, med)
        exps = sh.shell_degenerate_expansion(1, 0.5, 0.6, med)
        assert all(e.tau1 == 0.0 for e in exps)
        # within-group first-order coupling is exactly zero
        for a in range(8):
            for b in range(8):
                if abs(basis.taus[a] - basis.taus[b]) < 1e-12:
                    el = basis.left_vectors[a] @ blk.w1 @ basis.vectors[b]
                    assert abs(el) < 1e-13

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order3_residual_all_branches(self, n, rho):
        om = 0.6
        med = _magnetic_medium(om)
        blk = sh.shell_blocks(n, rho, om, med)
        for e in sh.shell_degenerate_expansion(n, rho, om, med):
            errs = []
            for rs in LADDER:
                ev = np.linalg.eigvals(blk.assembled(rs))
                pred = e.tau0 + (rs * om) ** 2 * e.tau2_coeff
                errs.append(abs(ev[np.argmin(np.abs(ev - pred))] - pred))
            slope = np.polyfit(np.log(LADDER), np.log(errs), 1)[0]
            assert slope >= 2.7, (e.branch, slope)

    def test_eigenvector_mixing(self):
        om = 0.6
        med = _magnetic_medium(om)
        blk = sh.shell_blocks(1, 0.5, om, med)
        basis = sh.shell_basis(1, 0.5, med)
        for e in sh.shell_degenerate_expansion(1, 0.5, om, med):
            for rs in (0.04, 0.01):
                ev, V = np.linalg.eig(blk.assembled(rs))
                i = np.argmin(np.abs(ev - (e.tau0 + (rs * om) ** 2 * e.tau2_coeff)))
                v = V[:, i] / np.linalg.norm(V[:, i])
                pred = basis.vectors[e.branch - 1].astype(complex).copy()
                for partner, coef in e.mixing:
                    pred += rs * om * coef * basis.vectors[partner - 1]
                pred /= np.linalg.norm(pred)
                assert 1.0 - abs(np.vdot(pred, v)) < 10.0 * rs**2
                # decompose in the analytic basis to pin each mixing
                # coefficient, including its frequency factor
                comps = np.linalg.solve(basis.vectors.T, v)
                comps = comps / comps[e.branch - 1]
                for partner, coef in e.mixing:
                    assert abs(comps[partner - 1] - rs * om * coef) < 5.0 * rs**2

    def test_rho_continuity_to_sphere(self):
        om = 0.6
        med = _magnetic_medium(om)
        shell = sh.shell_degenerate_expansion(1, 1e-3, om, med)
        for es in sm.eigen_expansions(1, om, med):
            best = min(shell, key=lambda e: abs(e.tau0 - es.tau0) + abs(e.tau2_coeff - es.tau2_coeff))
            assert abs(best.tau0 - es.tau0) < 1e-4
            assert abs(best.tau2_coeff - es.tau2_coeff) < 1e-4

    def test_nonmagnetic_branches(self):
        med = media.MediumPair(1.0, 1.0, -1.7 + 0.1j, 1.0)
        exps = sh.shell_degenerate_expansion(1, 0.5, 0.6, med)
        assert [e.branch for e in exps] == [5, 6, 7, 8]
        for xi in (1e-4,):
            med_x = media.MediumPair(1.0, 1.0, -1.7 + 0.1j, 1.0 + xi)
            full = {e.branch: e for e in sh.shell_degenerate_expansion(1, 0.5, 0.6, med_x)}
            for e in exps:
                assert abs(full[e.branch].tau2_coeff - e.tau2_coeff) < 100 * xi

    def test_near_degenerate_refused(self):
        # engineer lambda_mu = lambda_eps + 2 L at (n, rho) = (1, 0.5)
        om = 0.6
        eps_s = media.drude_permittivity(media.DrudeParams(1.0, 1.0, 0.0), om)
        lam_eps = (eps_s + 1.0) / (2.0 * (1.0 - eps_s))
        L = sh.shell_np_eigenvalue(1, 0.5)
        target = lam_eps + 2 * L
        mu_s = (2 * target - 1) / (2 * target + 1)
        med = media.MediumPair(1.0, 1.0, eps_s, mu_s)
        with pytest.raises(DegeneracyError) as err:
            sh.shell_degenerate_expansion(1, 0.5, om, med)
        assert err.value.combination is not None


class TestShellResonances:
    def test_quasistatic_pair_roots(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        geom = sh.ShellGeometry(0.1, 0.5)
        L = sh.shell_np_eigenvalue(1, 0.5)
        reps = {r.family: r for r in sh.shell_resonances(drude, host, geom, "quasistatic", n_cut=1)}
        assert abs(reps["bonding"].omega_star - math.sqrt((1 - 2 * L) / 2)) < 1e-8
        assert abs(reps["antibonding"].omega_star - math.sqrt((1 + 2 * L) / 2)) < 1e-8

    def test_splitting_monotone(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        splits = []
        for rho in (0.2, 0.4, 0.6, 0.8):
            reps = {r.family: r for r in sh.shell_resonances(
                drude, host, sh.ShellGeometry(0.1, rho), "quasistatic", n_cut=1)}
            splits.append(reps["antibonding"].omega_star - reps["bonding"].omega_star)
        assert all(a < b for a, b in zip(splits, splits[1:]))

    def test_rho_to_zero_reduces_to_sphere(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        reps = {r.family: r for r in sh.shell_resonances(
            drude, host, sh.ShellGeometry(0.3, 1e-3), "corrected", n_cut=1)}
        sp_plus = sm.find_resonance("eps+", 1, drude, host, 0.3, "corrected")
        sp_minus = sm.find_resonance("eps-", 1, drude, host, 0.3, "corrected")
        assert abs(reps["bonding"].omega_star - sp_plus.omega_star) < 1e-6
        assert abs(reps["antibonding"].omega_star - sp_minus.omega_star) < 1e-6

    @pytest.mark.parametrize("order", ["quasistatic", "corrected"])
    def test_no_root_in_range(self, order):
        # every n <= 2 root of the rho = 0.5 shell lies below 0.9
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        reps = sh.shell_resonances(drude, host, sh.ShellGeometry(0.1, 0.5), order,
                                   omega_range=(0.9, 0.99))
        assert len(reps) == 4
        for r in reps:
            assert not r.found and r.order == order
            assert r.omega_star is None and r.tau_at_min is None and r.fwhm_estimate is None
            assert math.isnan(r.shift_from_quasistatic)

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            sh.ShellGeometry(0.0, 0.5)
        with pytest.raises(DomainError):
            sh.ShellGeometry(0.1, 1.2)
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        with pytest.raises(DomainError):
            sh.shell_resonances(drude, host, sh.ShellGeometry(0.1, 0.5), "zeroth")
