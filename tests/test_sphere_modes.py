import math
from fractions import Fraction

import numpy as np
import pytest

from plasmonics import media, mie, specfun, sphere_modes as sm
from plasmonics.errors import DegeneracyError, DegenerateContrastError, DomainError
from plasmonics.specfun import Direction

LADDER = [0.08, 0.04, 0.02, 0.01]


def _magnetic_medium(omega=0.6, mu_c=2.0):
    drude = media.DrudeParams(1.0, 1.0, 0.0)
    return media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, omega), mu_c)


class TestSmallRCoeffs:
    def test_exact_rationals(self):
        p, q, r, s = sm.small_r_coeffs(1)
        assert p == Fraction(1, 3)
        assert (q, r, s) == (Fraction(-7, 15), Fraction(-1, 5), Fraction(1, 5))

    def test_p_monotone_to_zero(self):
        vals = [float(sm.small_r_coeffs(n)[0]) for n in range(1, 40)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fit_from_exact_products(self, n):
        # independent recovery of (q, r, s) from the exact Bessel products:
        # subtract the displayed leading/linear structure and fit the linear
        # coefficient of each product at t = 1e-2..1e-4
        _, q, r, s = (float(c) for c in sm.small_r_coeffs(n))
        for kind, lead, coef in (
            ("jh", 1.0 / (2 * n + 1), None),      # feeds p_n via the 1/t term
            ("JH", -n * (n + 1) / (2 * n + 1), None),
        ):
            for t in (1e-2, 1e-3, 1e-4):
                jt, ht = specfun.bessel_pair(n, t)
                Jt, Ht = specfun.riccati_pair(n, t)
                exact = {"jh": 1j * jt * ht, "JH": 1j * Jt * Ht}[kind]
                assert abs(exact * t - lead) < 3 * t**2
        # r_n and s_n are the quadratic coefficients of the boundary matrix
        # diagonal; fit from exact evaluations
        for idx, target in ((0, r), (1, s)):
            fits = []
            for t in (1e-2, 5e-3, 2.5e-3):
                M, _ = sm.boundary_matrices(n, 1.0, t)
                base = -1.0 / (2 * (2 * n + 1)) if idx == 0 else 1.0 / (2 * (2 * n + 1))
                fits.append(((M[idx, idx] - base) / t**2).real)
            assert abs(fits[-1] - target) < 5e-3 * max(1.0, abs(target))
        # q_n from the off-diagonal linear coefficient of L
        fits = []
        for t in (1e-2, 5e-3, 2.5e-3):
            _, L = sm.boundary_matrices(n, 1.0, t)
            fits.append(((L[1, 0] - n * (n + 1) / ((2 * n + 1) * t)) / t).real)
        assert abs(fits[-1] - q) < 5e-3 * max(1.0, abs(q))


class TestBoundaryMatrices:
    def test_small_radius_diagonal(self):
        for n in (1, 2, 4):
            M, _ = sm.boundary_matrices(n, 1.0, 1e-6)
            phat = sm.half_np_eigenvalue(n)
            assert abs(M[0, 0] - (-phat)) < 1e-9
            assert abs(M[1, 1] - phat) < 1e-9

    def test_quadratic_coefficient_n1(self):
        fits = []
        for r in (0.1, 0.05, 0.025):
            M, _ = sm.boundary_matrices(1, 1.0, r)
            fits.append(((M[0, 0] - (-1.0 / 6.0)) / r**2).real)
        assert abs(fits[-1] - (-0.2)) < 2e-3

    def test_l_leading_singularity(self):
        # L[1,0] * r -> n(n+1)/(2n+1) as r -> 0 (real, from the exact
        # product i J_n H_n ~ -n(n+1)/((2n+1) t))
        for n in (1, 2, 3):
            _, L = sm.boundary_matrices(n, 1.0, 1e-7)
            assert abs(L[1, 0] * 1e-7 - n * (n + 1) / (2 * n + 1)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            sm.boundary_matrices(1, 0.0, 1.0)
        with pytest.raises(DomainError):
            sm.boundary_matrices(1, 1.0, -1.0)


class TestWBlocks:
    def test_w0_diagonal(self):
        med = _magnetic_medium()
        blk = sm.w_blocks(1, 0.6, med)
        con = media.contrasts(med)
        expect = [con.lambda_mu + 1 / 6, con.lambda_mu - 1 / 6,
                  con.lambda_eps + 1 / 6, con.lambda_eps - 1 / 6]
        assert np.allclose(np.diag(blk.w0), expect)
        assert np.max(np.abs(blk.w0 - np.diag(np.diag(blk.w0)))) == 0.0
        assert np.max(np.abs(np.diag(blk.w1))) == 0.0

    def test_material_constant_example(self):
        med = media.MediumPair(1.0, 1.0, -2.0, 2.0)
        c_mu, c_eps, _, _ = sm.material_constants(med)
        assert abs(c_mu - 5.0) < 1e-14

    def test_swap_symmetry(self):
        # exchanging the eps and mu roles everywhere swaps rows/cols (1,2)<->(3,4)
        om = 0.7
        med = media.MediumPair(1.1, 1.3, -1.9 + 0.1j, 2.2 - 0.05j)
        swapped = media.MediumPair(1.3, 1.1, 2.2 - 0.05j, -1.9 + 0.1j)
        P = np.zeros((4, 4))
        P[0, 2] = P[1, 3] = P[2, 0] = P[3, 1] = 1.0
        for attr in ("w0", "w1", "w2"):
            A = getattr(sm.w_blocks(2, om, med), attr)
            B = getattr(sm.w_blocks(2, om, swapped), attr)
            assert np.max(np.abs(P @ A @ P - B)) < 1e-12

    def test_nonmagnetic_rejected(self):
        med = media.MediumPair(1.0, 1.0, -2.0, 1.0)
        with pytest.raises(DegenerateContrastError):
            sm.w_blocks(1, 0.6, med)

    def test_degenerate_contrasts_rejected(self):
        med = media.MediumPair(1.0, 1.0, 2.0, 2.0)  # lambda_mu == lambda_eps
        with pytest.raises(DegeneracyError):
            sm.w_blocks(1, 0.6, med)


class TestEigenExpansions:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_vanishing_gap_refused(self, sign):
        # engineer lambda_mu = lambda_eps -+ p_1; the "-" case makes the gap
        # exactly zero, which must raise the typed error, not divide by it
        om = 0.6
        eps_c = media.drude_permittivity(media.DrudeParams(1.0, 1.0, 0.0), om)
        lam_eps = media.contrasts(media.MediumPair(1.0, 1.0, eps_c, 2.0)).lambda_eps
        target = lam_eps + (1.0 / 3.0 if sign == "-" else -1.0 / 3.0)
        mu_c = (2 * target - 1) / (2 * target + 1)
        with pytest.raises(DegeneracyError) as err:
            sm.eigen_expansions(1, om, media.MediumPair(1.0, 1.0, eps_c, mu_c))
        assert err.value.combination == f"lambda_mu - lambda_eps {sign} p_n"

    def test_tau1_zero_and_completeness(self):
        med = _magnetic_medium()
        for n in (1, 2, 3):
            blk = sm.w_blocks(n, 0.6, med)
            exps = sm.eigen_expansions(n, 0.6, med)
            assert all(e.tau1 == 0.0 for e in exps)
            got = sorted((e.tau0 for e in exps), key=lambda z: (z.real, z.imag))
            want = sorted(np.diag(blk.w0), key=lambda z: (z.real, z.imag))
            assert max(abs(a - b) for a, b in zip(got, want)) == 0.0

    @pytest.mark.parametrize("omega", [0.45, 0.6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order3_residual(self, n, omega):
        med = _magnetic_medium(omega)
        blk = sm.w_blocks(n, omega, med)
        for e in sm.eigen_expansions(n, omega, med):
            errs = []
            for r in LADDER:
                ev = np.linalg.eigvals(blk.assembled(r))
                pred = e.tau0 + (r * omega) ** 2 * e.tau2_coeff
                errs.append(abs(ev[np.argmin(np.abs(ev - pred))] - pred))
            slope = np.polyfit(np.log(LADDER), np.log(errs), 1)[0]
            assert slope >= 2.7, (e.family, slope)

    def test_eigenvector_first_order(self):
        om = 0.6
        med = _magnetic_medium(om)
        blk = sm.w_blocks(1, om, med)
        for e in sm.eigen_expansions(1, om, med):
            i0 = int(np.argmax(np.abs(e.eigvec0)))
            for r in (0.05, 0.02):
                ev, V = np.linalg.eig(blk.assembled(r))
                i = np.argmin(np.abs(ev - e.tau0))
                v = V[:, i]
                # the partner/base component ratio pins the full first-order
                # coefficient, including its frequency factor
                ratio = v[e.partner] / v[i0]
                assert abs(ratio - r * om * e.eigvec1_coeff) < 3.0 * r**2
                pred = e.eigvec0.astype(complex).copy()
                pred[e.partner] += r * om * e.eigvec1_coeff
                pred /= np.linalg.norm(pred)
                assert 1.0 - abs(np.vdot(pred, v / np.linalg.norm(v))) < 4.0 * r**2

    def test_nonmagnetic_reduction(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.1j, 1.0)
        exps = sm.eigen_expansions(1, 0.6, med)
        assert [e.family for e in exps] == ["eps+", "eps-"]
        assert all(e.eigvec0 is None for e in exps)
        # mu_c -> mu_m limit agrees with small-contrast magnetic evaluation
        for xi in (1e-4,):
            med_x = media.MediumPair(1.0, 1.0, -2.0 + 0.1j, 1.0 + xi)
            full = {e.family: e for e in sm.eigen_expansions(1, 0.6, med_x)}
            for e in exps:
                assert abs(full[e.family].tau2_coeff - e.tau2_coeff) < 50 * xi


class TestFindResonance:
    def test_frohlich_roots(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        rep = sm.find_resonance("eps+", 1, drude, host, 0.05, "quasistatic")
        assert rep.found and abs(rep.omega_star - 1 / math.sqrt(3)) < 1e-8
        rep2 = sm.find_resonance("eps+", 2, drude, host, 0.05, "quasistatic")
        assert rep2.found and abs(rep2.omega_star - math.sqrt(0.4)) < 1e-8

    def test_quasistatic_size_independence(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        roots = [sm.find_resonance("eps+", 1, drude, host, r, "quasistatic").omega_star
                 for r in (1e-3, 1e-2, 1e-1)]
        assert max(roots) - min(roots) < 1e-12
        corr = [sm.find_resonance("eps+", 1, drude, host, r, "corrected").omega_star
                for r in (1e-2, 1e-1)]
        assert abs(corr[0] - corr[1]) > 1e-5  # corrected order is size-dependent

    def test_corrected_shift_is_redshift(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        rep = sm.find_resonance("eps+", 1, drude, host, 0.4, "corrected")
        assert rep.found and rep.shift_from_quasistatic < 0

    def test_not_found(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        rep = sm.find_resonance("eps+", 1, drude, host, 0.05, "quasistatic",
                                omega_range=(0.8, 0.95))
        assert not rep.found and rep.omega_star is None

    def test_bad_inputs(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        with pytest.raises(DomainError):
            sm.find_resonance("nope", 1, drude, host, 0.05, "quasistatic")
        with pytest.raises(DomainError):
            sm.find_resonance("eps+", 1, drude, host, 0.05, "zeroth")
        with pytest.raises(DomainError):
            sm.find_resonance("mu+", 1, drude, host, 0.05, "quasistatic")

    def test_excitation_selection(self):
        # only the eps+ family (lambda_eps = -1/(2(2n+1))) produces a Mie
        # peak for a small nonmagnetic particle; the eps- root does not
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        preset = media.MaterialPreset(drude)
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.0))
        om_plus = sm.find_resonance("eps+", 1, host.drude, host, 0.02, "quasistatic").omega_star
        om_minus = sm.find_resonance("eps-", 1, host.drude, host, 0.02, "quasistatic").omega_star
        pw = mie.PlaneWave(Direction(0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        spec = mie.scan_spectrum(mie.SphereGeometry(0.02), preset.medium_at,
                                 np.linspace(0.45, 0.95, 300), pw)
        assert len(spec.peaks) == 1
        assert abs(spec.peaks[0].omega - om_plus) < 0.01
        assert abs(spec.peaks[0].omega - om_minus) > 0.2
