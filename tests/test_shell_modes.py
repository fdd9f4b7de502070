import math

import mpmath as mp
import numpy as np
import pytest

from plasmonics import media, shell_modes as sh, sphere_modes as sm
from plasmonics.errors import DegeneracyError, DegenerateContrastError, DomainError

from _oracles import shell_basis, shell_blocks, w_blocks

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
                phat = media.ball_np_eigenvalue(n)
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
            # the tilded coefficients are the sphere's at t/tt = rho = 1
            for tilde, plain in ((c.pt, c.p), (c.qt, c.q), (c.rt, c.r), (c.st, c.s)):
                assert abs(tilde - plain) < 1e-9


class TestShellBlocks:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_w0_spectrum_multiplicity_two(self, n, rho):
        med = _magnetic_medium()
        blk = shell_blocks(n, rho, 0.6, med)
        con = media.contrasts(med)
        L = sh.shell_np_eigenvalue(n, rho)
        ev = sorted(np.linalg.eigvals(blk.w0), key=lambda z: (z.real, z.imag))
        want = sorted([con.lambda_mu + L, con.lambda_mu - L,
                       con.lambda_eps + L, con.lambda_eps - L] * 2,
                      key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(ev, want)) < 1e-10

    def test_block_structure(self):
        med = _magnetic_medium()
        blk = shell_blocks(1, 0.5, 0.6, med)
        # [[Lam + P0, Q0], [R0, Lam - P0]] with diagonal 4x4 blocks
        assert np.max(np.abs(blk.w0[:4, :4] - np.diag(np.diag(blk.w0[:4, :4])))) == 0.0
        assert np.max(np.abs(blk.w0[:4, 4:] - np.diag(np.diag(blk.w0[:4, 4:])))) == 0.0
        # R1 = -rho^-2 Q1 entrywise
        assert np.max(np.abs(blk.w1[4:, :4] + blk.w1[:4, 4:] / 0.5**2)) < 1e-14

    def test_basis_eigenrelations(self):
        med = _magnetic_medium()
        blk = shell_blocks(2, 0.5, 0.6, med)
        basis = shell_basis(2, 0.5, med)
        for i in range(8):
            v = basis.vectors[i]
            w = basis.left_vectors[i]
            assert np.max(np.abs(blk.w0 @ v - basis.taus[i] * v)) < 1e-12
            assert np.max(np.abs(w @ blk.w0 - basis.taus[i] * w)) < 1e-12
            assert abs(np.dot(w, v) - basis.normalizers[i]) < 1e-12

    def test_rho_to_zero_block_spectrum(self):
        med = _magnetic_medium()
        blk_sh = shell_blocks(1, 1e-6, 0.6, med)
        blk_sp = w_blocks(1, 0.6, med)
        ev = np.linalg.eigvals(blk_sh.w0)
        for t in np.diag(blk_sp.w0):
            assert np.min(np.abs(ev - t)) < 1e-5

    def test_nonmagnetic_rejected(self):
        med = media.MediumPair(1.0, 1.0, -2.0, 1.0)
        with pytest.raises(DegenerateContrastError):
            shell_blocks(1, 0.5, 0.6, med)


class TestDegenerateExpansion:
    def test_first_order_block_vanishes(self):
        med = _magnetic_medium()
        blk = shell_blocks(1, 0.5, 0.6, med)
        basis = shell_basis(1, 0.5, med)
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
        blk = shell_blocks(n, rho, om, med)
        for e in sh.shell_degenerate_expansion(n, rho, om, med):
            errs = []
            for rs in LADDER:
                ev = np.linalg.eigvals(blk.assembled(rs))
                pred = e.tau0 + (rs * om) ** 2 * e.tau2_coeff
                errs.append(abs(ev[np.argmin(np.abs(ev - pred))] - pred))
            slope = np.polyfit(np.log(LADDER), np.log(errs), 1)[0]
            assert slope >= 2.7, (e.family, slope)

    def test_eigenvector_mixing(self):
        om = 0.6
        med = _magnetic_medium(om)
        blk = shell_blocks(1, 0.5, om, med)
        basis = shell_basis(1, 0.5, med)
        for e in sh.shell_degenerate_expansion(1, 0.5, om, med):
            for rs in (0.04, 0.01):
                ev, V = np.linalg.eig(blk.assembled(rs))
                i = np.argmin(np.abs(ev - (e.tau0 + (rs * om) ** 2 * e.tau2_coeff)))
                v = V[:, i] / np.linalg.norm(V[:, i])
                pred = basis.vectors[e.index].astype(complex).copy()
                for partner, coef in e.mixing:
                    pred += rs * om * coef * basis.vectors[partner]
                pred /= np.linalg.norm(pred)
                assert 1.0 - abs(np.vdot(pred, v)) < 10.0 * rs**2
                # decompose in the analytic basis to pin each mixing
                # coefficient, including its frequency factor
                comps = np.linalg.solve(basis.vectors.T, v)
                comps = comps / comps[e.index]
                for partner, coef in e.mixing:
                    assert abs(comps[partner] - rs * om * coef) < 5.0 * rs**2

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
        assert [e.family for e in exps] == ["branch5", "branch6", "branch7", "branch8"]
        assert [e.index for e in exps] == [4, 5, 6, 7]
        for xi in (1e-4,):
            med_x = media.MediumPair(1.0, 1.0, -1.7 + 0.1j, 1.0 + xi)
            full = {e.family: e for e in sh.shell_degenerate_expansion(1, 0.5, 0.6, med_x)}
            for e in exps:
                assert abs(full[e.family].tau2_coeff - e.tau2_coeff) < 100 * xi
                # the mixing coefficients take the same mu_s -> mu_m limit
                assert [cb for cb, _ in full[e.family].mixing] == [cb for cb, _ in e.mixing]
                for (_, want), (_, got) in zip(full[e.family].mixing, e.mixing):
                    assert abs(want - got) < 100 * xi

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


    @pytest.mark.parametrize("mu_s", [1.0, 1.5])
    def test_array_matches_scalar(self, mu_s):
        drude = media.DrudeParams(1.0, 1.0, 0.05)
        host = media.MaterialPreset(drude, mu_c=mu_s)
        grid = np.linspace(0.3, 0.95, 53)
        got = sh.shell_degenerate_expansion(2, 0.6, grid, host.medium_at(grid))
        want = [sh.shell_degenerate_expansion(2, 0.6, float(w), host.medium_at(float(w)))
                for w in grid]
        for k, e in enumerate(got):
            assert e.family == want[0][k].family
            np.testing.assert_allclose(e.tau0, [row[k].tau0 for row in want], rtol=1e-12, atol=0)
            np.testing.assert_allclose(e.tau2_coeff, [row[k].tau2_coeff for row in want],
                                       rtol=1e-12, atol=0)
            for j, (cb, coef) in enumerate(e.mixing):
                assert cb == want[0][k].mixing[j][0]
                np.testing.assert_allclose(coef, [row[k].mixing[j][1] for row in want],
                                           rtol=1e-12, atol=0)

    def test_near_degenerate_inside_array(self):
        # the engineered point of test_near_degenerate_refused inside a grid
        om = 0.6
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        eps_s = media.drude_permittivity(drude, om)
        lam_eps = (eps_s + 1.0) / (2.0 * (1.0 - eps_s))
        target = lam_eps + 2 * sh.shell_np_eigenvalue(1, 0.5)
        mu_s = (2 * target - 1) / (2 * target + 1)
        with pytest.raises(DegeneracyError) as scalar:
            sh.shell_degenerate_expansion(1, 0.5, om, media.MediumPair(1.0, 1.0, eps_s, mu_s))
        grid = np.array([0.4, om, 0.8])
        med = media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, grid), mu_s)
        with pytest.raises(DegeneracyError) as array:
            sh.shell_degenerate_expansion(1, 0.5, grid, med)
        assert scalar.value.combination is not None
        assert array.value.combination == scalar.value.combination


def _sphere_limit_errors(n: int, rho: float, med: media.MediumPair, om: float):
    """|shell - sphere| of tau0 and tau2_coeff for branches 5-8, and of the
    first-order mixing of the outer-surface branches 5 and 8.

    Branches 5, 6 continue the sphere's eps+ family and 7, 8 its eps-.  A
    branch's mixing, projected on the outer surface and scaled to the
    branch's own outer component, is a coefficient of the sphere's basis:
    partner cb contributes coef * up(cb) / up(b), where up is the upper
    (outer) component of the right vector."""
    sphere = {e.family: e for e in sm.eigen_expansions(n, om, med)}
    shell = {e.family: e for e in sh.shell_degenerate_expansion(n, rho, om, med)}
    right = sh._pair_vectors(n, rho)[0]
    tau0, tau2, mixing = [], [], []
    for b, fam in ((5, "eps+"), (6, "eps+"), (7, "eps-"), (8, "eps-")):
        e, want = shell[f"branch{b}"], sphere[fam]
        tau0.append(abs(e.tau0 - want.tau0))
        tau2.append(abs(e.tau2_coeff - want.tau2_coeff))
        if b in (5, 8):
            (partner, coef), = want.mixing
            got = sum(c * right[cb + 1][0] / right[b][0] for cb, c in e.mixing
                      if sh._BRANCH_DEF[cb + 1][0] == partner + 1)
            mixing.append(abs(got - coef))
    return max(tau0), max(tau2), max(mixing)


class TestSphereLimit:
    """As rho -> 0 the eps branches 5-8 of a shell become the solid sphere's
    eps families: tau0 at rate rho^(2n+1), the rate of L - phat, and
    tau2_coeff and the mixing at rate rho^(2n), from the cross terms through
    the inner-surface partners, whose normalizers are O(rho^(2n+1)).  Some
    cases converge faster (tau2_coeff at n = 2, the nonmagnetic mixing)."""

    @pytest.mark.parametrize("mu_s", [1.0, 1.5], ids=["nonmagnetic", "magnetic"])
    @pytest.mark.parametrize("gamma", [0.0, 0.05], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rho_ladder_rates(self, n, gamma, mu_s):
        om = 0.6
        med = media.MaterialPreset(media.DrudeParams(1.0, 1.0, gamma), mu_c=mu_s).medium_at(om)
        errs = [_sphere_limit_errors(n, rho, med, om) for rho in LADDER]
        for (big, small) in zip(errs, errs[1:]):
            for k, (e_big, e_small) in enumerate(zip(big, small)):
                rate = 2 * n + 1 if k == 0 else 2 * n
                assert e_small <= 2.0 ** -(rate - 0.5) * e_big + 1e-15
        # far below the ladder the expansion is the sphere's to rounding
        assert max(_sphere_limit_errors(n, 1e-10, med, om)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_rho_keeps_digits(self, n):
        # below the ladder, where a difference of L and phat would lose most
        # or all of its digits, the rates still hold
        om = 0.6
        med = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.0)).medium_at(om)
        for rho in (4e-3, 1e-4, 1e-6):
            assert max(_sphere_limit_errors(n, rho, med, om)) <= rho ** (2 * n) + 1e-15

    @pytest.mark.parametrize("rho", [0.5, 1e-3, 1e-8, 1e-30])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_vectors_against_mpmath(self, n, rho):
        # the upper components sgn L +/- phat and the normalizers, whose
        # small ones are L - phat, against values to 30 digits beyond the
        # cancellation of L - phat
        right, left, norm, L, _ = sh._pair_vectors(n, rho)
        with mp.workdps(30 + int(-(2 * n + 1) * math.log10(rho))):
            phat = mp.mpf(1) / (2 * (2 * n + 1))
            big_l = phat * mp.sqrt(1 + 4 * n * (n + 1) * mp.mpf(rho) ** (2 * n + 1))
            for b, (a, sgn, _) in sh._BRANCH_DEF.items():
                up = sgn * big_l + (phat if a in (1, 3) else -phat)
                nb = 2 * big_l * (big_l + (sgn if a in (1, 3) else -sgn) * phat)
                assert right[b][0] == left[b][0]
                assert abs(right[b][0] - up) <= 1e-15 * abs(up)
                assert abs(norm[b] - nb) <= 1e-15 * abs(nb)

    @pytest.mark.parametrize("n, rho", [(1, 1e-70), (2, 1e-48), (3, 1e-36)])
    def test_near_underflow_is_the_sphere(self, n, rho):
        for gamma, mu_s in ((0.0, 1.0), (0.05, complex(1.3, 0.1))):
            med = media.MaterialPreset(media.DrudeParams(1.0, 1.0, gamma),
                                       mu_c=mu_s).medium_at(0.6)
            assert max(_sphere_limit_errors(n, rho, med, 0.6)) < 1e-13

    @pytest.mark.parametrize("n, rho", [(1, 1e-80), (1, 1e-120), (3, 1e-40)])
    def test_underflowed_rho_refused(self, n, rho):
        # the rows' smallest products, of order rho^(2n+2), would underflow
        med = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.0)).medium_at(0.6)
        with pytest.raises(DomainError, match=f"rho = {rho!r} .* n = {n}"):
            sh.shell_degenerate_expansion(n, rho, 0.6, med)


class TestShellResonances:
    def test_quasistatic_pair_roots(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        geom = sh.ShellGeometry(0.1, 0.5)
        L = sh.shell_np_eigenvalue(1, 0.5)
        reps = {r.family: r for r in sh.shell_resonances(host, geom, "quasistatic", n_cut=1)}
        assert abs(reps["bonding"].omega_star - math.sqrt((1 - 2 * L) / 2)) < 1e-8
        assert abs(reps["antibonding"].omega_star - math.sqrt((1 + 2 * L) / 2)) < 1e-8

    def test_splitting_monotone(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        splits = []
        for rho in (0.2, 0.4, 0.6, 0.8):
            reps = {r.family: r for r in sh.shell_resonances(
                host, sh.ShellGeometry(0.1, rho), "quasistatic", n_cut=1)}
            splits.append(reps["antibonding"].omega_star - reps["bonding"].omega_star)
        assert all(a < b for a, b in zip(splits, splits[1:]))

    def test_rho_to_zero_reduces_to_sphere(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        reps = {r.family: r for r in sh.shell_resonances(
            host, sh.ShellGeometry(0.3, 1e-3), "corrected", n_cut=1)}
        sp_plus = sm.find_resonance("eps+", 1, host, 0.3, "corrected")
        sp_minus = sm.find_resonance("eps-", 1, host, 0.3, "corrected")
        assert abs(reps["bonding"].omega_star - sp_plus.omega_star) < 1e-6
        assert abs(reps["antibonding"].omega_star - sp_minus.omega_star) < 1e-6

    @pytest.mark.parametrize("order", ["quasistatic", "corrected"])
    def test_no_root_in_range(self, order):
        # every n <= 2 root of the rho = 0.5 shell lies below 0.9
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        reps = sh.shell_resonances(host, sh.ShellGeometry(0.1, 0.5), order,
                                   omega_range=(0.9, 0.99))
        assert len(reps) == 4
        for r in reps:
            assert not r.found and r.order == order
            assert r.omega_star is None and r.tau_at_min is None and r.fwhm_estimate is None
            assert math.isnan(r.shift_from_quasistatic)

    @pytest.mark.parametrize("r_s, rho", [(math.nan, 0.5), (0.1, math.nan), (math.inf, 0.5)])
    def test_nan_geometry_refused(self, r_s, rho):
        with pytest.raises(DomainError):
            sh.ShellGeometry(r_s, rho)

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            sh.ShellGeometry(0.0, 0.5)
        with pytest.raises(DomainError):
            sh.ShellGeometry(0.1, 1.2)
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        with pytest.raises(DomainError):
            sh.shell_resonances(host, sh.ShellGeometry(0.1, 0.5), "zeroth")


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


class TestBranchRows:
    """The corrected tau of a shell search builds one branch's row; it must
    equal that branch's entry of the full expansion bit for bit."""

    @pytest.mark.parametrize("omega", [0.6, np.float64(0.6), np.linspace(0.3, 0.95, 53)],
                             ids=["float", "float64", "array"])
    @pytest.mark.parametrize("gamma, mu_s", [(0.0, 1.0), (0.0, 1.5), (0.05, 1.0),
                                             (0.05, complex(1.3, 0.1))],
                             ids=["nonmagnetic", "magnetic", "lossy", "lossy-magnetic"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tau_matches_expansion(self, gamma, mu_s, omega, n):
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, gamma), mu_c=mu_s)
        geom = sh.ShellGeometry(0.3, 0.6)
        L = sh.shell_np_eigenvalue(n, geom.rho)
        exps = sh.shell_degenerate_expansion(n, geom.rho, omega, host.medium_at(omega))
        for branch, sgn, fam in sh._EPS_BRANCHES:
            e = exps[[x.index for x in exps].index(branch - 1)]
            got_fam, got_n, tau_qs, tau = sh._eps_branch(host, geom, n, L, branch, sgn, fam)
            assert (got_fam, got_n) == (fam, n)
            assert _same_bits(tau_qs(omega), e.tau0)
            assert _same_bits(tau(omega), e.tau0 + (geom.r_s * omega) ** 2 * e.tau2_coeff)

    @pytest.mark.parametrize("omega", ["float", "array"])
    @pytest.mark.parametrize("offset", ["+2L", "-2L", "0"])
    def test_degeneracy_raises_as_expansion(self, offset, omega):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        lam_eps = media.contrasts(media.MaterialPreset(drude).medium_at(0.6)).lambda_eps
        L = sh.shell_np_eigenvalue(1, 0.5)
        target = lam_eps + {"+2L": -2 * L, "-2L": 2 * L, "0": 0.0}[offset]
        host = media.MaterialPreset(drude, mu_c=(2 * target - 1) / (2 * target + 1))
        w = 0.6 if omega == "float" else np.array([0.4, 0.6, 0.8])
        with pytest.raises(DegeneracyError) as want:
            sh.shell_degenerate_expansion(1, 0.5, w, host.medium_at(w))
        assert want.value.combination == ("lambda_mu - lambda_eps" if offset == "0"
                                          else f"lambda_mu - lambda_eps {offset[0]} 2L")
        geom = sh.ShellGeometry(0.3, 0.5)
        for branch, sgn, fam in sh._EPS_BRANCHES:
            _, _, _, tau = sh._eps_branch(host, geom, 1, L, branch, sgn, fam)
            with pytest.raises(DegeneracyError) as got:
                tau(w)
            assert str(got.value) == str(want.value)
            assert got.value.combination == want.value.combination

    def test_geometry_cached_read_only(self):
        right, left, norm, L, c = sh._pair_vectors(2, 0.6)
        assert sh._pair_vectors(2, 0.6)[0] is right
        with pytest.raises(TypeError):
            right[1] = (0.0, 0.0)
