import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from plasmonics import effective, media, mie, shell_modes, specfun, sphere_modes as sm
from plasmonics.errors import DegeneracyError, DegenerateContrastError, DomainError
from plasmonics.specfun import Direction

from _oracles import boundary_matrices, w_blocks

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
                M, _ = boundary_matrices(n, 1.0, t)
                base = -1.0 / (2 * (2 * n + 1)) if idx == 0 else 1.0 / (2 * (2 * n + 1))
                fits.append(((M[idx, idx] - base) / t**2).real)
            assert abs(fits[-1] - target) < 5e-3 * max(1.0, abs(target))
        # q_n from the off-diagonal linear coefficient of L
        fits = []
        for t in (1e-2, 5e-3, 2.5e-3):
            _, L = boundary_matrices(n, 1.0, t)
            fits.append(((L[1, 0] - n * (n + 1) / ((2 * n + 1) * t)) / t).real)
        assert abs(fits[-1] - q) < 5e-3 * max(1.0, abs(q))


class TestBoundaryMatrices:
    def test_small_radius_diagonal(self):
        for n in (1, 2, 4):
            M, _ = boundary_matrices(n, 1.0, 1e-6)
            phat = media.ball_np_eigenvalue(n)
            assert abs(M[0, 0] - (-phat)) < 1e-9
            assert abs(M[1, 1] - phat) < 1e-9

    def test_quadratic_coefficient_n1(self):
        fits = []
        for r in (0.1, 0.05, 0.025):
            M, _ = boundary_matrices(1, 1.0, r)
            fits.append(((M[0, 0] - (-1.0 / 6.0)) / r**2).real)
        assert abs(fits[-1] - (-0.2)) < 2e-3

    def test_l_leading_singularity(self):
        # L[1,0] * r -> n(n+1)/(2n+1) as r -> 0 (real, from the exact
        # product i J_n H_n ~ -n(n+1)/((2n+1) t))
        for n in (1, 2, 3):
            _, L = boundary_matrices(n, 1.0, 1e-7)
            assert abs(L[1, 0] * 1e-7 - n * (n + 1) / (2 * n + 1)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            boundary_matrices(1, 0.0, 1.0)
        with pytest.raises(DomainError):
            boundary_matrices(1, 1.0, -1.0)


class TestWBlocks:
    def test_w0_diagonal(self):
        med = _magnetic_medium()
        blk = w_blocks(1, 0.6, med)
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
            A = getattr(w_blocks(2, om, med), attr)
            B = getattr(w_blocks(2, om, swapped), attr)
            assert np.max(np.abs(P @ A @ P - B)) < 1e-12

    def test_nonmagnetic_rejected(self):
        med = media.MediumPair(1.0, 1.0, -2.0, 1.0)
        with pytest.raises(DegenerateContrastError):
            w_blocks(1, 0.6, med)

    def test_degenerate_contrasts_rejected(self):
        med = media.MediumPair(1.0, 1.0, 2.0, 2.0)  # lambda_mu == lambda_eps
        with pytest.raises(DegeneracyError):
            w_blocks(1, 0.6, med)


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

    def test_completeness(self):
        med = _magnetic_medium()
        for n in (1, 2, 3):
            blk = w_blocks(n, 0.6, med)
            exps = sm.eigen_expansions(n, 0.6, med)
            got = sorted((e.tau0 for e in exps), key=lambda z: (z.real, z.imag))
            want = sorted(np.diag(blk.w0), key=lambda z: (z.real, z.imag))
            assert max(abs(a - b) for a, b in zip(got, want)) == 0.0

    @pytest.mark.parametrize("omega", [0.45, 0.6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order3_residual(self, n, omega):
        med = _magnetic_medium(omega)
        blk = w_blocks(n, omega, med)
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
        blk = w_blocks(1, om, med)
        for e in sm.eigen_expansions(1, om, med):
            (partner, coef), = e.mixing
            for r in (0.05, 0.02):
                ev, V = np.linalg.eig(blk.assembled(r))
                i = np.argmin(np.abs(ev - e.tau0))
                v = V[:, i]
                # the partner/base component ratio pins the full first-order
                # coefficient, including its frequency factor
                ratio = v[partner] / v[e.index]
                assert abs(ratio - r * om * coef) < 3.0 * r**2
                pred = np.zeros(4, dtype=complex)
                pred[e.index] = 1.0
                pred[partner] += r * om * coef
                pred /= np.linalg.norm(pred)
                assert 1.0 - abs(np.vdot(pred, v / np.linalg.norm(v))) < 4.0 * r**2

    def test_nonmagnetic_reduction(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.1j, 1.0)
        exps = sm.eigen_expansions(1, 0.6, med)
        assert [e.family for e in exps] == ["eps+", "eps-"]
        assert [e.index for e in exps] == [2, 3]
        # mu_c -> mu_m limit agrees with small-contrast magnetic evaluation
        for xi in (1e-4,):
            med_x = media.MediumPair(1.0, 1.0, -2.0 + 0.1j, 1.0 + xi)
            full = {e.family: e for e in sm.eigen_expansions(1, 0.6, med_x)}
            for e in exps:
                assert abs(full[e.family].tau2_coeff - e.tau2_coeff) < 50 * xi
                (want_partner, want), = full[e.family].mixing
                (partner, got), = e.mixing
                assert partner == want_partner
                assert abs(want - got) < 50 * xi


class TestArrayEvaluation:
    GRID = np.linspace(0.3, 0.95, 53)

    @pytest.mark.parametrize("mu_c", [1.0, 1.5])
    def test_eigen_expansions_match_scalar(self, mu_c):
        drude = media.DrudeParams(1.0, 1.0, 0.05)
        host = media.MaterialPreset(drude, mu_c=mu_c)
        got = sm.eigen_expansions(2, self.GRID, host.medium_at(self.GRID))
        want = [sm.eigen_expansions(2, float(w), host.medium_at(float(w))) for w in self.GRID]
        for k, e in enumerate(got):
            assert e.family == want[0][k].family
            for field in ("tau0", "tau2_coeff"):
                np.testing.assert_allclose(
                    getattr(e, field), [getattr(row[k], field) for row in want],
                    rtol=1e-12, atol=0, err_msg=f"{e.family} {field}")
            (partner, coef), = e.mixing
            assert partner == want[0][k].mixing[0][0]
            np.testing.assert_allclose(coef, [row[k].mixing[0][1] for row in want],
                                       rtol=1e-12, atol=0, err_msg=f"{e.family} mixing")

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_vanishing_gap_inside_array(self, sign):
        # the gap of test_vanishing_gap_refused at one grid point raises what
        # the scalar call raises there
        om = 0.6
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        eps_c = media.drude_permittivity(drude, om)
        lam_eps = media.contrasts(media.MediumPair(1.0, 1.0, eps_c, 2.0)).lambda_eps
        target = lam_eps + (1.0 / 3.0 if sign == "-" else -1.0 / 3.0)
        mu_c = (2 * target - 1) / (2 * target + 1)
        grid = np.array([0.4, om, 0.8])
        med = media.MediumPair(1.0, 1.0, media.drude_permittivity(drude, grid), mu_c)
        with pytest.raises(DegeneracyError) as err:
            sm.eigen_expansions(1, grid, med)
        assert err.value.combination == f"lambda_mu - lambda_eps {sign} p_n"

    def test_material_constants_degenerate_element(self):
        med = media.MediumPair(1.0, 1.0, np.array([-2.0 + 0.1j, 1.0 + 0.0j]), 2.0)
        with pytest.raises(DegenerateContrastError):
            sm.material_constants(med)


def _scalar_loop_minimize(f, omega_range, n_grid=200):
    """The coarse grid evaluated one frequency at a time, then the same
    refinement, as a reference for the single array call."""
    lo, hi = omega_range
    grid = np.linspace(lo, hi, n_grid)
    vals = np.array([abs(f(w)) for w in grid])
    i = int(np.argmin(vals))
    if i == 0 or i == n_grid - 1:
        return None
    return sm._slope_root(f, float(grid[i - 1]), float(grid[i + 1]))


def _drude_argmin(gamma: float, n: int, guess: float) -> mp.mpf:
    """mpmath argmin of the quasistatic eps+ |tau| of a Drude sphere in
    vacuum (eps_inf = omega_p = 1): the root of d|tau|^2/domega."""
    with mp.workdps(40):
        phat = mp.mpf(1) / (2 * (2 * n + 1))

        def modulus2(w):
            eps = 1 - 1 / (w * (w + 1j * gamma))
            return abs((eps + 1) / (2 * (1 - eps)) + phat) ** 2

        return mp.findroot(lambda w: mp.diff(modulus2, w), mp.mpf(guess))


def _sphere_reports(mu_c):
    drude = media.DrudeParams(1.0, 1.0, 0.02)
    host = media.MaterialPreset(drude, mu_c=mu_c)
    families = sm.FAMILIES if mu_c != 1.0 else ("eps+", "eps-")
    return [sm.find_resonance(fam, n, host, 0.4, order, omega_range=(0.3, 0.95))
            for order in ("quasistatic", "corrected") for fam in families for n in (1, 2)]


def _shell_reports():
    drude = media.DrudeParams(1.0, 1.0, 0.05)
    host = media.MaterialPreset(drude)
    geom = shell_modes.ShellGeometry(0.3, 0.5)
    return [r for order in ("quasistatic", "corrected")
            for r in shell_modes.shell_resonances(host, geom, order,
                                                  omega_range=(0.3, 0.95))]


def _aniso_reports():
    drude = media.DrudeParams(1.0, 1.0, 0.02)
    return [r.report for r in
            effective.aniso_resonance(drude, 1.0, np.diag([1.0, -1.0, 0.0]), delta=0.1)]


#: the resonance searches of every caller of ``minimize_modulus``
REPORTS = [
    pytest.param(lambda: _sphere_reports(1.0), id="sphere"),
    pytest.param(lambda: _sphere_reports(1.5), id="sphere-magnetic"),
    pytest.param(_shell_reports, id="shell"),
    pytest.param(_aniso_reports, id="aniso"),
]


class TestMinimizeModulus:
    def test_grid_evaluated_in_one_call(self):
        calls = []

        def tau(w):
            calls.append(w)
            return (w - 0.55) + 0.01j

        om = sm.minimize_modulus(tau, (0.1, 0.9), n_grid=57)
        assert abs(om - 0.55) < 1e-9
        assert isinstance(calls[0], np.ndarray)
        np.testing.assert_array_equal(calls[0], np.linspace(0.1, 0.9, 57))
        assert len(calls) > 1
        assert not any(isinstance(w, np.ndarray) for w in calls[1:])

    @pytest.mark.parametrize("n_grid", [0, 1, 2])
    def test_small_grid_refused(self, n_grid):
        with pytest.raises(DomainError):
            sm.minimize_modulus(lambda w: w - 0.5, (0.1, 0.9), n_grid=n_grid)
        assert abs(sm.minimize_modulus(lambda w: w - 0.5, (0.1, 0.9), n_grid=3) - 0.5) < 1e-9

    def test_constant_has_no_minimum(self):
        # a branch that does not depend on omega (the quasistatic mu
        # families) returns one value for the whole grid
        assert sm.minimize_modulus(lambda w: 0.25 + 0.0j, (0.1, 0.9)) is None

    @pytest.mark.parametrize("reports", REPORTS)
    def test_bit_identical_to_scalar_loop(self, reports, monkeypatch):
        got = reports()
        monkeypatch.setattr(sm, "minimize_modulus", _scalar_loop_minimize)
        want = reports()
        assert any(r.found for r in got)
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.002, 0.02, 0.05, 0.1, 0.2])
    def test_argmin_against_mpmath(self, gamma, n):
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, gamma))
        om = sm.find_resonance("eps+", n, host, 0.1, "quasistatic").omega_star
        want = _drude_argmin(gamma, n, om)
        assert abs(om - want) <= 1e-11 * want

    @pytest.mark.parametrize("eps_m", [1.0, 2.25])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lossless_closed_form_roots(self, n, eps_m):
        # the eps+ leading term vanishes where eps_c = -(n+1)/n eps_m, that
        # is 1 - 1/omega^2 = -(n+1)/n eps_m
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.0), eps_m=eps_m)
        om = sm.find_resonance("eps+", n, host, 0.1, "quasistatic").omega_star
        want = 1.0 / math.sqrt(1.0 + (n + 1) / n * eps_m)
        assert abs(om - want) <= 1e-11 * want

    @pytest.mark.parametrize("slope, edge, calls", [(1.0, -1, 2), (-1.0, 1, 4)],
                             ids=["rising", "falling"])
    def test_bracket_edge_rule(self, slope, edge, calls):
        # the grid sees a minimum at 0.5, but between grid points tau is
        # monotone: g has no sign change, and the refinement returns the
        # edge that |tau| descends to, after evaluating g at the edges only
        scalar_calls = []

        def tau(w):
            if isinstance(w, np.ndarray):
                return np.abs(w - 0.5) + 0.1j
            scalar_calls.append(w)
            return 2.0 + slope * w

        grid = np.linspace(0.1, 0.9, 41)
        om = sm.minimize_modulus(tau, (0.1, 0.9), n_grid=41)
        assert om == float(grid[20 + edge]) and type(om) is float
        assert len(scalar_calls) == calls

    @pytest.mark.parametrize("reports", REPORTS)
    def test_tau_evaluations_per_refinement(self, reports, monkeypatch):
        minimize, counts = sm.minimize_modulus, []

        def counted(f, *args, **kwargs):
            scalar_calls = []

            def tau(w):
                if not isinstance(w, np.ndarray):
                    scalar_calls.append(w)
                return f(w)

            om = minimize(tau, *args, **kwargs)
            counts.append(len(scalar_calls))
            assert all(type(w) is float for w in scalar_calls)
            return om

        monkeypatch.setattr(sm, "minimize_modulus", counted)
        reports()
        assert 0 < max(counts) <= 30


class TestFindResonance:
    def test_frohlich_roots(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        rep = sm.find_resonance("eps+", 1, host, 0.05, "quasistatic")
        assert rep.found and abs(rep.omega_star - 1 / math.sqrt(3)) < 1e-8
        rep2 = sm.find_resonance("eps+", 2, host, 0.05, "quasistatic")
        assert rep2.found and abs(rep2.omega_star - math.sqrt(0.4)) < 1e-8

    def test_quasistatic_size_independence(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        roots = [sm.find_resonance("eps+", 1, host, r, "quasistatic").omega_star
                 for r in (1e-3, 1e-2, 1e-1)]
        assert max(roots) - min(roots) < 1e-12
        corr = [sm.find_resonance("eps+", 1, host, r, "corrected").omega_star
                for r in (1e-2, 1e-1)]
        assert abs(corr[0] - corr[1]) > 1e-5  # corrected order is size-dependent

    def test_corrected_shift_is_redshift(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        rep = sm.find_resonance("eps+", 1, host, 0.4, "corrected")
        assert rep.found and rep.shift_from_quasistatic < 0

    def test_not_found(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        rep = sm.find_resonance("eps+", 1, host, 0.05, "quasistatic",
                                omega_range=(0.8, 0.95))
        assert not rep.found and rep.omega_star is None

    def test_bad_inputs(self):
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        host = media.MaterialPreset(drude)
        with pytest.raises(DomainError):
            sm.find_resonance("nope", 1, host, 0.05, "quasistatic")
        with pytest.raises(DomainError):
            sm.find_resonance("eps+", 1, host, 0.05, "zeroth")
        with pytest.raises(DomainError):
            sm.find_resonance("mu+", 1, host, 0.05, "quasistatic")

    def test_excitation_selection(self):
        # only the eps+ family (lambda_eps = -1/(2(2n+1))) produces a Mie
        # peak for a small nonmagnetic particle; the eps- root does not
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        preset = media.MaterialPreset(drude)
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.0))
        om_plus = sm.find_resonance("eps+", 1, host, 0.02, "quasistatic").omega_star
        om_minus = sm.find_resonance("eps-", 1, host, 0.02, "quasistatic").omega_star
        pw = mie.PlaneWave(Direction(0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        spec = mie.scan_spectrum(mie.SphereGeometry(0.02), preset.medium_at,
                                 np.linspace(0.45, 0.95, 300), pw)
        assert len(spec.peaks) == 1
        assert abs(spec.peaks[0].omega - om_plus) < 0.01
        assert abs(spec.peaks[0].omega - om_minus) > 0.2


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


#: (gamma, mu_c) of the four kinds of particle a resonance search meets
BRANCH_MEDIA = {"nonmagnetic": (0.0, 1.0), "magnetic": (0.0, 1.5), "lossy": (0.05, 1.0),
                "lossy-magnetic": (0.05, complex(1.5, 0.1))}
BRANCH_OMEGAS = {"float": 0.6, "float64": np.float64(0.6), "array": np.linspace(0.3, 0.95, 53)}


class TestBranchRows:
    """The tau of a resonance search builds one family's row; it must equal
    that family's entry of the full expansion bit for bit."""

    @pytest.mark.parametrize("omega", list(BRANCH_OMEGAS))
    @pytest.mark.parametrize("medium", list(BRANCH_MEDIA))
    @pytest.mark.parametrize("n", [1, 2])
    def test_tau_matches_expansion(self, medium, omega, n):
        gamma, mu_c = BRANCH_MEDIA[medium]
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, gamma), mu_c=mu_c)
        w, r = BRANCH_OMEGAS[omega], 0.4
        exps = sm.eigen_expansions(n, w, host.medium_at(w))
        assert len(exps) == (2 if mu_c == 1.0 else 4)
        for e in exps:
            qs = sm._tau_function(e.family, n, host, r, "quasistatic")(w)
            corrected = sm._tau_function(e.family, n, host, r, "corrected")(w)
            assert _same_bits(qs, e.tau0), e.family
            assert _same_bits(corrected, e.tau0 + (r * w) ** 2 * e.tau2_coeff), e.family

    @pytest.mark.parametrize("omega", ["float", "array"])
    @pytest.mark.parametrize("offset", ["+p", "-p", "0"])
    def test_degeneracy_raises_as_expansion(self, offset, omega):
        # lambda_mu placed where a guard of the expansion trips at omega = 0.6:
        # every tau, of either order, raises what the expansion raises
        drude = media.DrudeParams(1.0, 1.0, 0.0)
        lam_eps = media.contrasts(media.MaterialPreset(drude).medium_at(0.6)).lambda_eps
        p = float(sm.small_r_coeffs(1)[0])
        target = lam_eps + {"+p": -p, "-p": p, "0": 0.0}[offset]
        host = media.MaterialPreset(drude, mu_c=(2 * target - 1) / (2 * target + 1))
        w = 0.6 if omega == "float" else np.array([0.4, 0.6, 0.8])
        with pytest.raises(DegeneracyError) as want:
            sm.eigen_expansions(1, w, host.medium_at(w))
        assert want.value.combination == (None if offset == "0"
                                          else f"lambda_mu - lambda_eps {offset[0]} p_n")
        for fam in sm.FAMILIES:
            for order in ("quasistatic", "corrected"):
                with pytest.raises(DegeneracyError) as got:
                    sm._tau_function(fam, 1, host, 0.4, order)(w)
                assert str(got.value) == str(want.value)
                assert got.value.combination == want.value.combination


class TestResonanceOrders:
    def test_both_orders_share_the_quasistatic_root(self):
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.05), mu_c=1.5)
        reports = sm.sphere_resonances(host, 0.4, "both", omega_range=(0.3, 0.95))
        assert len(reports) == 16
        qs, corrected = reports[:8], reports[8:]
        assert {r.order for r in qs} == {"quasistatic"}
        assert {r.order for r in corrected} == {"corrected"}
        for q, c in zip(qs, corrected):
            assert (q.family, q.n) == (c.family, c.n)
            if c.found:
                assert c.shift_from_quasistatic == c.omega_star - q.omega_star
            single = sm.find_resonance(c.family, c.n, host, 0.4, "corrected",
                                       omega_range=(0.3, 0.95))
            assert single == c

    def test_unknown_order(self):
        host = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            sm.sphere_resonances(host, 0.1, "zeroth")
