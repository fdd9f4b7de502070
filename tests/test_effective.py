import math
import tracemalloc

import numpy as np
import pytest

from plasmonics import effective as eff, media, specfun
from plasmonics.errors import (AccuracyError, DegenerateContrastError, DomainError, PoleError,
                               ResonantCompositeError)

from _oracles import rotation_to, w_matrix_closed_form, w_matrix_per_point


class TestQ1:
    def test_exact_dipole_matrix(self):
        # analytic n = 1 reduction: the multiplet matrix of W_R in the
        # Cartesian basis is Tr(R)/5 Id - (4/15) R, so the eigenvalues of the
        # first-order shift are eps_c R_p / 3
        R = np.diag([1.0, -1.0, 0.0])
        aniso = eff.AnisoPermittivity(eps_c=-2.0 + 0.3j, delta=0.1, r_matrix=R)
        P = eff.q1_multiplet(aniso, 1)
        ev = sorted(np.linalg.eigvals(P), key=lambda z: z.real)
        want = sorted([(-2.0 + 0.3j) * p / 3.0 for p in (1.0, -1.0, 0.0)],
                      key=lambda z: z.real)
        assert max(abs(a - b) for a, b in zip(ev, want)) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_isotropic_identity(self, n):
        # R = alpha Id must reproduce the derivative of the isotropic
        # eigenvalue: eps_c alpha (1/2 - lambda_n)
        alpha = 0.7
        eps_c = -2.0 + 0.3j
        aniso = eff.AnisoPermittivity(eps_c=eps_c, delta=0.1, r_matrix=alpha * np.eye(3))
        got = eff.q1_multiplet(aniso, n)[n, n]  # the m = 0 diagonal entry
        want = eps_c * alpha * (0.5 - media.ball_np_eigenvalue(n))
        assert abs(got - want) < 1e-8

    def test_multiplet_trace(self):
        R = np.array([[0.4, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.3]])
        eps_c = -1.5 + 0.2j
        aniso = eff.AnisoPermittivity(eps_c=eps_c, delta=0.1, r_matrix=R)
        P = eff.q1_multiplet(aniso, 1)
        want = eps_c * np.trace(R) * (0.5 - 1.0 / 6.0)
        assert abs(np.trace(P) - want) < 1e-8

    def test_traceless_example_mode(self):
        # (n, m) = (1, 0) with R = diag(1, -1, 0): Y_1^0 is the pure z mode,
        # whose Cartesian shift eigenvalue is eps_c R_zz / 3 = 0
        aniso = eff.AnisoPermittivity(eps_c=-2.0, delta=0.1,
                                      r_matrix=np.diag([1.0, -1.0, 0.0]))
        val = eff.q1_multiplet(aniso, 1)[1, 1]
        assert abs(val) < 1e-9

    def test_degree_validation(self):
        aniso = eff.AnisoPermittivity(eps_c=1.0, delta=0.1, r_matrix=np.eye(3))
        with pytest.raises(DomainError):
            eff.q1_multiplet(aniso, 2, degree=4)

    def test_asymmetric_r_rejected(self):
        with pytest.raises(DomainError):
            eff.AnisoPermittivity(eps_c=1.0, delta=0.1,
                                  r_matrix=np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1.0]]))

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(DomainError, match="delta"):
            eff.AnisoPermittivity(eps_c=1.0, delta=delta, r_matrix=np.eye(3))

    @pytest.mark.parametrize("entry", [(0, 0, math.inf), (1, 1, -math.inf),
                                       (0, 0, math.nan), (0, 2, math.nan)])
    def test_nonfinite_r_rejected(self, entry):
        # checked before symmetry: a NaN fails the symmetry test too, and an
        # infinite diagonal used to reach the eigensolver
        i, j, value = entry
        r = np.eye(3)
        r[i, j] = r[j, i] = value
        with pytest.raises(DomainError, match="finite"):
            eff.AnisoPermittivity(eps_c=1.0, delta=0.1, r_matrix=r)

    @pytest.mark.parametrize("n", [0, -1])
    def test_multiplet_degree_rejected(self, n):
        aniso = eff.AnisoPermittivity(eps_c=1.0, delta=0.1, r_matrix=np.eye(3))
        with pytest.raises(DomainError):
            eff.q1_multiplet(aniso, n)


R_CASES = {
    "diagonal": np.diag([1.3, 0.2, -0.7]),
    "traceless": np.diag([1.0, -1.0, 0.0]),
    "offdiag": np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]]),
    "random": (lambda a: a + a.T)(np.random.default_rng(9).standard_normal((3, 3))),
}


class TestBlockedQuadrature:
    """The rotation-invariant kernel of ``_w_matrix`` against the per-point
    rule and the Wigner-Eckart closed form.

    Every outer rule here has 4 mod 8 points, so the last, partial block is
    covered too.
    """

    @pytest.mark.parametrize("name", sorted(R_CASES))
    @pytest.mark.parametrize("n, degree", [(1, 10), (1, 16), (2, 12), (2, 18), (3, 14)])
    def test_w_matrix_bit_equal(self, n, degree, name):
        # the kernel comes from rotation invariance, not from the rotated
        # points, so the sums round in another order: equal to 1e-13 of max|w|
        r = R_CASES[name]
        want = w_matrix_per_point(n, r, degree)
        got = eff._w_matrix(n, r, degree)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_w_matrix_closed_form(self, n):
        for degree in (2 * n + 8, 2 * n + 14):
            for r in R_CASES.values():
                want = w_matrix_closed_form(n, r)
                got = eff._w_matrix(n, r, degree)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_w_matrix_memory(self):
        # the kernel is formed a block of outer points at a time: all of it
        # at once would be 10.7 MB at degree 16.  The rules import
        # numpy.polynomial on first use (0.7 MB), so that is done beforehand
        np.polynomial.legendre.leggauss(2)
        tracemalloc.start()
        try:
            eff._w_matrix(1, R_CASES["random"], 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.06 MB; a 32-point block reads 2.8 MB
        assert peak < 1.5e6

    def test_harmonics_calls_pinned(self, monkeypatch):
        # the benchmark's self-test pins these counts for the default aniso:
        # one call per outer point plus one per rule, at degrees 10 and 16
        calls = []
        grid = specfun.scalar_harmonics_grid

        def counted(nmax, points):
            calls.append(len(points))
            return grid(nmax, points)

        monkeypatch.setattr(specfun, "scalar_harmonics_grid", counted)
        eff.q1_multiplet(eff.AnisoPermittivity(1.0, 0.05, np.eye(3)), 1)
        assert len(calls) == 1642
        assert sum(calls) == 484 * 485 + 1156 * 1157 == 1572232

    @pytest.mark.parametrize("degree", [10, 16])
    def test_frames_bit_equal_on_outer_rule(self, degree):
        pts, _ = specfun.sphere_quadrature(degree)
        assert np.array_equal(eff._frames(pts), np.array([rotation_to(p) for p in pts]))

    def test_frames_pole_branches(self):
        # the outer rules never come within 1e-14 of a pole: synthetic points
        # exactly at the poles, inside the 1e-14 band and just outside it
        cs = [1.0, 1.0 - 5e-15, 1.0 - 1e-14, 1.0 - 3e-14, 0.3,
              -1.0, -1.0 + 5e-15, -1.0 + 1e-14, -1.0 + 3e-14]
        pts = np.array([[math.sqrt(1.0 - c * c), 0.0, c] for c in cs])
        rots = eff._frames(pts)
        assert np.array_equal(rots, np.array([rotation_to(p) for p in pts]))
        assert np.array_equal(rots[0], np.eye(3))
        assert np.array_equal(rots[5], np.diag([1.0, -1.0, -1.0]))


class TestAnisoResonance:
    def test_isotropic_reduction(self):
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        res = eff.aniso_resonance(drude, 1.0, np.diag([1.0, -1.0, 0.0]), delta=0.0)
        assert len(res) == 1 and res[0]["multiplicity"] == 3

    def test_isotropic_equivalence_rate(self):
        # R = alpha Id at small delta equals the isotropic resonance with
        # eps_c (1 + delta alpha) up to O(delta^2)
        alpha = 0.8
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        diffs = []
        for delta in (0.05, 0.1):
            res = eff.aniso_resonance(drude, 1.0, alpha * np.eye(3), delta=delta)
            assert len(res) == 1
            om_a = res[0]["omega_star"]

            def tau_scaled(w):
                eps_c = media.drude_permittivity(drude, w) * (1.0 + delta * alpha)
                return (1.0 + eps_c) / 2.0 + (1.0 - eps_c) / 6.0

            from plasmonics.sphere_modes import minimize_modulus
            om_iso = minimize_modulus(tau_scaled, (0.05, 0.99))
            diffs.append(abs(om_a - om_iso))
        assert diffs[0] <= 4.0 * (0.05 / 0.1) ** 2 * diffs[1] + 1e-12
        assert diffs[1] < 5e-3

    def test_traceless_splitting(self):
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        res = eff.aniso_resonance(drude, 1.0, np.diag([1.0, -1.0, 0.0]), delta=0.1)
        found = [r for r in res if r["found"]]
        assert len(found) == 3  # number of distinct eigenvalues of R
        oms = sorted(r["omega_star"] for r in found)
        assert oms[0] < oms[1] < oms[2]

    def test_delta_bound(self):
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        with pytest.raises(DomainError):
            eff.aniso_resonance(drude, 1.0, np.eye(3), delta=0.5)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_nonfinite_delta_rejected(self, delta):
        # a NaN delta used to pass the bound and return three unfound paths
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        with pytest.raises(DomainError):
            eff.aniso_resonance(drude, 1.0, np.eye(3), delta=delta)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_rejected(self, n):
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        with pytest.raises(DomainError):
            eff.aniso_resonance(drude, 1.0, np.eye(3), delta=0.05, n=n)


class TestMaxwellGarnett:
    def test_dilute_limit(self):
        et = eff.mg_effective(1.0, 4.0, 1e-9)
        assert abs(et.gamma_star - 1.0) < 1e-8

    @pytest.mark.parametrize("f", [1e-3, 1e-2, 0.1])
    def test_clausius_mossotti_identity(self, f):
        eps_m, eps_c = 1.0, 4.0 + 0.0j
        et = eff.mg_effective(eps_m, eps_c, f)
        beta = (eps_c - eps_m) / (eps_c + 2 * eps_m)
        cm = eps_m * (1 + 3 * f * beta / (1 - f * beta))
        assert abs(et.gamma_star - cm) <= 1e-12

    def test_resonant_composite_error(self):
        # f beta = 1 makes Id - f M / 3 singular: beta = 10 at f = 0.1
        with pytest.raises(ResonantCompositeError):
            eff.mg_effective(1.0, -7.0 / 3.0, 0.1)

    def test_plasmonic_effective_medium(self):
        # near resonance with f M = O(1) the mixing term can have a
        # negative real part
        eps_c = -2.05 + 0.01j
        et = eff.mg_effective(1.0, eps_c, 0.1)
        assert (et.gamma_star - 1.0).real < 0

    def test_validity_trip_toward_resonance(self):
        # at f = 0.1 the flag is raised far from resonance and trips as the
        # Drude contrast approaches the Frohlich point
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        rows = []
        for om in (2.5, 1.5, 0.9, 0.7, 0.62, 0.58):
            eps_c = media.drude_permittivity(drude, om)
            et = eff.mg_effective(1.0, eps_c, 0.1)
            dist = media.spectral_distance(media.lambda_star(eps_c, 1.0), eff._BALL_SPECTRUM)
            rows.append((dist, et.valid, et.margin))
        assert rows[0][1] is True          # far from resonance: valid
        assert rows[-1][1] is False        # near the Frohlich point: tripped
        # the margin is a strictly increasing function of the spectral distance
        by_dist = sorted(rows)
        assert all(a[2] < b[2] for a, b in zip(by_dist, by_dist[1:]))

    def test_f_validation(self):
        with pytest.raises(DomainError):
            eff.mg_effective(1.0, 4.0, 0.0)
        with pytest.raises(DomainError):
            eff.mg_effective(1.0, 4.0, 1.0)


def _lossy_grid(count=200):
    drude = media.DrudeParams(1.0, 1.0, 0.05)
    return media.drude_permittivity(drude, np.linspace(0.3, 0.95, count))


class TestMaxwellGarnettArray:
    """One array pass over a frequency grid against the per-point calls."""

    @pytest.mark.parametrize("eps_m, eps_c, f, c", [
        (1.0, _lossy_grid(), 0.05, 0.1),
        (2.25, 2.25 * _lossy_grid(), 0.2, 0.3),
        # lossless, through the composite pole near omega = 0.483 at f = 0.3
        (1.0, media.drude_permittivity(media.DrudeParams(), np.linspace(0.3, 0.95, 200)),
         0.3, 0.1),
    ], ids=["lossy", "host-2.25", "lossless-f0.3"])
    def test_matches_per_point(self, eps_m, eps_c, f, c):
        grid = eff.mg_effective(eps_m, eps_c, f, validity_constant=c)
        assert grid.gamma_star.shape == grid.margin.shape == eps_c.shape
        # per-point calls on the grid's complex128 elements: near the
        # lossless composite pole (|1 - f m/3| ~ 3e-4) a Python complex's
        # last-bit difference in lambda* is amplified about 3000-fold,
        # beyond 1e-13
        for k, e in enumerate(eps_c):
            one = eff.mg_effective(eps_m, e, f, validity_constant=c)
            assert abs(grid.gamma_star[k] - one.gamma_star) <= 1e-13 * abs(one.gamma_star)
            assert abs(grid.margin[k] - one.margin) <= 1e-13 * max(1.0, abs(one.margin))
            assert grid.remainder_scale[k] == pytest.approx(one.remainder_scale, rel=1e-13)
            assert grid.valid[k] == one.valid
            assert grid.f == one.f

    @pytest.mark.parametrize("bad, error", [
        (-2.0 + 0.0j, PoleError),                 # the Frohlich point, lam = 1/6
        (1.0 + 0.0j, DegenerateContrastError),    # eps_c = eps_m
        (-7.0 / 3.0 + 0.0j, ResonantCompositeError),  # f m / 3 = 1 at f = 0.1
    ], ids=["frohlich-pole", "zero-contrast", "composite-pole"])
    @pytest.mark.parametrize("where", [0, 57, 199])
    def test_one_bad_point_raises_like_scalar(self, bad, error, where):
        with pytest.raises(error):
            eff.mg_effective(1.0, bad, 0.1)
        eps_c = _lossy_grid()
        eps_c[where] = bad
        with pytest.raises(error):
            eff.mg_effective(1.0, eps_c, 0.1)

    def test_on_the_spectrum_remainder_is_unbounded(self):
        # eps_inf = 1e300 puts lambda* on the degree-0 point 1/2: dist = 0
        eps_c = np.array([1e300 + 0j, 4.0 + 0j])
        et = eff.mg_effective(1.0, eps_c, 0.1)
        assert et.remainder_scale[0] == math.inf and math.isfinite(et.remainder_scale[1])
        assert eff.mg_effective(1.0, 1e300 + 0j, 0.1).remainder_scale == math.inf


class TestPeriodicRegularPart:
    def test_inversion_symmetry(self):
        x = [0.11, 0.23, 0.31]
        a = eff.periodic_regular_part(x)
        b = eff.periodic_regular_part([-v for v in x])
        assert abs(a - b) < 1e-13

    def test_alpha_independence(self):
        x = [0.1, 0.05, -0.2]
        a = eff.periodic_regular_part(x, alpha=math.sqrt(math.pi))
        b = eff.periodic_regular_part(x, alpha=2.0)
        assert abs(a - b) < 1e-11

    def test_quadratic_coefficient(self):
        r0 = eff.periodic_regular_part([0.0, 0.0, 0.0])
        coefs = []
        for axis in range(3):
            ts = np.linspace(1e-3, 5e-2, 10)
            vals = []
            for t in ts:
                x = np.zeros(3)
                x[axis] = t
                vals.append(eff.periodic_regular_part(x, certify=False) - r0)
            coefs.append(np.polyfit(ts**2, vals, 1)[0])
        for c in coefs:
            assert abs(c - (-1.0 / 6.0)) < 0.02 / 6.0
        assert max(coefs) - min(coefs) < 0.01 / 6.0

    def test_laplacian(self):
        h = 1e-3
        x0 = np.array([0.07, -0.04, 0.1])
        lap = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            lap += (eff.periodic_regular_part(x0 + e, certify=False)
                    + eff.periodic_regular_part(x0 - e, certify=False)
                    - 2 * eff.periodic_regular_part(x0, certify=False)) / h**2
        assert abs(lap - (-1.0)) < 1e-3

    def test_out_of_cell(self):
        with pytest.raises(DomainError):
            eff.periodic_regular_part([0.6, 0.0, 0.0])

    @pytest.mark.parametrize("x", [[math.nan, 0.0, 0.0], [0.1, math.inf, 0.0], [0.1, 0.0],
                                   [0.1, 0.0, 0.0, 0.0], 0.1, [[0.1, 0.0, 0.0]]])
    def test_malformed_point(self, x):
        with pytest.raises(DomainError):
            eff.periodic_regular_part(x)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": 0.0}, {"alpha": -1.0},
        {"m_max": 2.5}, {"m_max": 3.0}, {"m_max": 0}, {"m_max": -1}, {"m_max": True},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_malformed_parameters(self, kwargs):
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            eff.periodic_regular_part([0.1, 0.0, 0.0], **kwargs)

    def test_overflowing_sums_not_certified(self):
        # at this alpha the constant 1/(4 alpha^2) overflows: inf against inf
        # must not pass the certification
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AccuracyError):
            eff.periodic_regular_part([0.1, 0.0, 0.0], alpha=1e-160)

    def test_non_convergent_parameters(self):
        with pytest.raises(AccuracyError):
            eff.periodic_regular_part([0.1, 0.0, 0.0], alpha=25.0, m_max=1)
