import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmonics import specfun
from plasmonics.errors import DomainError, GradedOverflowError, RegimeWarning
from plasmonics.specfun import Direction, ModeIndex

from _oracles import mp_spherical_jh


class TestBesselPair:
    def test_j0_closed_form(self):
        j0, _ = specfun.bessel_pair(0, 1.0)
        assert abs(j0 - cmath.sin(1.0) / 1.0) < 1e-15

    def test_small_argument_limits(self):
        # j_1(t)/t -> 1/3 and h_1(t) t^2 -> -i
        t = 1e-5
        j1, h1 = specfun.bessel_pair(1, t)
        assert abs(j1 / t - 1.0 / 3.0) < 1e-9
        assert abs(h1 * t * t - (-1j)) < 1e-9

    def test_against_high_precision_oracle(self):
        # frozen from the 50-digit oracle (_oracles.mp_spherical_jh)
        j_ref = 0.0012755268915548847 + 0.0028231928670882462j
        h_ref = -14.86005016074574 - 3.3206351412109942j
        j, h = specfun.bessel_pair(5, 2.0 + 0.5j)
        assert abs(j - j_ref) / abs(j_ref) < 1e-12
        assert abs(h - h_ref) / abs(h_ref) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 3, 10, 40, 120, 200])
    @pytest.mark.parametrize("z", [1e-3, 0.3 + 0.1j, 2.0 + 0.5j, 10.0, 30.0 + 20.0j, 100.0])
    def test_oracle_grid(self, n, z):
        try:
            j, h = specfun.bessel_pair(n, z)
        except GradedOverflowError:
            assert n / abs(z) > 30  # only extreme order/argument ratios overflow
            return
        jm, hm = mp_spherical_jh(n, z, dps=60 + n)
        assert abs(j - jm) <= 1e-12 * abs(jm) + 1e-300
        assert abs(h - hm) <= 1e-12 * abs(hm)

    def test_small_argument_consistency(self):
        # |j_n(t) - t^n/(2n+1)!!| relative error bounded by ~t^2/(2(2n+3))
        for n in [1, 2, 5]:
            t = 0.01
            j, _ = specfun.bessel_pair(n, t)
            lead = t**n / math.prod(range(1, 2 * n + 2, 2))
            rel = abs(j - lead) / lead
            assert rel <= 2 * t**2 / (2 * (2 * n + 3)) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.bessel_pair(1, 0.0)
        with pytest.raises(DomainError):
            specfun.bessel_pair(-1, 1.0)
        with pytest.raises(DomainError):
            specfun.bessel_pair(201, 1.0)

    def test_graded_overflow(self):
        with pytest.raises(GradedOverflowError):
            specfun.bessel_pair(200, 1e-3)


class TestRiccatiPair:
    def test_wronskian_value(self):
        # j_n H_n - h_n J_n = i/z
        j, h = specfun.bessel_pair(3, 2.0)
        J, H = specfun.riccati_pair(3, 2.0)
        assert abs(j * H - h * J - 0.5j) < 1e-14

    def test_small_argument_limit(self):
        t = 1e-5
        J1, _ = specfun.riccati_pair(1, t)
        assert abs(J1 / t - 2.0 / 3.0) < 1e-9

    def test_wronskian_residual_complex(self):
        # the identity is analytic, so it holds just below the axis too
        assert specfun.wronskian_residual(4, 1.5 - 0.2j) < 1e-12
        assert specfun.wronskian_residual(4, 1.5 + 0.2j) < 1e-13

    def test_wronskian_grid(self):
        worst = 0.0
        for n in range(0, 21):
            for zm in np.geomspace(0.1, 50, 8):
                for ang in np.linspace(0.0, math.pi / 2, 4):
                    z = zm * cmath.exp(1j * ang)
                    worst = max(worst, specfun.wronskian_residual(n, z) * abs(z))
        assert worst <= 1e-11

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 20),
           zm=st.floats(0.1, 50.0),
           ang=st.floats(0.0, math.pi / 2))
    def test_wronskian_property(self, n, zm, ang):
        z = zm * cmath.exp(1j * ang)
        assert specfun.wronskian_residual(n, z) <= 1e-11 * abs(1j / z)


class TestBesselProductSmall:
    def test_leading_terms(self):
        t = 0.01
        # i j_1 h_1 = 1/(2n+1) (t/tt)^n / tt * (1 + O(t^2)) at the leading order
        val = specfun.bessel_product_small("jh", 1, t, t)
        assert abs(val * 3.0 * t - 1.0) < 5e-4
        # i J_1 H_1 leading coefficient -n(n+1)/(2n+1) = -2/3
        val = specfun.bessel_product_small("JH", 1, 1e-6, 1e-6)
        assert abs(val * 1e-6 - (-2.0 / 3.0)) < 1e-9

    @staticmethod
    def _exact_product(kind, n, t):
        j, h = specfun.bessel_pair(n, t)
        J, H = specfun.riccati_pair(n, t)
        return {"Jh": 1j * J * h, "jH": 1j * j * H,
                "jh": 1j * j * h, "JH": 1j * J * H}[kind]

    @pytest.mark.parametrize("kind", ["Jh", "jH", "jh", "JH"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_residual_order(self, kind, n):
        errs = []
        ts = [0.1 * 2.0**-k for k in range(6)]
        for t in ts:
            errs.append(abs(specfun.bessel_product_small(kind, n, t, t)
                            - self._exact_product(kind, n, t)))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 2.7

    @pytest.mark.parametrize("kind", ["Jh", "jH", "jh", "JH"])
    def test_residual_order_dipole_degree(self, kind):
        # At n = 1 the first odd (radiative) term of h enters at relative
        # t^3, which the three-term series omits: the residual is O(t^2),
        # not O(t^3).  Pin that behavior so it cannot silently regress.
        ts = [0.1 * 2.0**-k for k in range(6)]
        errs = [abs(specfun.bessel_product_small(kind, 1, t, t)
                    - self._exact_product(kind, 1, t)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert 1.9 <= slope <= 2.1

    def test_exact_product_agreement_distinct_args(self):
        t, tt = 0.05, 0.04
        J, _ = specfun.riccati_pair(2, t)
        _, h = specfun.bessel_pair(2, tt)
        exact = 1j * J * h
        appr = specfun.bessel_product_small("Jh", 2, t, tt)
        assert abs(appr - exact) < abs(exact) * 5e-3

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            specfun.bessel_product_small("jh", 1, 0.5, 0.5)
        with pytest.warns(RegimeWarning):
            specfun.bessel_product_small("jh", 1, 0.01, 0.2)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            specfun.bessel_product_small("hh", 1, 0.01, 0.01)


class TestHarmonics:
    def test_pole_value(self):
        y, _, _ = specfun.harmonics(ModeIndex(1, 0), Direction(0.0, 0.0, 1.0))
        assert abs(y - math.sqrt(3.0 / (4.0 * math.pi))) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6),
           vx=st.floats(-1, 1), vy=st.floats(-1, 1), vz=st.floats(-1, 1))
    @example(n=2, vx=0.0, vy=5.96e-8, vz=0.75)  # near the pole sqrt(1 - ct^2) cancels
    def test_tangency(self, n, vx, vy, vz):
        v = np.array([vx, vy, vz])
        if np.linalg.norm(v) < 1e-3:
            v = np.array([0.3, -0.2, 1.0])
        d = Direction.from_vector(v)
        m = n // 2
        _, u, w = specfun.harmonics(ModeIndex(n, m), d)
        x = d.as_array()
        assert abs(np.dot(u, x)) < 1e-13
        assert abs(np.dot(w, x)) < 1e-13

    def test_conjugation_convention(self):
        d = Direction.from_vector([0.3, -0.5, 0.81])
        y1, u1, v1 = specfun.harmonics(ModeIndex(3, 2), d)
        y2, u2, v2 = specfun.harmonics(ModeIndex(3, -2), d)
        assert abs(np.conj(y1) - y2) < 1e-15
        assert np.max(np.abs(np.conj(u1) - u2)) < 1e-15
        yc, uc, vc = specfun.harmonics(ModeIndex(3, 2), d, conjugate=True)
        assert abs(yc - y2) < 1e-15

    def test_orthonormality(self):
        nmax = 4
        pts, w = specfun.sphere_quadrature(2 * nmax + 2)
        hs = [specfun.harmonics_all(nmax, Direction.from_vector(p)) for p in pts]
        modes = [(n, m) for n in range(1, nmax + 1) for m in range(-n, n + 1)]
        for a in modes:
            for b in modes:
                want = 1.0 if a == b else 0.0
                yy = sum(wi * h[0][a] * np.conj(h[0][b]) for wi, h in zip(w, hs))
                uu = sum(wi * np.dot(h[1][a], np.conj(h[1][b])) for wi, h in zip(w, hs))
                uv = sum(wi * np.dot(h[1][a], np.conj(h[2][b])) for wi, h in zip(w, hs))
                assert abs(yy - want) < 1e-10
                assert abs(uu - want) < 1e-10
                assert abs(uv) < 1e-10

    def test_u21_normalized(self):
        pts, w = specfun.sphere_quadrature(8)
        total = 0.0
        for p, wi in zip(pts, w):
            _, u, _ = specfun.harmonics(ModeIndex(2, 1), Direction.from_vector(p))
            total += wi * np.dot(u, np.conj(u)).real
        assert abs(total - 1.0) < 1e-10

    def test_grid_evaluator_matches_pointwise(self):
        pts, _ = specfun.sphere_quadrature(3)
        grid = specfun.scalar_harmonics_grid(3, pts)
        for i in (0, 7, 19):
            for nm in [(1, 0), (2, -1), (3, 3)]:
                y, _, _ = specfun.harmonics(ModeIndex(*nm), Direction.from_vector(pts[i]))
                assert abs(grid[nm][i] - y) < 1e-14

    def test_mode_index_validation(self):
        with pytest.raises(DomainError):
            ModeIndex(0, 0)
        with pytest.raises(DomainError):
            ModeIndex(2, 3)
        with pytest.raises(DomainError):
            Direction(1.0, 1.0, 0.0)
