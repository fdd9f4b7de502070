import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmonics import specfun
from plasmonics.errors import DomainError, GradedOverflowError
from plasmonics.specfun import Direction, mode_row

from _oracles import (RegimeWarning, bessel_product_small, mp_scalar_harmonic, mp_spherical_jh,
                      mp_vector_harmonics, sphere_quadrature_loop)


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

    @pytest.mark.parametrize("z", [1e-155, 3e-158, 1e-160j, complex(2e-161, 2e-161)])
    def test_subnormal_square_refused(self, z):
        # z*z is subnormal, so the h_1 seed's 1j / (z*z) overflows
        with pytest.raises(DomainError, match="out of double-precision range"):
            specfun.bessel_jh_seq(3, z)

    def test_graded_overflow(self):
        with pytest.raises(GradedOverflowError):
            specfun.bessel_pair(200, 1e-3)


#: more (nmax, z) pairs than the cache holds: real, lossy, lower half-plane,
#: imaginary and large-|z| arguments, degrees 0 to 120
_BESSEL_LADDER = [(0, 0.4), (1, 0.3), (4, 1.7 + 0.2j), (7, 2.5 - 0.8j), (12, 8.0 + 3.0j),
                  (18, 8.9), (18, 1.3j), (25, 40.0 + 0.5j), (43, 30.0), (60, 150.0 + 20.0j),
                  (120, 180.0)]


def _seq_bytes(seqs):
    return [a.tobytes() for a in seqs]


class TestBesselCache:
    """``bessel_jh_seq`` is cached; a cached result must be the computed one."""

    def test_read_only(self):
        for seq in specfun.bessel_jh_seq(5, 1.3 + 0.2j) + specfun.bessel_jh_seq(0, 0.7):
            with pytest.raises(ValueError):
                seq[0] = 1.0

    def test_warm_equals_cold(self):
        cold = []
        for nmax, z in _BESSEL_LADDER:
            specfun._bessel_jh_cached.cache_clear()
            cold.append(_seq_bytes(specfun.bessel_jh_seq(nmax, z)))
        # two rounds over more keys than the cache holds: hits, then evictions
        for _ in range(2):
            for (nmax, z), want in zip(_BESSEL_LADDER, cold):
                assert _seq_bytes(specfun.bessel_jh_seq(nmax, z)) == want
                assert _seq_bytes(specfun.bessel_jh_seq(nmax, np.complex128(z))) == want

    def test_riccati_after_bessel_equals_cold(self):
        for nmax, z in _BESSEL_LADDER:
            specfun._bessel_jh_cached.cache_clear()
            cold = _seq_bytes(specfun.riccati_seq(nmax, z))
            specfun._bessel_jh_cached.cache_clear()
            specfun.bessel_jh_seq(nmax, z)
            assert _seq_bytes(specfun.riccati_seq(nmax, z)) == cold

    @pytest.mark.parametrize("neg, pos", [(complex(-0.0, 1.3), complex(0.0, 1.3)),
                                          (complex(0.7, -0.0), complex(0.7, 0.0)),
                                          (complex(-0.0, -2.1), complex(0.0, -2.1))])
    def test_signed_zero_cache_order(self, neg, pos):
        # -0.0 and 0.0 arguments compare equal and hash alike; each must get
        # its own result whichever was evaluated first
        args = (neg, pos)
        cold = []
        for z in args:
            specfun._bessel_jh_cached.cache_clear()
            cold.append(_seq_bytes(specfun.bessel_jh_seq(6, z)))
        for order in ((0, 1), (1, 0)):
            specfun._bessel_jh_cached.cache_clear()
            for i in order:
                assert _seq_bytes(specfun.bessel_jh_seq(6, args[i])) == cold[i]

    def test_signed_zero_reaches_the_bits(self):
        # why the key keeps the signs: a zero real part's sign changes h
        a = specfun.bessel_jh_seq(6, complex(0.0, 1.3))
        b = specfun.bessel_jh_seq(6, complex(-0.0, 1.3))
        assert a[1].tobytes() != b[1].tobytes()
        assert np.array_equal(a[1], b[1])


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
        val = bessel_product_small("jh", 1, t, t)
        assert abs(val * 3.0 * t - 1.0) < 5e-4
        # i J_1 H_1 leading coefficient -n(n+1)/(2n+1) = -2/3
        val = bessel_product_small("JH", 1, 1e-6, 1e-6)
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
            errs.append(abs(bessel_product_small(kind, n, t, t)
                            - self._exact_product(kind, n, t)))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 2.7

    @pytest.mark.parametrize("kind", ["Jh", "jH", "jh", "JH"])
    def test_residual_order_dipole_degree(self, kind):
        # At n = 1 the first odd (radiative) term of h enters at relative
        # t^3, which the three-term series omits: the residual is O(t^2),
        # not O(t^3).  Pin that behavior so it cannot silently regress.
        ts = [0.1 * 2.0**-k for k in range(6)]
        errs = [abs(bessel_product_small(kind, 1, t, t)
                    - self._exact_product(kind, 1, t)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert 1.9 <= slope <= 2.1

    def test_exact_product_agreement_distinct_args(self):
        t, tt = 0.05, 0.04
        J, _ = specfun.riccati_pair(2, t)
        _, h = specfun.bessel_pair(2, tt)
        exact = 1j * J * h
        appr = bessel_product_small("Jh", 2, t, tt)
        assert abs(appr - exact) < abs(exact) * 5e-3

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            bessel_product_small("jh", 1, 0.5, 0.5)
        with pytest.warns(RegimeWarning):
            bessel_product_small("jh", 1, 0.01, 0.2)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            bessel_product_small("hh", 1, 0.01, 0.01)


class TestHarmonics:
    def test_pole_value(self):
        y = specfun.harmonics_all(1, Direction(0.0, 0.0, 1.0))[0][mode_row(1, 0)]
        assert abs(y - math.sqrt(3.0 / (4.0 * math.pi))) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6),
           vx=st.floats(-1, 1), vy=st.floats(-1, 1), vz=st.floats(-1, 1))
    @example(n=2, vx=0.0, vy=5.96e-8, vz=0.75)  # near the pole, where x + i y is tiny
    def test_tangency(self, n, vx, vy, vz):
        v = np.array([vx, vy, vz])
        if np.linalg.norm(v) < 1e-3:
            v = np.array([0.3, -0.2, 1.0])
        d = Direction.from_vector(v)
        _, U, V = specfun.harmonics_all(n, d)
        u, w = U[mode_row(n, n // 2)], V[mode_row(n, n // 2)]
        x = d.as_array()
        assert abs(np.dot(u, x)) < 1e-13
        assert abs(np.dot(w, x)) < 1e-13

    @pytest.mark.parametrize("scale", [1.0 + 9e-13, 1.0 - 9e-13])
    def test_tangency_off_unit(self, scale):
        # Direction accepts |x| within 1e-12 of 1; projecting out (x.g) x
        # instead of (x.g) / (x.x) x would leave a radial part of about 1e-12
        rng = np.random.default_rng(24)
        for v in rng.normal(size=(8, 3)):
            d = Direction(*(scale * v / np.linalg.norm(v)))
            x = d.as_array()
            _, U, V = specfun.harmonics_all(6, d)
            assert np.max(np.abs(U @ x)) < 1e-13
            assert np.max(np.abs(V @ x)) < 1e-13

    def test_vector_harmonics_match_mpmath(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(12, 3))
        pts = list(pts / np.linalg.norm(pts, axis=1)[:, None])
        for eps in (1e-3, 1e-6, 1e-9):
            z = math.sqrt(1.0 - 1.25 * eps * eps)
            pts += [np.array([eps, 0.5 * eps, z]), np.array([eps, 0.5 * eps, -z])]
        for p in pts:
            _, U, V = specfun.harmonics_all(4, Direction(*p))
            for n in range(1, 5):
                for m in range(-n, n + 1):
                    u, v = mp_vector_harmonics(n, m, p)
                    assert np.max(np.abs(U[mode_row(n, m)] - u)) < 1e-14, (n, m, p)
                    assert np.max(np.abs(V[mode_row(n, m)] - v)) < 1e-14, (n, m, p)

    def test_conjugation_convention(self):
        # conj(Y[n, m]) == Y[n, -m], and likewise for U
        Y, U, _ = specfun.harmonics_all(3, Direction.from_vector([0.3, -0.5, 0.81]))
        plus, minus = mode_row(3, 2), mode_row(3, -2)
        assert abs(np.conj(Y[plus]) - Y[minus]) < 1e-15
        assert np.max(np.abs(np.conj(U[plus]) - U[minus])) < 1e-15

    def test_orthonormality(self):
        nmax = 4
        pts, w = specfun.sphere_quadrature(2 * nmax + 2)
        hs = [specfun.harmonics_all(nmax, Direction.from_vector(p)) for p in pts]
        modes = [(n, m) for n in range(1, nmax + 1) for m in range(-n, n + 1)]
        for a in modes:
            for b in modes:
                want = 1.0 if a == b else 0.0
                ra, rb = mode_row(*a), mode_row(*b)
                yy = sum(wi * h[0][ra] * np.conj(h[0][rb]) for wi, h in zip(w, hs))
                uu = sum(wi * np.dot(h[1][ra], np.conj(h[1][rb])) for wi, h in zip(w, hs))
                uv = sum(wi * np.dot(h[1][ra], np.conj(h[2][rb])) for wi, h in zip(w, hs))
                assert abs(yy - want) < 1e-10
                assert abs(uu - want) < 1e-10
                assert abs(uv) < 1e-10

    @pytest.mark.parametrize("v", [[0.3, -0.5, 0.81], [0.0, 0.0, 1.0], [-0.6, 0.0, -0.8]])
    def test_packed_rows_match_harmonics(self, v):
        # the packed rows are the modes in mode_row order, and a row does not
        # depend on nmax: it equals the same row of harmonics_all(n)
        nmax = 5
        d = Direction.from_vector(v)
        Y, U, V = specfun.harmonics_all(nmax, d)
        size = nmax * (nmax + 2)
        assert Y.shape == (size,) and U.shape == (size, 3) and V.shape == (size, 3)
        rows = [mode_row(n, m) for n in range(1, nmax + 1) for m in range(-n, n + 1)]
        assert rows == list(range(size))
        for n in range(1, nmax + 1):
            Yn, Un, Vn = specfun.harmonics_all(n, d)
            for m in range(-n, n + 1):
                row = mode_row(n, m)
                assert Y[row] == Yn[row]
                assert np.array_equal(U[row], Un[row]) and np.array_equal(V[row], Vn[row])

    def test_packed_arrays_read_only(self):
        d = Direction.from_vector([0.3, -0.5, 0.81])
        Y, U, V = specfun.harmonics_all(3, d)
        u = specfun.harmonics_all(2, d)[1][mode_row(2, 1)]
        for arr in (Y, U, V, u):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("neg, pos", [((-0.0, 0.6, 0.8), (0.0, 0.6, 0.8)),
                                          ((-0.6, -0.0, 0.8), (-0.6, 0.0, 0.8))])
    def test_signed_zero_cache_order(self, neg, pos):
        # -0.0 and 0.0 directions compare equal, so they share a cache entry;
        # the result must not depend on which one was evaluated first
        def evaluate(order):
            specfun.harmonics_all.cache_clear()
            return [specfun.harmonics_all(4, Direction(*v)) for v in order]

        runs = evaluate([neg, pos]) + evaluate([pos, neg])
        first = [a.tobytes() for a in runs[0]]
        for h in runs[1:]:
            assert [a.tobytes() for a in h] == first
        assert Direction(*neg).as_array().tobytes() == Direction(*pos).as_array().tobytes()

    def test_u21_normalized(self):
        pts, w = specfun.sphere_quadrature(8)
        total = 0.0
        for p, wi in zip(pts, w):
            u = specfun.harmonics_all(2, Direction.from_vector(p))[1][mode_row(2, 1)]
            total += wi * np.dot(u, np.conj(u)).real
        assert abs(total - 1.0) < 1e-10

    def test_grid_evaluator_matches_pointwise(self):
        pts, _ = specfun.sphere_quadrature(3)
        grid = specfun.scalar_harmonics_grid(3, pts)
        for i in (0, 7, 19):
            for nm in [(1, 0), (2, -1), (3, 3)]:
                y = specfun.harmonics_all(nm[0], Direction.from_vector(pts[i]))[0][mode_row(*nm)]
                assert abs(grid[nm][i] - y) < 1e-14

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_grid_evaluator_near_poles(self, eps):
        # sin(theta) = eps * sqrt(1.25) would cancel in sqrt(1 - z^2): Y must
        # keep full relative precision for every m, where Y ~ eps^|m|
        z = math.sqrt(1.0 - 1.25 * eps * eps)
        pts = np.array([[eps, 0.5 * eps, z], [eps, 0.5 * eps, -z]])
        grid = specfun.scalar_harmonics_grid(8, pts)
        for (n, m), ys in grid.items():
            for p, y in zip(pts, ys):
                ref = mp_scalar_harmonic(n, m, p)
                assert abs(y - ref) <= 1e-14 * abs(ref), (n, m, p)

    def test_grid_evaluator_matches_mpmath(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(200, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        grid = specfun.scalar_harmonics_grid(8, pts)
        assert len(grid) == 80
        for (n, m), ys in grid.items():
            for p, y in zip(pts, ys):
                assert abs(y - mp_scalar_harmonic(n, m, p)) < 1e-14, (n, m, p)

    def test_sphere_quadrature_matches_pointwise(self):
        for degree in range(3, 31):
            pts, w = specfun.sphere_quadrature(degree)
            ref_pts, ref_w = sphere_quadrature_loop(degree)
            assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w), degree

    def test_direction_validation(self):
        with pytest.raises(DomainError):
            Direction(1.0, 1.0, 0.0)

    def test_nan_direction_refused(self):
        # a NaN norm fails every comparison, so the unit check must be
        # written to fail on it
        with pytest.raises(DomainError):
            Direction(math.nan, 0.0, 0.0)
        with pytest.raises(DomainError):
            Direction.from_vector([math.nan, 0.0, 1.0])
