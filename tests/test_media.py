import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmonics import cli, media
from plasmonics.errors import ConfigError, DegenerateContrastError, DomainError


class TestDrude:
    def test_frohlich_value(self):
        p = media.DrudeParams(eps_inf=1.0, omega_p=1.0, gamma_damp=0.0)
        eps = media.drude_permittivity(p, 1.0 / math.sqrt(3.0))
        assert abs(eps - (-2.0)) < 1e-14

    def test_at_plasma_frequency(self):
        p = media.DrudeParams(eps_inf=3.5, omega_p=2.0, gamma_damp=0.0)
        assert abs(media.drude_permittivity(p, 2.0) - (3.5 - 1.0)) < 1e-14

    def test_extended_precision_formula(self):
        p = media.DrudeParams(1.0, 1.0, 0.05)
        got = media.drude_permittivity(p, 0.5)
        with mp.workdps(40):
            w = mp.mpf("0.5")
            ref = 1 - 1 / (w * (w + 1j * mp.mpf("0.05")))
            ref = complex(ref)
        assert abs(got - ref) < 1e-15 * abs(ref)

    def test_domain(self):
        p = media.DrudeParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            media.drude_permittivity(p, 0.0)
        with pytest.raises(DomainError):
            media.DrudeParams(1.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            media.DrudeParams(1.0, 1.0, -0.1)

    @pytest.mark.parametrize("omega_p, gamma", [(math.nan, 0.0), (1.0, math.nan)])
    def test_nan_parameters_refused(self, omega_p, gamma):
        with pytest.raises(DomainError):
            media.DrudeParams(1.0, omega_p, gamma)

    @pytest.mark.parametrize("field, bad", [("eps_inf", math.nan), ("eps_inf", math.inf),
                                            ("eps_inf", -math.inf), ("omega_p", math.inf),
                                            ("gamma_damp", math.inf)])
    def test_non_finite_parameters_refused(self, field, bad):
        with pytest.raises(DomainError):
            media.DrudeParams(**{field: bad})

    @pytest.mark.parametrize("omega_p", [1e155, 1e300])
    def test_unsquarable_omega_p_refused(self, omega_p):
        with pytest.raises(DomainError, match="omega_p"):
            media.DrudeParams(1.0, omega_p, 0.0)

    @pytest.mark.parametrize("omega", [1e-160, np.float64(1e-160), np.array([0.3, 1e-160]),
                                       1e-200, np.float64(1e-200), np.array([0.3, 1e-200])])
    def test_overflowing_permittivity_refused(self, omega):
        # at 1e-200, omega**2 underflows to 0: numpy divides to inf, and a
        # Python float raises ZeroDivisionError, which must not escape
        p = media.DrudeParams(1.0, 1.0, 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"), \
                pytest.raises(DomainError, match="Drude permittivity"):
            media.drude_permittivity(p, omega)

    def test_nan_refused(self):
        p = media.DrudeParams(1.0, 1.0, 0.02)
        with pytest.raises(DomainError):
            media.drude_permittivity(p, math.nan)
        with pytest.raises(DomainError):
            media.drude_permittivity(p, np.array([0.3, math.nan, 0.6]))

    @pytest.mark.parametrize("bad", [0.0, -0.2])
    def test_array_domain(self, bad):
        p = media.DrudeParams(1.0, 1.0, 0.02)
        with pytest.raises(DomainError):
            media.drude_permittivity(p, np.array([0.3, bad, 0.6]))

    def test_array_matches_scalar(self):
        # numpy's complex division is not Python's, so the two differ in
        # the last bits only
        p = media.DrudeParams(1.3, 1.1, 0.05)
        grid = np.linspace(0.05, 2.0, 97)
        got = media.drude_permittivity(p, grid)
        assert got.shape == grid.shape and got.dtype == complex
        want = np.array([media.drude_permittivity(p, float(w)) for w in grid])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert type(media.drude_permittivity(p, 0.6)) is complex

    @settings(max_examples=50, deadline=None)
    @given(om=st.floats(1e-3, 10.0), gam=st.floats(1e-6, 1.0))
    def test_imag_sign(self, om, gam):
        p = media.DrudeParams(1.0, 1.0, gam)
        assert media.drude_permittivity(p, om).imag > 0.0
        p0 = media.DrudeParams(1.0, 1.0, 0.0)
        assert media.drude_permittivity(p0, om).imag == 0.0


class TestContrasts:
    def test_frohlich_contrast(self):
        c = media.contrasts(media.MediumPair(1.0, 1.0, -2.0, 1.0))
        assert abs(c.lambda_eps - (-1.0 / 6.0)) < 1e-15
        assert c.nonmagnetic

    def test_nonmagnetic_sentinel(self):
        c = media.contrasts(media.MediumPair(1.0, 2.0, 3.0, 2.0))
        assert c.lambda_mu is None

    def test_complex_value(self):
        c = media.contrasts(media.MediumPair(1.0, 1.0, -2.0 + 0.2j, 1.0))
        assert abs(c.lambda_eps - (-1.0 + 0.2j) / (2.0 * (3.0 - 0.2j))) < 1e-15

    def test_degenerate(self):
        with pytest.raises(DegenerateContrastError):
            media.contrasts(media.MediumPair(2.0, 1.0, 2.0, 3.0))

    @pytest.mark.parametrize("mu_c", [1.0, 2.0])
    def test_array_matches_scalar(self, mu_c):
        eps_c = media.drude_permittivity(media.DrudeParams(1.0, 1.0, 0.05),
                                         np.linspace(0.1, 0.95, 61))
        got = media.contrasts(media.MediumPair(1.5, 1.0, eps_c, mu_c))
        want = [media.contrasts(media.MediumPair(1.5, 1.0, complex(e), mu_c)) for e in eps_c]
        np.testing.assert_allclose(got.lambda_eps, [c.lambda_eps for c in want],
                                   rtol=1e-12, atol=0)
        assert got.lambda_mu == want[0].lambda_mu
        assert type(want[0].lambda_eps) is complex

    def test_degenerate_array_element(self):
        eps_c = np.array([-2.0 + 0.1j, 1.5 + 0.0j, 0.5 + 0.1j])
        with pytest.raises(DegenerateContrastError):
            media.contrasts(media.MediumPair(1.5, 1.0, eps_c, 2.0))

    @settings(max_examples=50, deadline=None)
    @given(ar=st.floats(-5, 5), ai=st.floats(0, 2), br=st.floats(-5, 5))
    def test_involution(self, ar, ai, br):
        eps_c = complex(ar, ai)
        eps_m = complex(br, 0.0)
        if eps_c == eps_m:
            return
        lam = media.contrasts(media.MediumPair(eps_m, 1.0, eps_c, 2.0)).lambda_eps
        lam_swapped = media.contrasts(media.MediumPair(eps_c, 1.0, eps_m, 2.0)).lambda_eps
        assert lam_swapped == -lam

    def test_lambda_star_pole_location(self):
        # the sign-normalized contrast hits 1/6 exactly at eps_c = -2 eps_m
        assert abs(media.lambda_star(-2.0, 1.0) - 1.0 / 6.0) < 1e-15

    def test_lambda_star_array(self):
        eps_c = media.drude_permittivity(media.DrudeParams(1.0, 1.0, 0.05),
                                         np.linspace(0.1, 0.95, 61))
        got = media.lambda_star(eps_c, 1.5)
        np.testing.assert_allclose(got, [media.lambda_star(complex(e), 1.5) for e in eps_c],
                                   rtol=1e-15, atol=0)
        assert type(media.lambda_star(complex(eps_c[0]), 1.5)) is complex
        with pytest.raises(DegenerateContrastError):
            media.lambda_star(np.array([-2.0 + 0.1j, 1.5 + 0.0j]), 1.5)


def _symmetrized(spectrum):
    return list(spectrum) + [-s for s in spectrum]


class TestSpectralDistance:
    def test_symmetric_hit(self):
        spec = _symmetrized(media.ball_np_spectrum(10))
        assert media.spectral_distance(-1.0 / 6.0, spec) == 0.0

    def test_plain(self):
        assert abs(media.spectral_distance(0.2, [1 / 6, 1 / 10]) - 1.0 / 30.0) < 1e-15

    def test_vertical_offset(self):
        spec = _symmetrized(media.ball_np_spectrum(10))
        assert abs(media.spectral_distance(-1 / 6 + 0.01j, spec) - 0.01) < 1e-15

    def test_empty(self):
        with pytest.raises(DomainError):
            media.spectral_distance(0.1, [])

    def test_array_matches_scalar(self):
        spec = _symmetrized(media.ball_np_spectrum(10))
        lam = np.array([-1.0 / 6.0, 0.2 + 0.1j, 0.03 - 0.4j, 2.0])
        got = media.spectral_distance(lam, spec)
        assert got.shape == lam.shape
        assert got.tolist() == [media.spectral_distance(complex(v), spec) for v in lam]
        assert type(media.spectral_distance(0.2, spec)) is float

    @settings(max_examples=50, deadline=None)
    @given(lr=st.floats(-2, 2), li=st.floats(-1, 1))
    def test_metric_properties(self, lr, li):
        spec = _symmetrized([0.5, 1 / 6, 1 / 10])
        d = media.spectral_distance(complex(lr, li), spec)
        assert d >= 0.0
        if d == 0.0:
            assert any(abs(complex(lr, li) - s) == 0 for s in spec)


class TestWavenumbers:
    def test_branch(self):
        k = media.wavenumber(-2.0 + 0.0j, 1.0, 1.0)
        assert k.imag >= 0.0
        k2 = media.wavenumber(4.0, 1.0, 2.0)
        assert abs(k2 - 4.0) < 1e-15

    def test_pair(self):
        m = media.MediumPair(1.0, 1.0, -2.0 + 0.1j, 1.0)
        km, kc = media.wavenumbers(m, 0.7)
        assert abs(km - 0.7) < 1e-15
        assert kc.imag > 0.0


class TestPresets:
    @pytest.mark.parametrize("field", ["mu_c", "eps_m", "mu_m"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_host_refused(self, field, bad):
        with pytest.raises(DomainError):
            media.MaterialPreset(media.DrudeParams(), **{field: bad})

    @pytest.mark.parametrize("key", ["eps_inf", "omega_p", "gamma", "mu_c_re", "mu_c_im",
                                     "eps_m", "mu_m"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_number(self, tmp_path, key, bad):
        # the run config is the one reader of the material keys: each of them
        # is refused when non-finite, naming its section and key
        section = "host" if key in ("eps_m", "mu_m") else "drude"
        f = tmp_path / "bad3.ini"
        f.write_text(f"[{section}]\n{key} = {bad}\n")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: '{bad}' is not a finite"):
            cli.RunConfig.load(str(f))
