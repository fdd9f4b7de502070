import math

import numpy as np
import pytest

from plasmonics import media, mie, specfun
from plasmonics.errors import DomainError
from plasmonics.specfun import Direction

from _oracles import (PolarizationTensor, classical_mie_coeffs, classical_mie_extinction,
                      forward_amplitude, riccati_seq_numpy, scattering_coeffs_numpy)


def _pw(d=None, p=None):
    d = Direction(0.0, 0.0, 1.0) if d is None else d
    p = (1.0, 0.0, 0.0) if p is None else p
    return mie.PlaneWave(d, p)


def _oblique_pw():
    d = Direction.from_vector([0.3, -0.2, 0.93])
    p = np.cross(d.as_array(), [0.0, 0.0, 1.0])
    return mie.PlaneWave(d, tuple(p / np.linalg.norm(p)))


def _drude_medium(omega, gamma=0.05, eps_m=1.0):
    drude = media.DrudeParams(1.0, 1.0, gamma)
    return media.MediumPair(eps_m, 1.0, media.drude_permittivity(drude, omega), 1.0)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_geometry_refused(radius):
    with pytest.raises(DomainError):
        mie.SphereGeometry(radius)


class TestScatteringCoeffs:
    def test_zero_contrast(self):
        med = media.MediumPair(1.0, 1.0, 1.0, 1.0)
        c = mie.scattering_coeffs(mie.SphereGeometry(1.0), med, 1.0)
        assert np.max(np.abs(c.s_te)) == 0.0
        assert np.max(np.abs(c.s_tm)) == 0.0

    def test_small_radius_dipole_asymptotics(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.0)
        r = 0.01
        c = mie.scattering_coeffs(mie.SphereGeometry(r), med, 1.0)
        pred = 1j * (2.0 / 3.0) * (med.eps_c - med.eps_m) * r**3 / (2.0 * med.eps_m + med.eps_c)
        assert abs(c.s_tm[1] - pred) < 1e-3 * abs(pred)

    def test_unitarity_lossless(self):
        for mu_c in (1.0, 2.5):
            med = media.MediumPair(1.0, 1.0, 4.0, mu_c)
            c = mie.scattering_coeffs(mie.SphereGeometry(1.0), med, 1.0)
            for n in range(1, c.n_max + 1):
                assert abs(abs(1 + 2 * c.s_te[n]) - 1) < 1e-10
                assert abs(abs(1 + 2 * c.s_tm[n]) - 1) < 1e-10

    def test_coefficient_map_to_classical(self):
        # S_n^TM = -a_n and S_n^TE = -b_n against the textbook recurrences
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.0)
        geom = mie.SphereGeometry(0.8)
        c = mie.scattering_coeffs(geom, med, 1.0, n_max=8)
        oracle = classical_mie_coeffs(med.eps_c, 0.8, 8)
        for n, (a, b) in enumerate(oracle, start=1):
            assert abs(c.s_tm[n] + a) < 1e-13 * max(abs(a), 1e-10)
            assert abs(c.s_te[n] + b) < 1e-13 * max(abs(b), 1e-10)

    def test_decay_at_truncation(self):
        med = media.MediumPair(1.0, 1.0, 4.0 + 0.1j, 1.0)
        c = mie.scattering_coeffs(mie.SphereGeometry(1.0), med, 1.0)
        assert abs(c.s_te[c.n_max]) < 1e-14
        assert abs(c.s_tm[c.n_max]) < 1e-14

    def test_each_sequence_computed_once(self, monkeypatch):
        # four bessel_jh_seq calls per point (two through riccati_seq), but
        # only one recurrence per argument: k_m r and k_c r
        calls = []
        hankel = specfun._hankel1_seq
        monkeypatch.setattr(specfun, "_hankel1_seq", lambda *a: calls.append(a) or hankel(*a))
        specfun._bessel_jh_cached.cache_clear()
        w = 0.6
        mie.scattering_coeffs(mie.SphereGeometry(2.0), _drude_medium(w), w)
        assert len(calls) == 2 and calls[0] != calls[1]


#: (eps_m, mu_m, mu_c) of the host and the particle's permeability
_MEDIA = {
    "nonmagnetic": (1.0, 1.0, 1.0),
    "magnetic": (2.25, 1.0, 1.5 + 0j),
    "lossy-magnetic": (1.0, 1.2, 1.5 + 0.1j),
}


class TestPythonComplexLoops:
    """The degree loops run on Python complex; the numpy-scalar loops they
    replaced are the references, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_MEDIA))
    def test_coeffs_bit_equal_to_numpy_loop(self, kind):
        eps_m, mu_m, mu_c = _MEDIA[kind]
        drude = media.DrudeParams(1.0, 1.0, 0.05)
        for n_max in range(1, 41):
            for radius in (0.3, 4.0):
                geom = mie.SphereGeometry(radius)
                w = np.linspace(0.3, 0.95, 40)[n_max - 1]  # an np.float64, as scans pass
                med = media.MediumPair(eps_m, mu_m, media.drude_permittivity(drude, w), mu_c)
                got = mie.scattering_coeffs(geom, med, w, n_max)
                n, s_te, s_tm, flagged = scattering_coeffs_numpy(geom, med, w, n_max)
                assert (got.n_max, got.flagged) == (n, flagged)
                assert got.s_te.tobytes() == s_te.tobytes()
                assert got.s_tm.tobytes() == s_tm.tobytes()

    def test_riccati_bit_equal_to_numpy_loop(self):
        for n_max in range(1, 41):
            for z in (0.37 * n_max, complex(0.37 * n_max, 0.2), complex(1.5, -3.0),
                      np.complex128(0.8 + 0.1j)):
                got = specfun.riccati_seq(n_max, z)
                want = riccati_seq_numpy(n_max, z)
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_flagged_degree(self):
        # Newton on eps_c for a zero of the degree-1 TM denominator; there the
        # degree is flagged and reported finite, with the reference's bits
        geom = mie.SphereGeometry(0.3)

        def den(eps_c):
            med = media.MediumPair(1.0, 1.0, eps_c, 1.0)
            k_m, k_c = media.wavenumbers(med, 1.0)
            _, hm = specfun.bessel_jh_seq(1, k_m * 0.3)
            _, Hm = specfun.riccati_seq(1, k_m * 0.3)
            jc, _ = specfun.bessel_jh_seq(1, k_c * 0.3)
            Jc, _ = specfun.riccati_seq(1, k_c * 0.3)
            return complex(Jc[1] * hm[1] - eps_c * jc[1] * Hm[1])

        eps_c = -2.0 + 0.01j
        for _ in range(20):
            eps_c -= den(eps_c) * 2e-7 / (den(eps_c + 1e-7) - den(eps_c - 1e-7))
        assert abs(eps_c - (-2.2217 - 0.0612j)) < 1e-4
        med = media.MediumPair(1.0, 1.0, eps_c, 1.0)
        got = mie.scattering_coeffs(geom, med, 1.0)
        _, s_te, s_tm, flagged = scattering_coeffs_numpy(geom, med, 1.0)
        assert got.flagged == flagged == [1]
        assert np.isfinite(got.s_tm[1])
        assert got.s_tm.tobytes() == s_tm.tobytes()
        assert got.s_te.tobytes() == s_te.tobytes()

    @pytest.mark.parametrize("mode", ["series", "dipole"])
    def test_one_wavenumber_per_point(self, mode, monkeypatch):
        # the coefficients carry k_m, so an extinction evaluates k_m and k_c once
        calls = []
        wavenumber = media.wavenumber
        monkeypatch.setattr(media, "wavenumber", lambda *a: calls.append(a) or wavenumber(*a))
        w = np.float64(0.6)
        med = _drude_medium(w)
        mie.extinction(mie.SphereGeometry(0.5), med, w, _pw(), mode=mode)
        assert len(calls) == 2
        coeffs = mie.scattering_coeffs(mie.SphereGeometry(0.5), med, w)
        k_m, _ = media.wavenumbers(med, w)
        assert type(coeffs.k_m) is type(k_m) and coeffs.k_m == k_m


class TestExtinction:
    def test_zero_contrast(self):
        med = media.MediumPair(1.0, 1.0, 1.0, 1.0)
        q = mie.extinction(mie.SphereGeometry(0.5), med, 1.0, _pw())
        assert q == 0.0

    def test_series_vs_classical_oracle(self):
        geom = mie.SphereGeometry(0.8)
        for eps_c in (-2.0 + 0.4j, 4.0 + 0.2j, -1.2 + 0.05j):
            med = media.MediumPair(1.0, 1.0, eps_c, 1.0)
            q = mie.extinction(geom, med, 1.0, _pw())
            ref = classical_mie_extinction(eps_c, 1.0, 0.8, mie.truncation_order(0.8))
            assert abs(q - ref) <= 1e-9 * abs(ref)

    def test_dipole_vs_series_small_radius(self):
        om = 1.0 / math.sqrt(3.0)
        geom = mie.SphereGeometry(0.01 / om)
        for w in np.linspace(0.9 * om, 1.1 * om, 7):
            med = _drude_medium(w)
            qs = mie.extinction(geom, med, w, _pw(), mode="series")
            qd = mie.extinction(geom, med, w, _pw(), mode="dipole")
            assert abs(qs - qd) <= 5e-2 * abs(qs)

    @pytest.mark.parametrize("radius, med", [
        (1e154, media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.0)),   # (k_m r)**3 overflows
        (0.1, media.MediumPair(1.0, 1.0, -2.0 + 0.4j, -2.0)),    # 2 mu_m + mu_c = 0
        (0.1, media.MediumPair(2.0, 1.0, -4.0, 1.0)),            # 2 eps_m + eps_c = 0
        (0.1, media.MediumPair(0.0, 1.0, -2.0 + 0.4j, 1.0)),     # k_m = 0
    ], ids=["overflow", "mu-pole", "eps-pole", "k_m-zero"])
    def test_dipole_out_of_range_refused(self, radius, med):
        # Python complex raises where numpy scalars gave inf or nan: refused
        # with a typed error instead
        with pytest.raises(DomainError):
            mie.extinction(mie.SphereGeometry(radius), med, 0.6, _pw(), mode="dipole")

    def test_nonnegative_for_absorbing(self):
        geom = mie.SphereGeometry(0.2)
        for w in np.linspace(0.3, 0.9, 25):
            med = _drude_medium(w, gamma=0.1)
            q = mie.extinction(geom, med, w, _pw())
            assert q >= -1e-12

    def test_truncation_reciprocity(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.3j, 1.0)
        geom = mie.SphereGeometry(0.9)
        base = mie.truncation_order(0.9)
        q1 = mie.extinction(geom, med, 1.0, _pw(), n_max=base)
        q2 = mie.extinction(geom, med, 1.0, _pw(), n_max=base + 4)
        assert abs(q1 - q2) <= 1e-12 * abs(q1)

    @pytest.mark.parametrize("r, mu_c", [(0.05, 1.0), (1.0, 1.0), (10.0, 1.0), (1.0, 1.3)])
    def test_classical_coefficient_sum(self, r, mu_c):
        # C_ext = (2 pi / k^2) sum (2n+1) Re(a_n + b_n), a_n = -S_n^TM, b_n = -S_n^TE
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, mu_c)
        geom = mie.SphereGeometry(r)
        c = mie.scattering_coeffs(geom, med, 1.0)
        k_m, _ = media.wavenumbers(med, 1.0)
        n = np.arange(1, c.n_max + 1)
        ref = 2.0 * math.pi / k_m.real**2 * np.sum((2 * n + 1) * (-c.s_tm[1:] - c.s_te[1:]).real)
        for pw in (_pw(), _oblique_pw()):
            q = mie.extinction(geom, med, 1.0, pw)
            assert abs(q - ref) <= 1e-13 * abs(ref)

    def test_rotation_invariance(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.3)
        geom = mie.SphereGeometry(0.8)
        d0 = Direction.from_vector([0.3, -0.2, 0.93])
        p0 = np.cross(d0.as_array(), [0.0, 0.0, 1.0])
        p0 /= np.linalg.norm(p0)
        base = mie.extinction(geom, med, 1.0, mie.PlaneWave(d0, tuple(p0)))
        rng = np.random.default_rng(11)
        for _ in range(3):
            th = rng.uniform(0, 2 * math.pi)
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
            R = np.eye(3) + math.sin(th) * K + (1 - math.cos(th)) * (K @ K)
            q = mie.extinction(geom, med, 1.0,
                               mie.PlaneWave(Direction.from_vector(R @ d0.as_array()),
                                             tuple(R @ p0)))
            assert abs(q - base) <= 1e-10 * abs(base)


class TestAmplitude:
    def test_zero_contrast(self):
        med = media.MediumPair(1.0, 1.0, 1.0, 1.0)
        a = mie.plane_wave_amplitude(mie.SphereGeometry(0.5), med, 1.0, _pw(),
                                     Direction.from_vector([1.0, 1.0, 0.2]))
        assert np.max(np.abs(a)) == 0.0

    def test_transversality(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.0)
        xhat = Direction.from_vector([0.5, 0.4, 0.76])
        a = mie.plane_wave_amplitude(mie.SphereGeometry(0.8), med, 1.0, _pw(), xhat)
        assert abs(np.dot(a, xhat.as_array())) <= 1e-10 * np.max(np.abs(a))

    def test_forward_amplitude_matches_quasistatic_dipole(self):
        om = 0.6
        med = _drude_medium(om)
        r = 0.02
        a_mie = mie.plane_wave_amplitude(mie.SphereGeometry(r), med, om, _pw(),
                                         Direction(0.0, 0.0, 1.0))
        m_eps = PolarizationTensor.ball(media.lambda_star(med.eps_c, med.eps_m), r)
        m_mu = PolarizationTensor.zero()
        a_qs = forward_amplitude(Direction(0.0, 0.0, 1.0), np.array([1.0, 0, 0]),
                                 om, med, m_eps, m_mu)
        rel = np.max(np.abs(a_mie - a_qs)) / np.max(np.abs(a_qs))
        assert rel <= 5 * abs(om * r)


def _mode_terms(geom, med, omega, pw, xhat):
    # per-mode terms of the amplitude series, each mode read from
    # harmonics_all(n) of its own degree n, not from the n_max arrays
    c = mie.scattering_coeffs(geom, med, omega)
    k_m, _ = media.wavenumbers(med, omega)
    p = pw.p_vector()
    terms = {}
    for n in range(1, c.n_max + 1):
        _, Ud, Vd = specfun.harmonics_all(n, pw.direction)
        _, Ux, Vx = specfun.harmonics_all(n, xhat)
        for m in range(-n, n + 1):
            row = specfun.mode_row(n, m)
            ud, vd, ux, vx = Ud[row], Vd[row], Ux[row], Vx[row]
            wte = np.dot(np.conj(vd), p)
            wtm = np.dot(np.conj(ud), p)
            terms[(n, m)] = (4.0 * math.pi) ** 2 / k_m * 1j * (c.s_te[n] * wte * vx
                                                               + c.s_tm[n] * wtm * ux)
    return terms


class TestModeSum:
    """The packed amplitude contraction against a per-mode reference loop."""

    @pytest.mark.parametrize("r", [0.05, 1.0, 10.0])
    def test_off_forward_every_mode(self, r):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.3)
        geom = mie.SphereGeometry(r)
        pw = _oblique_pw()
        xhat = Direction.from_vector([0.5, 0.4, -0.76])
        terms = _mode_terms(geom, med, 1.0, pw, xhat)
        assert all(np.any(t != 0) for t in terms.values())
        ref = sum(terms.values())
        a = mie.plane_wave_amplitude(geom, med, 1.0, pw, xhat)
        assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_forward_only_m_pm1(self):
        med = media.MediumPair(1.0, 1.0, -2.0 + 0.4j, 1.0)
        geom = mie.SphereGeometry(1.0)
        pw = _pw()
        terms = _mode_terms(geom, med, 1.0, pw, pw.direction)
        assert {nm for nm, t in terms.items() if np.any(t != 0)} == \
            {(n, m) for n, m in terms if abs(m) == 1}
        ref = sum(terms.values())
        a = mie.plane_wave_amplitude(geom, med, 1.0, pw, pw.direction)
        assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestScan:
    def test_flat_zero_no_peaks(self):
        med = media.MediumPair(1.0, 1.0, 1.0, 1.0)
        spec = mie.scan_spectrum(mie.SphereGeometry(0.1), lambda w: med,
                                 np.linspace(0.4, 0.7, 31), _pw())
        assert spec.peaks == []
        assert np.max(np.abs(spec.qext)) == 0.0

    def test_drude_dipole_peak_location(self):
        drude = media.DrudeParams(1.0, 1.0, 0.02)
        preset = media.MaterialPreset(drude)
        spec = mie.scan_spectrum(mie.SphereGeometry(0.02), preset.medium_at,
                                 np.linspace(0.45, 0.70, 160), _pw())
        assert len(spec.peaks) == 1
        assert abs(spec.peaks[0].omega - 1.0 / math.sqrt(3.0)) < 5e-3

    def test_fwhm_monotone_in_damping(self):
        widths = []
        for gamma in (0.02, 0.04, 0.08):
            preset = media.MaterialPreset(media.DrudeParams(1.0, 1.0, gamma))
            spec = mie.scan_spectrum(mie.SphereGeometry(0.02), preset.medium_at,
                                     np.linspace(0.40, 0.75, 240), _pw())
            assert len(spec.peaks) == 1 and spec.peaks[0].fwhm is not None
            widths.append(spec.peaks[0].fwhm)
        assert widths[0] < widths[1] < widths[2]

    def test_jobs_deterministic(self):
        preset = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.05))
        om = np.linspace(0.4, 0.7, 41)
        s1 = mie.scan_spectrum(mie.SphereGeometry(0.05), preset.medium_at, om, _pw(), jobs=1)
        s4 = mie.scan_spectrum(mie.SphereGeometry(0.05), preset.medium_at, om, _pw(), jobs=4)
        assert np.array_equal(s1.qext, s4.qext)

    @pytest.mark.parametrize("mode, radius", [("series", 1.5), ("dipole", 0.05)])
    def test_points_are_python_floats(self, mode, radius):
        # each point is the extinction at the Python float of its grid value
        preset = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.05), eps_m=2.25)
        om = np.linspace(0.3, 0.9, 23)
        geom = mie.SphereGeometry(radius)
        spec = mie.scan_spectrum(geom, preset.medium_at, om, _pw(), mode=mode)
        want = [mie.extinction(geom, preset.medium_at(float(w)), float(w), _pw(), mode=mode)
                for w in om]
        assert spec.qext.tobytes() == np.array(want).tobytes()

    def test_grid_validation(self):
        med = media.MediumPair(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            mie.scan_spectrum(mie.SphereGeometry(0.1), lambda w: med, [0.5, 0.6], _pw())
        with pytest.raises(DomainError):
            mie.scan_spectrum(mie.SphereGeometry(0.1), lambda w: med, [0.5, 0.5, 0.6], _pw())


class TestExports:
    def test_csv_format(self, tmp_path):
        spec = mie.Spectrum(np.array([0.4, 0.5, 0.6]), np.array([0.0, 1.0, 0.5]), [])
        path = tmp_path / "s.csv"
        mie.write_spectrum_csv(spec, path)
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "omega,qext"
        assert lines[1] == "0.40000000000000002,0"
        assert "\r" not in text

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_csv_refuses_non_finite(self, tmp_path, bad):
        spec = mie.Spectrum(np.array([0.4, 0.5, 0.6]), np.array([0.0, bad, 0.5]), [])
        path = tmp_path / "s.csv"
        with pytest.raises(DomainError, match="s.csv"):
            mie.write_spectrum_csv(spec, path)
        assert not path.exists()

    def test_peaks_payload(self):
        spec = mie.Spectrum(np.array([0.4, 0.5, 0.6]), np.array([0.0, 1.0, 0.5]),
                            [mie.Peak(0.5, 1.0, None)])
        payload = mie.peaks_json_payload(spec)
        assert payload == {"peaks": [{"omega": 0.5, "q": 1.0, "fwhm": None}]}

    def test_plane_wave_validation(self):
        with pytest.raises(DomainError):
            mie.PlaneWave(Direction(0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            mie.PlaneWave(Direction(0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            mie.SphereGeometry(-1.0)
