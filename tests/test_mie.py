import math

import numpy as np
import pytest

from plasmonics import media, mie
from plasmonics.errors import DomainError
from plasmonics.specfun import Direction

from _oracles import classical_mie_coeffs, classical_mie_extinction


def _pw(d=None, p=None):
    d = Direction(0.0, 0.0, 1.0) if d is None else d
    p = (1.0, 0.0, 0.0) if p is None else p
    return mie.PlaneWave(d, p)


def _drude_medium(omega, gamma=0.05, eps_m=1.0):
    drude = media.DrudeParams(1.0, 1.0, gamma)
    return media.MediumPair(eps_m, 1.0, media.drude_permittivity(drude, omega), 1.0)


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
        from plasmonics import quasistatic as qs
        om = 0.6
        med = _drude_medium(om)
        r = 0.02
        a_mie = mie.plane_wave_amplitude(mie.SphereGeometry(r), med, om, _pw(),
                                         Direction(0.0, 0.0, 1.0))
        m_eps = qs.ball_tensor_from_media(med, r)
        m_mu = qs.PolarizationTensor(np.zeros((3, 3), dtype=complex), 0.0)
        a_qs = qs.forward_amplitude(Direction(0.0, 0.0, 1.0), np.array([1.0, 0, 0]),
                                    om, med, m_eps, m_mu)
        rel = np.max(np.abs(a_mie - a_qs)) / np.max(np.abs(a_qs))
        assert rel <= 5 * abs(om * r)


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
