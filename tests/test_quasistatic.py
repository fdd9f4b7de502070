import math

import numpy as np
import pytest

from plasmonics import media, mie, quasistatic as qs
from plasmonics.errors import DomainError, PoleError
from plasmonics.specfun import Direction

from _oracles import PolarizationTensor, extinction_quasistatic, nystrom_polarization_tensor


def _ball_tensor(med, radius):
    return PolarizationTensor.ball(media.lambda_star(med.eps_c, med.eps_m), radius)


class TestPolarizationTensor:
    def test_clausius_mossotti_scalar(self):
        m = qs.ball_polarization_tensor(media.lambda_star(4.0, 1.0), 1.0)
        vol = 4.0 * math.pi / 3.0
        assert abs(m - 1.5 * vol) < 1e-14

    def test_nystrom_oracle(self):
        for lam in (5.0 / 6.0, -1.0 / 6.0 + 0.05j, 0.9 - 0.2j):
            M_ref = qs.ball_polarization_tensor(lam, 1.0) * np.eye(3)
            M_ny = nystrom_polarization_tensor(lam, 1.0, n_polar=28)
            rel = np.max(np.abs(M_ny - M_ref)) / np.max(np.abs(M_ref))
            assert rel < 2e-3

    def test_infinite_contrast_vanishes(self):
        assert abs(qs.ball_polarization_tensor(1e12, 1.0)) < 1e-11

    def test_pole(self):
        with pytest.raises(PoleError):
            qs.ball_polarization_tensor(1.0 / 6.0, 1.0)
        # the Frohlich point eps_c = -2 eps_m maps exactly onto the pole
        with pytest.raises(PoleError):
            qs.ball_polarization_tensor(media.lambda_star(-2.0, 1.0), 1.0)

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            qs.ball_polarization_tensor(0.9, -1.0)

    def test_array_matches_scalar(self):
        lam = np.array([5.0 / 6.0, -1.0 / 6.0 + 0.05j, 0.9 - 0.2j, 1e12])
        got = qs.ball_polarization_tensor(lam, 0.7)
        assert got.shape == lam.shape
        assert got.tolist() == [qs.ball_polarization_tensor(v, 0.7) for v in lam]
        lam[2] = 1.0 / 6.0
        with pytest.raises(PoleError):
            qs.ball_polarization_tensor(lam, 0.7)


class TestExtinctionQuasistatic:
    def test_zero_tensors(self):
        med = media.MediumPair(1.0, 1.0, 2.0, 1.0)
        m0 = PolarizationTensor.zero()
        q = extinction_quasistatic(Direction(0, 0, 1), [1, 0, 0], 0.6, med, m0, m0)
        assert q == 0.0

    def test_matches_mie_dipole_exactly(self):
        om, r = 0.58, 0.02
        med = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.05)).medium_at(om)
        m_eps = _ball_tensor(med, r)
        m_mu = PolarizationTensor.zero()
        q_qs = extinction_quasistatic(Direction(0, 0, 1), [1, 0, 0], om, med, m_eps, m_mu)
        q_d = mie.extinction(mie.SphereGeometry(r), med, om,
                             mie.PlaneWave(Direction(0, 0, 1), (1, 0, 0)), mode="dipole")
        assert abs(q_qs - q_d) <= 1e-10 * abs(q_d)

    def test_dipole_consistency_rate(self):
        # relative deviation from the full series is O(k r) for k r <= 0.05
        om = 0.58
        for kr in (0.01, 0.03, 0.05):
            r = kr / om
            med = media.MaterialPreset(media.DrudeParams(1.0, 1.0, 0.05)).medium_at(om)
            m_eps = _ball_tensor(med, r)
            m_mu = PolarizationTensor.zero()
            q_qs = extinction_quasistatic(Direction(0, 0, 1), [1, 0, 0], om, med, m_eps, m_mu)
            q_s = mie.extinction(mie.SphereGeometry(r), med, om,
                                 mie.PlaneWave(Direction(0, 0, 1), (1, 0, 0)), mode="series")
            assert abs(q_qs - q_s) <= 5.0 * kr * abs(q_s)

    def test_rotation_covariance(self):
        om, r = 0.6, 0.03
        med = media.MediumPair(1.0, 1.0, -1.8 + 0.2j, 1.4 + 0.05j)
        m_eps = _ball_tensor(med, r)
        m_mu = PolarizationTensor.ball(media.lambda_star(med.mu_c, med.mu_m), r)
        d = Direction(0.0, 0.0, 1.0)
        p = np.array([1.0, 0.0, 0.0])
        base = extinction_quasistatic(d, p, om, med, m_eps, m_mu)
        rng = np.random.default_rng(3)
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        th = 1.1
        K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
        R = np.eye(3) + math.sin(th) * K + (1 - math.cos(th)) * (K @ K)
        q = extinction_quasistatic(Direction.from_vector(R @ d.as_array()), R @ p,
                                      om, med, m_eps, m_mu)
        assert abs(q - base) < 1e-12 * abs(base)

    def test_polarization_validation(self):
        med = media.MediumPair(1.0, 1.0, 2.0, 1.0)
        m0 = PolarizationTensor.zero()
        with pytest.raises(DomainError):
            extinction_quasistatic(Direction(0, 0, 1), [0, 0, 1.0], 0.6, med, m0, m0)
