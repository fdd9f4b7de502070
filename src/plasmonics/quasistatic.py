"""Quasi-static (dipolar) far field: ball polarization tensors, the dyadic
Green function, and the optical-theorem extinction of a small particle.

The polarization tensor of a ball is ``M = |D| / (lam - 1/6) * Id`` where
``lam`` is the pole-normalized contrast ``(eps_c + eps_m)/(2 (eps_c -
eps_m))`` (see ``media.lambda_star``): this convention puts the dipole pole
at the Frohlich point ``eps_c = -2 eps_m``, where the exact Mie coefficient
S_1 diverges.  Scalar Green function convention: G(x, z, k) =
-exp(ik|x-z|) / (4 pi |x-z|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import media as _media
from .errors import DomainError, PoleError, SingularPointError
from .specfun import Direction


@dataclass(frozen=True)
class PolarizationTensor:
    """Dipolar response tensor of an inclusion (volume units)."""

    matrix: np.ndarray
    lam: complex
    shape: str = "ball"

    @property
    def scalar(self) -> complex:
        return complex(self.matrix[0, 0])


def ball_polarization_tensor(lam: complex, radius: float) -> PolarizationTensor:
    """Polarization tensor of a ball of the given radius at contrast ``lam``.

    ``lam`` is the pole-normalized contrast; the tensor is the scalar
    ``|D| / (lam - 1/6)`` times the identity, with volume |D| = 4 pi r^3 / 3.
    """
    if radius <= 0:
        raise DomainError("ball radius must be positive")
    lam = complex(lam)
    # the normal density is pure degree 1, so the ball resolvent has a single
    # pole at 1/6; any other contrast is admissible
    if abs(lam - 1.0 / 6.0) < 1e-14:
        raise PoleError("contrast sits exactly on the dipole pole lam = 1/6")
    volume = 4.0 * math.pi * radius**3 / 3.0
    m = volume / (lam - 1.0 / 6.0)
    return PolarizationTensor(matrix=m * np.eye(3, dtype=complex), lam=lam)


def ball_tensor_from_media(med: _media.MediumPair, radius: float) -> PolarizationTensor:
    """Electric polarization tensor of a ball for a medium pair."""
    return ball_polarization_tensor(_media.lambda_star(med.eps_c, med.eps_m), radius)


def _radial_derivs(R: float, k: complex) -> tuple[complex, complex, complex]:
    # f(R) = -exp(ikR)/(4 pi R) and its first two radial derivatives.
    e = -cmath.exp(1j * k * R) / (4.0 * math.pi)
    f = e / R
    fp = e * (1j * k * R - 1.0) / R**2
    fpp = e * (-k * k * R * R - 2j * k * R + 2.0) / R**3
    return f, fp, fpp


def dyadic_green(x, z, k: complex, eps_m: complex) -> np.ndarray:
    """Matrix-valued Green function eps_m (G Id + Hess(G)/k^2), analytic."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    R = float(np.linalg.norm(x - z))
    if R == 0:
        raise SingularPointError("dyadic Green function evaluated at x == z")
    rh = (x - z) / R
    f, fp, fpp = _radial_derivs(R, k)
    hess = fpp * np.outer(rh, rh) + (fp / R) * (np.eye(3) - np.outer(rh, rh))
    return eps_m * (f * np.eye(3) + hess / (k * k))


def grad_green(x, z, k: complex) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    R = float(np.linalg.norm(x - z))
    if R == 0:
        raise SingularPointError("Green gradient evaluated at x == z")
    _, fp, _ = _radial_derivs(R, k)
    return fp * (x - z) / R


def farfield_dipole(x, z, omega: float, med: _media.MediumPair,
                    m_eps: PolarizationTensor, m_mu: PolarizationTensor,
                    e_inc, h_inc) -> np.ndarray:
    """Dipolar scattered field of a small particle at position z.

    E^s(x) = -(i omega mu_m / eps_m) curl[G_d M_mu H^i(z)]
             - omega^2 mu_m G_d(x, z) M_eps E^i(z),
    with all derivatives analytic.  The curl of the Hessian part of G_d
    vanishes identically, leaving eps_m grad G x (M_mu H^i).
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.array_equal(x, z):
        raise SingularPointError("field point coincides with the dipole location")
    k_m, _ = _media.wavenumbers(med, omega)
    e_inc = np.asarray(e_inc, dtype=complex)
    h_inc = np.asarray(h_inc, dtype=complex)
    term_h = -(1j * omega * med.mu_m / med.eps_m) * med.eps_m * np.cross(
        grad_green(x, z, k_m), m_mu.matrix @ h_inc)
    term_e = -(omega**2) * med.mu_m * (dyadic_green(x, z, k_m, med.eps_m) @ (m_eps.matrix @ e_inc))
    return term_h + term_e


def forward_amplitude(d: Direction, p, omega: float, med: _media.MediumPair,
                      m_eps: PolarizationTensor, m_mu: PolarizationTensor) -> np.ndarray:
    """Quasi-static scattering amplitude in the incidence direction,
    A(d) = omega mu_m k_m (d x Id) M_mu (d x p) - k_m^2 (Id - d d^t) M_eps p."""
    k_m, _ = _media.wavenumbers(med, omega)
    dv = d.as_array()
    p = np.asarray(p, dtype=float)
    a_mu = omega * med.mu_m * k_m * np.cross(dv, m_mu.matrix @ np.cross(dv, p))
    a_eps = -(k_m**2) * ((np.eye(3) - np.outer(dv, dv)) @ (m_eps.matrix @ p))
    return a_mu + a_eps


def extinction_quasistatic(d: Direction, p, omega: float, med: _media.MediumPair,
                           m_eps: PolarizationTensor, m_mu: PolarizationTensor) -> float:
    """Optical-theorem extinction from the dipolar amplitude, normalized
    consistently with the far-field convention E^s ~ -exp(ik|x|)/(4 pi |x|) A;
    it agrees with the small-r Mie extinction.
    """
    p = np.asarray(p, dtype=float)
    if abs(float(np.dot(p, d.as_array()))) > 1e-12 * np.linalg.norm(p):
        raise DomainError("polarization must be orthogonal to the incidence direction")
    k_m, _ = _media.wavenumbers(med, omega)
    fwd = complex(np.dot(p, forward_amplitude(d, p, omega, med, m_eps, m_mu)))
    fwd /= float(np.dot(p, p))
    return -fwd.imag / k_m.real
