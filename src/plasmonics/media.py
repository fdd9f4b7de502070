"""Dispersive material models and the contrast parameters that drive all
resonance conditions.

The electric contrast is ``lambda_eps = (eps_c + eps_m) / (2 (eps_m - eps_c))``
and likewise for ``lambda_mu``; a sphere's dipole resonance (Frohlich
condition ``eps_c = -2 eps_m``) sits at ``lambda_eps = -1/6``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateContrastError, DomainError

# bound once: the guards below run on every scalar call
_ndarray = np.ndarray


def any_of(cond) -> bool:
    """Whether a guard's comparison holds at any element.

    A scalar comparison is returned as it is and an array one is reduced with
    ``.any()``, so one guard serves a scalar frequency and a whole grid.
    ``np.any`` would serve both, but costs microseconds on every scalar call.
    """
    return cond.any() if isinstance(cond, _ndarray) else cond


def all_of(cond) -> bool:
    """Whether a guard's comparison holds at every element; see ``any_of``."""
    return cond.all() if isinstance(cond, _ndarray) else cond


#: Neumann-Poincare eigenvalue of the unit ball for harmonic degree n >= 1.
def ball_np_eigenvalue(n: int) -> float:
    if n < 1:
        raise DomainError("ball eigenvalues are indexed by n >= 1")
    return 1.0 / (2.0 * (2.0 * n + 1.0))


#: Eigenvalue attached to the constant density (degree 0).
BALL_LAMBDA0 = 0.5


def ball_np_spectrum(n_max: int) -> list[float]:
    """Ball Neumann-Poincare eigenvalues ``1/(2(2n+1))`` for n = 1..n_max."""
    return [ball_np_eigenvalue(n) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class DrudeParams:
    """Free-electron (Drude) dispersion parameters.

    eps(omega) = eps_inf - omega_p**2 / (omega**2 + i*gamma_damp*omega).
    Frequencies are in whatever unit omega_p is given in; the package default
    normalizes omega_p = 1.
    """

    eps_inf: float = 1.0
    omega_p: float = 1.0
    gamma_damp: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.eps_inf):
            raise DomainError(f"eps_inf must be finite, got {self.eps_inf!r}")
        if not 0 < self.omega_p < math.inf:
            raise DomainError("omega_p must be positive and finite")
        try:
            self.omega_p**2
        except OverflowError as exc:
            raise DomainError(f"omega_p**2 overflows double precision: omega_p = {self.omega_p!r}"
                              ) from exc
        if not 0 <= self.gamma_damp < math.inf:
            raise DomainError("gamma_damp must be nonnegative and finite")


@dataclass(frozen=True)
class MediumPair:
    """Host (m) and particle (c) permittivity/permeability at one frequency.

    ``eps_c`` and ``eps_m`` may also be arrays over a frequency grid, as the
    resonance searches pass them; the permeabilities stay scalars, so
    ``nonmagnetic`` is one bool for the whole grid.
    """

    eps_m: complex | np.ndarray
    mu_m: complex
    eps_c: complex | np.ndarray
    mu_c: complex

    @property
    def nonmagnetic(self) -> bool:
        return self.mu_c == self.mu_m


@dataclass(frozen=True)
class Contrasts:
    """Mobius-transformed contrasts; ``lambda_mu`` is None for nonmagnetic
    pairs (the magnetic contrast diverges as mu_c -> mu_m)."""

    lambda_eps: complex | np.ndarray
    lambda_mu: complex | None

    @property
    def nonmagnetic(self) -> bool:
        return self.lambda_mu is None


def drude_permittivity(p: DrudeParams, omega: float | np.ndarray) -> complex | np.ndarray:
    """Drude permittivity at ``omega > 0``; Im >= 0 whenever gamma_damp >= 0.

    ``omega`` is a float or an array of them; the result is a complex or a
    complex array of the same shape.  A NaN frequency is refused like a
    nonpositive one, and so is a permittivity beyond double-precision range
    (omega_p**2 / omega**2 overflows, as at omega = 1e-160, or omega**2
    underflows to 0, as at omega = 1e-200).
    """
    if not all_of(omega > 0):
        raise DomainError("drude_permittivity requires omega > 0")
    if isinstance(omega, _ndarray):
        # omega (omega + i gamma) may overflow to inf, where eps tends to
        # eps_inf; a Python complex overflows to inf with no warning
        with np.errstate(over="ignore"):
            den = omega * (omega + 1j * p.gamma_damp)
    else:
        den = omega * (omega + 1j * p.gamma_damp)
    try:
        eps = p.eps_inf - p.omega_p**2 / den
    except ZeroDivisionError:
        # a Python float raises where numpy divides by the underflowed 0 to inf
        eps = complex(math.inf)
    if not (np.isfinite(eps).all() if isinstance(eps, _ndarray) else cmath.isfinite(eps)):
        raise DomainError("Drude permittivity overflows double precision: "
                          f"omega_p**2 / omega**2 too large for omega_p = {p.omega_p!r}")
    return eps


def contrasts(m: MediumPair) -> Contrasts:
    """Both contrast parameters of a medium pair.

    Raises DegenerateContrastError when eps_c == eps_m (at any element, for
    array permittivities); reports the magnetic contrast as the nonmagnetic
    sentinel (None) when mu_c == mu_m.  ``lambda_eps`` is a complex, or a
    complex array when ``eps_c`` or ``eps_m`` is one.
    """
    if any_of(m.eps_c == m.eps_m):
        raise DegenerateContrastError("eps_c == eps_m leaves lambda_eps undefined")
    lam_eps = (m.eps_c + m.eps_m) / (2.0 * (m.eps_m - m.eps_c))
    if m.nonmagnetic:
        return Contrasts(lambda_eps=lam_eps, lambda_mu=None)
    lam_mu = (m.mu_c + m.mu_m) / (2.0 * (m.mu_m - m.mu_c))
    return Contrasts(lambda_eps=lam_eps, lambda_mu=lam_mu)


def lambda_star(eps_c: complex | np.ndarray, eps_m: complex) -> complex | np.ndarray:
    """Pole-normalized electric contrast ``(eps_c + eps_m) / (2 (eps_c - eps_m))``.

    This sign convention puts the ball dipole pole at ``lambda_star = 1/6``
    exactly when ``eps_c = -2 eps_m``, which is where the exact Mie
    coefficient S_1 blows up; use it wherever a resolvent ``(lambda I - K)``
    is evaluated.  ``eps_c`` may be an array over a frequency grid, and
    DegenerateContrastError is raised if eps_c == eps_m at any element.
    """
    if any_of(eps_c == eps_m):
        raise DegenerateContrastError("eps_c == eps_m leaves the contrast undefined")
    return (eps_c + eps_m) / (2.0 * (eps_c - eps_m))


def spectral_distance(lam: complex | np.ndarray, spectrum) -> float | np.ndarray:
    """Distance from ``lam`` to a finite spectrum: a float, or an array of
    ``lam``'s shape when ``lam`` is an array."""
    spectrum = np.asarray(list(spectrum), dtype=complex)
    if not spectrum.size:
        raise DomainError("spectral_distance requires a nonempty spectrum")
    dist = np.abs(np.subtract.outer(lam, spectrum)).min(axis=-1)
    return dist if isinstance(lam, _ndarray) else float(dist)


def wavenumber(eps: complex, mu: complex, omega: float) -> complex:
    """k = omega*sqrt(eps*mu) on the principal branch, flipped so Im k >= 0.

    An eps*mu whose square root overflows (eps*mu itself beyond double
    range) is refused with DomainError.
    """
    try:
        k = omega * complex(eps * mu) ** 0.5
    except OverflowError as exc:
        raise DomainError(f"eps*mu = {eps * mu!r} is beyond double precision at "
                          f"omega = {omega!r}: the wavenumber is undefined") from exc
    if k.imag < 0:
        k = -k
    return k


def wavenumbers(m: MediumPair, omega: float) -> tuple[complex, complex]:
    """Host and particle wavenumbers (k_m, k_c)."""
    return wavenumber(m.eps_m, m.mu_m, omega), wavenumber(m.eps_c, m.mu_c, omega)


@dataclass(frozen=True)
class MaterialPreset:
    """Bundle of Drude particle parameters plus host constants."""

    drude: DrudeParams
    mu_c: complex = 1.0
    eps_m: float = 1.0
    mu_m: float = 1.0

    def __post_init__(self):
        for name in ("mu_c", "eps_m", "mu_m"):
            if not cmath.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")

    def medium_at(self, omega: float | np.ndarray) -> MediumPair:
        """The medium pair at ``omega``, a float or an ndarray of frequencies
        (then ``eps_c`` is an array of the same shape)."""
        return MediumPair(
            eps_m=complex(self.eps_m),
            mu_m=complex(self.mu_m),
            eps_c=drude_permittivity(self.drude, omega),
            mu_c=complex(self.mu_c),
        )
