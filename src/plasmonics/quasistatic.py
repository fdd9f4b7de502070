"""Quasi-static polarization tensor of a ball.

The polarization tensor of a ball is ``M = |D| / (lam - 1/6) * Id`` where
``lam`` is the pole-normalized contrast ``(eps_c + eps_m)/(2 (eps_c -
eps_m))`` (see ``media.lambda_star``): this convention puts the dipole pole
at the Frohlich point ``eps_c = -2 eps_m``, where the exact Mie coefficient
S_1 diverges.  The Maxwell-Garnett tensor of ``effective.mg_effective`` is
built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError


@dataclass(frozen=True)
class PolarizationTensor:
    """Dipolar response tensor of an inclusion (volume units)."""

    matrix: np.ndarray
    lam: complex

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
