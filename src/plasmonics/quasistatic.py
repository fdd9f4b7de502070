"""Quasi-static polarizability of a ball.

The polarization tensor of a ball is ``M = m Id`` with the scalar
polarizability ``m = |D| / (lam - 1/6)``, where ``lam`` is the
pole-normalized contrast ``(eps_c + eps_m)/(2 (eps_c - eps_m))`` (see
``media.lambda_star``): this convention puts the dipole pole at the Frohlich
point ``eps_c = -2 eps_m``, where the exact Mie coefficient S_1 diverges.
Since M is a multiple of the identity, only m is returned; the Maxwell-Garnett
permittivity of ``effective.mg_effective`` is built from it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError
from .media import any_of


def ball_polarization_tensor(lam: complex | np.ndarray, radius: float) -> complex | np.ndarray:
    """Scalar polarizability m of a ball of the given radius at contrast ``lam``.

    ``lam`` is the pole-normalized contrast, a complex or an array of them;
    the polarization tensor is ``m Id`` with ``m = |D| / (lam - 1/6)`` and
    volume |D| = 4 pi r^3 / 3, a complex or an array of ``lam``'s shape.
    """
    if any_of(radius <= 0):
        raise DomainError("ball radius must be positive")
    # the normal density is pure degree 1, so the ball resolvent has a single
    # pole at 1/6; any other contrast is admissible
    if any_of(abs(lam - 1.0 / 6.0) < 1e-14):
        raise PoleError("contrast sits exactly on the dipole pole lam = 1/6")
    volume = 4.0 * math.pi * radius**3 / 3.0
    return volume / (lam - 1.0 / 6.0)
