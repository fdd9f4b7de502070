"""Complex-argument spherical Bessel/Hankel functions, their Riccati-type
combinations, and orthonormal vector spherical harmonics.

Everything here is pure and reentrant; all other modules build on these
primitives.  Conventions:

* ``h`` always means the spherical Hankel function of the first kind
  (outgoing waves for the ``exp(-i w t)`` time convention).
* ``riccati_pair`` returns ``J_n(z) = j_n(z) + z j_n'(z)`` and
  ``H_n(z) = h_n(z) + z h_n'(z)``.
* Spherical harmonics are orthonormal on the unit sphere, carry no
  Condon-Shortley phase, and satisfy ``conj(Y[n, m]) == Y[n, -m]``.
* ``U[n, m]`` is the normalized surface gradient of ``Y[n, m]`` and
  ``V[n, m] = xhat x U[n, m]``; both are tangential by construction.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GradedOverflowError, RegimeWarning

MAX_DEGREE = 200

# Largest magnitude allowed during the Hankel upward recurrence before the
# pair is declared out of double-precision range.
_OVERFLOW_LIMIT = 1e280


@dataclass(frozen=True)
class ModeIndex:
    """Degree/order pair (n, m) of a spherical-harmonic mode, n >= 1, |m| <= n."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"mode degree must satisfy n >= 1, got n={self.n}")
        if abs(self.m) > self.n:
            raise DomainError(f"mode order must satisfy |m| <= n, got (n, m)=({self.n}, {self.m})")


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector stored as Cartesian components."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"direction must be a unit vector, |v| = {norm!r}")

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector to a direction")
        return cls(v[0] / norm, v[1] / norm, v[2] / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def _check_bessel_args(n: int, z: complex) -> complex:
    if n < 0:
        raise DomainError(f"order must be nonnegative, got n={n}")
    if n > MAX_DEGREE:
        raise DomainError(f"order n={n} exceeds supported maximum {MAX_DEGREE}")
    z = complex(z)
    if z == 0:
        raise DomainError("spherical Bessel pair undefined at z = 0")
    return z


def _hankel1_seq(nmax: int, z: complex) -> list[complex]:
    # Upward recurrence is stable for h_n (the dominant solution).
    h0 = -1j * cmath.exp(1j * z) / z
    seq = [h0]
    if nmax == 0:
        return seq
    h1 = -cmath.exp(1j * z) * (1.0 / z + 1j / (z * z))
    seq.append(h1)
    for k in range(1, nmax):
        hk1 = (2 * k + 1) / z * seq[k] - seq[k - 1]
        if abs(hk1.real) > _OVERFLOW_LIMIT or abs(hk1.imag) > _OVERFLOW_LIMIT:
            raise GradedOverflowError(
                f"h_n overflow at n={k + 1} for |z|={abs(z):.3g}; "
                f"representable range ends near n={k}"
            )
        seq.append(hk1)
    return seq


def _ratio_cf(nmax: int, z: complex) -> complex:
    # Modified Lentz evaluation of j_nmax / j_(nmax-1) from the continued
    # fraction r_n = 1 / ((2n+1)/z - r_(n+1)).
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    k = 0
    while k < 20000:
        k += 1
        b = (2 * (nmax + k) - 1) / z
        a = 1.0 if k == 1 else -1.0
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise DomainError(f"continued fraction for the j ratio failed to converge at n={nmax}, z={z}")


def bessel_jh_seq(nmax: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Return arrays ``j[0..nmax]`` and ``h[0..nmax]`` at complex ``z``.

    h is built by upward recurrence from closed-form seeds; j by downward
    recurrence seeded with a continued-fraction ratio and normalized through
    the cross identity ``j_n h_(n-1) - j_(n-1) h_n = i / z**2`` (robust at
    zeros of j_0).
    """
    z = _check_bessel_args(nmax, z)
    h = _hankel1_seq(nmax, z)
    j = [0j] * (nmax + 1)
    if nmax == 0:
        j[0] = cmath.sin(z) / z
        return np.array(j), np.array(h)
    r = _ratio_cf(nmax, z)
    j_prev = (1j / (z * z)) / (r * h[nmax - 1] - h[nmax])
    j[nmax] = r * j_prev
    j[nmax - 1] = j_prev
    for k in range(nmax - 1, 0, -1):
        j[k - 1] = (2 * k + 1) / z * j[k] - j[k + 1]
    return np.array(j), np.array(h)


def bessel_pair(n: int, z: complex) -> tuple[complex, complex]:
    """Spherical Bessel ``j_n(z)`` and Hankel-1 ``h_n(z)`` for complex z."""
    j, h = bessel_jh_seq(n, z)
    return complex(j[n]), complex(h[n])


def riccati_seq(nmax: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of ``J_n = j_n + z j_n'`` and ``H_n = h_n + z h_n'``, n <= nmax.

    Uses ``J_n = z j_(n-1) - n j_n`` (and likewise for H), which is exact and
    avoids differencing.
    """
    z = _check_bessel_args(nmax, z)
    j, h = bessel_jh_seq(nmax, z)
    jr = np.empty(nmax + 1, dtype=complex)
    hr = np.empty(nmax + 1, dtype=complex)
    jr[0] = cmath.cos(z)
    hr[0] = cmath.exp(1j * z)
    for n in range(1, nmax + 1):
        jr[n] = z * j[n - 1] - n * j[n]
        hr[n] = z * h[n - 1] - n * h[n]
    return jr, hr


def riccati_pair(n: int, z: complex) -> tuple[complex, complex]:
    """Riccati-type combinations ``(J_n(z), H_n(z))`` at complex ``z``."""
    jr, hr = riccati_seq(n, z)
    return complex(jr[n]), complex(hr[n])


def wronskian_residual(n: int, z: complex) -> float:
    """|j_n H_n - h_n J_n - i/z| -- identically zero in exact arithmetic."""
    j, h = bessel_pair(n, z)
    jr, hr = riccati_pair(n, z)
    return abs(j * hr - h * jr - 1j / complex(z))


# Three-term small-argument expansions of i * (product), through the linear
# terms.  Keys: capital letter = Riccati-combined factor on that side,
# e.g. "Jh" is i * J_n(t) * h_n(tt).
_PRODUCT_COEFFS = {
    "Jh": lambda n: ((n + 1) / (2 * n + 1),
                     (n + 1) / (2 * (2 * n - 1) * (2 * n + 1)),
                     -(n + 3) / (2 * (2 * n + 1) * (2 * n + 3))),
    "jH": lambda n: (-n / (2 * n + 1),
                     (-n + 2) / (2 * (2 * n - 1) * (2 * n + 1)),
                     n / (2 * (2 * n + 1) * (2 * n + 3))),
    "jh": lambda n: (1 / (2 * n + 1),
                     1 / (2 * (2 * n - 1) * (2 * n + 1)),
                     -1 / (2 * (2 * n + 1) * (2 * n + 3))),
    "JH": lambda n: (-n * (n + 1) / (2 * n + 1),
                     (n + 1) * (-n + 2) / (2 * (2 * n - 1) * (2 * n + 1)),
                     n * (n + 3) / (2 * (2 * n + 1) * (2 * n + 3))),
}


def bessel_product_small(kind: str, n: int, t: complex, tt: complex) -> complex:
    """Small-argument expansion of ``i * (product)`` of Bessel-type factors.

    ``kind`` is one of ``"Jh"``, ``"jH"``, ``"jh"``, ``"JH"`` where a capital
    letter means the Riccati combination on that side; the first factor is
    evaluated at ``t`` and the second at ``tt``.  Accurate to O(t^3) for
    |t|, |tt| <= 0.3 with t of the same scale as tt.
    """
    if kind not in _PRODUCT_COEFFS:
        raise DomainError(f"unknown product kind {kind!r}; expected one of {sorted(_PRODUCT_COEFFS)}")
    if n < 1:
        raise DomainError("product expansions require n >= 1")
    t = complex(t)
    tt = complex(tt)
    if t == 0 or tt == 0:
        raise DomainError("product expansion arguments must be nonzero")
    ratio = abs(t) / abs(tt)
    if abs(t) > 0.3 or abs(tt) > 0.3 or ratio > 2.0 or ratio < 0.5:
        warnings.warn(
            f"arguments |t|={abs(t):.3g}, |tt|={abs(tt):.3g} are outside the "
            "small-argument regime; expansion error is uncontrolled",
            RegimeWarning,
            stacklevel=2,
        )
    c_lead, c_tt, c_t = _PRODUCT_COEFFS[kind](n)
    q = (t / tt) ** n
    return c_lead * q / tt + c_tt * q * tt + c_t * q * (t / tt) * t


# ---------------------------------------------------------------------------
# Vector spherical harmonics
# ---------------------------------------------------------------------------

def _legendre_pi_tau(nmax: int, mabs: int, ct: float, st: float):
    """Normalized associated-Legendre triples (p, pi, tau) for m = mabs >= 0.

    p[n] is normalized so that Y = p * exp(i m phi) is orthonormal;
    pi = m p / sin(theta) and tau = dp/dtheta are evaluated through
    recurrences that stay finite at the poles.
    """
    p = np.zeros(nmax + 1)
    pi = np.zeros(nmax + 1)
    tau = np.zeros(nmax + 1)
    if mabs == 0:
        p[0] = math.sqrt(1.0 / (4.0 * math.pi))
        dp = np.zeros(nmax + 1)  # dp/d(cos theta)
        if nmax >= 1:
            p[1] = math.sqrt(3.0 / (4.0 * math.pi)) * ct
            dp[1] = math.sqrt(3.0 / (4.0 * math.pi))
        for n in range(1, nmax):
            a = math.sqrt((2 * n + 1) * (2 * n + 3)) / (n + 1)
            b = (n / (n + 1.0)) * math.sqrt((2 * n + 3) / (2 * n - 1.0))
            p[n + 1] = a * ct * p[n] - b * p[n - 1]
            dp[n + 1] = a * (p[n] + ct * dp[n]) - b * dp[n - 1]
        tau = -st * dp
        return p, pi, tau
    # seed at n = m
    logfact = 0.0  # log of (2m-1)!! / sqrt((2m)!)
    for k in range(1, 2 * mabs + 1):
        if k % 2 == 1:
            logfact += math.log(k)
        logfact -= 0.5 * math.log(k)
    norm_mm = math.sqrt((2 * mabs + 1) / (4.0 * math.pi)) * math.exp(logfact)
    stm1 = st ** (mabs - 1)
    p[mabs] = norm_mm * stm1 * st
    pi[mabs] = mabs * norm_mm * stm1
    tau[mabs] = mabs * ct * norm_mm * stm1
    for n in range(mabs, nmax):
        a = math.sqrt((2 * n + 1) * (2 * n + 3) / ((n + 1.0 - mabs) * (n + 1.0 + mabs)))
        b = math.sqrt((2 * n + 3) * (n - mabs) * (n + mabs)
                      / ((2 * n - 1.0) * (n + 1.0 - mabs) * (n + 1.0 + mabs)))
        p[n + 1] = a * ct * p[n] - b * p[n - 1]
        pi[n + 1] = a * ct * pi[n] - b * pi[n - 1]
    for n in range(mabs, nmax + 1):
        if n == mabs:
            continue
        c = (n + mabs) * math.sqrt((2 * n + 1) * (n - mabs) / ((2 * n - 1.0) * (n + mabs)))
        tau[n] = (n * ct * pi[n] - c * pi[n - 1]) / mabs
    return p, pi, tau


def _angles(xhat: np.ndarray) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    ct = float(np.clip(xhat[2], -1.0, 1.0))
    # hypot(x, y) keeps full relative precision near the poles, where
    # sqrt(1 - ct^2) cancels
    st = math.hypot(xhat[0], xhat[1])
    phi = math.atan2(xhat[1], xhat[0])
    cp, sp = math.cos(phi), math.sin(phi)
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, 0.0])
    return ct, st, phi, theta_hat, phi_hat


def harmonics_all(nmax: int, xhat: Direction):
    """Evaluate Y, U, V for all modes n <= nmax at one direction.

    Returns three dicts keyed by (n, m): complex scalars Y and complex
    3-vectors U, V (Cartesian components).
    """
    x = xhat.as_array()
    ct, st, phi, th, ph = _angles(x)
    Y: dict[tuple[int, int], complex] = {}
    U: dict[tuple[int, int], np.ndarray] = {}
    V: dict[tuple[int, int], np.ndarray] = {}
    for mabs in range(0, nmax + 1):
        p, pi, tau = _legendre_pi_tau(nmax, mabs, ct, st)
        for n in range(max(1, mabs), nmax + 1):
            scale = 1.0 / math.sqrt(n * (n + 1.0))
            for sign in ((1,) if mabs == 0 else (1, -1)):
                m = sign * mabs
                eimp = cmath.exp(1j * m * phi)
                y = p[n] * eimp
                # pi(m) = sign * pi(|m|), tau(m) = tau(|m|)
                pim = sign * pi[n]
                u = scale * eimp * (tau[n] * th + 1j * pim * ph)
                v = scale * eimp * (tau[n] * ph - 1j * pim * th)
                Y[(n, m)] = y
                U[(n, m)] = u
                V[(n, m)] = v
    return Y, U, V


def harmonics(idx: ModeIndex, xhat: Direction, conjugate: bool = False):
    """Scalar harmonic Y and tangential vector harmonics (U, V) at ``xhat``.

    With ``conjugate=True`` the complex conjugates are returned, which by the
    phase convention here equals the mode ``(n, -m)``.
    """
    Y, U, V = harmonics_all(idx.n, xhat)
    y, u, v = Y[(idx.n, idx.m)], U[(idx.n, idx.m)], V[(idx.n, idx.m)]
    if conjugate:
        return np.conj(y), np.conj(u), np.conj(v)
    return y, u, v


def scalar_harmonics_grid(nmax: int, points: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Vectorized orthonormal Y[n, m] over an (N, 3) array of unit vectors.

    Returns a dict keyed by (n, m) for 1 <= n <= nmax, |m| <= n, each value a
    complex array of length N.  Same phase convention as ``harmonics``.
    """
    pts = np.asarray(points, dtype=float)
    ct = np.clip(pts[:, 2], -1.0, 1.0)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    out: dict[tuple[int, int], np.ndarray] = {}
    for mabs in range(0, nmax + 1):
        p = np.zeros((nmax + 1, pts.shape[0]))
        if mabs == 0:
            p[0] = math.sqrt(1.0 / (4.0 * math.pi))
            if nmax >= 1:
                p[1] = math.sqrt(3.0 / (4.0 * math.pi)) * ct
            for n in range(1, nmax):
                a = math.sqrt((2 * n + 1) * (2 * n + 3)) / (n + 1)
                b = (n / (n + 1.0)) * math.sqrt((2 * n + 3) / (2 * n - 1.0))
                p[n + 1] = a * ct * p[n] - b * p[n - 1]
        else:
            logfact = 0.0
            for k in range(1, 2 * mabs + 1):
                if k % 2 == 1:
                    logfact += math.log(k)
                logfact -= 0.5 * math.log(k)
            p[mabs] = math.sqrt((2 * mabs + 1) / (4.0 * math.pi)) * math.exp(logfact) * st**mabs
            for n in range(mabs, nmax):
                a = math.sqrt((2 * n + 1) * (2 * n + 3) / ((n + 1.0 - mabs) * (n + 1.0 + mabs)))
                b = math.sqrt((2 * n + 3) * (n - mabs) * (n + mabs)
                              / ((2 * n - 1.0) * (n + 1.0 - mabs) * (n + 1.0 + mabs)))
                p[n + 1] = a * ct * p[n] - b * p[n - 1]
        for n in range(max(1, mabs), nmax + 1):
            if mabs == 0:
                out[(n, 0)] = p[n].astype(complex)
            else:
                e = np.exp(1j * mabs * phi)
                out[(n, mabs)] = p[n] * e
                out[(n, -mabs)] = p[n] * np.conj(e)
    return out


def sphere_quadrature(max_degree: int):
    """Gauss-Legendre x uniform-phi product rule on the unit sphere.

    Exact for spherical-polynomial integrands up to ``max_degree`` in each of
    cos(theta) and phi; uses (2N+2) points in each factor.
    """
    npts = 2 * max_degree + 2
    u, wu = np.polynomial.legendre.leggauss(npts)
    phi = 2.0 * math.pi * np.arange(npts) / npts
    wphi = 2.0 * math.pi / npts
    ct = u
    st = np.sqrt(1.0 - u * u)
    pts = np.empty((npts * npts, 3))
    w = np.empty(npts * npts)
    k = 0
    for i in range(npts):
        for jdx in range(npts):
            pts[k] = (st[i] * math.cos(phi[jdx]), st[i] * math.sin(phi[jdx]), ct[i])
            w[k] = wu[i] * wphi
            k += 1
    return pts, w
