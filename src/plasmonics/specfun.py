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
* Every harmonic comes from Cartesian coordinates r = (x, y, z), with no
  angles: Y[n, m] = p~[n](z) (x + i y)^m for m >= 0, a polynomial in r with
  the Legendre rows p~ of ``_legendre_rows``, so nothing cancels near the
  poles.  U is the tangential part of that polynomial's gradient g,
  (g - (r.g) / (r.r) r) / sqrt(n(n+1)), and V = r x U.
* ``harmonics_all`` packs the modes 1 <= n <= nmax, |m| <= n into rows of
  arrays: mode (n, m) sits in row ``mode_row(n, m) = n*n + n + m - 1``, so
  degree n fills the contiguous rows n*n - 1 .. n*n + 2n - 1 in increasing m.
  Results are cached per (nmax, direction) and returned read-only, because
  the same arrays are handed to every caller; so are the sequences of
  ``bessel_jh_seq``, per (nmax, z).
* ``scalar_harmonics_grid`` evaluates Y over many unit vectors at once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, GradedOverflowError

MAX_DEGREE = 200

# Largest magnitude allowed during the Hankel upward recurrence before the
# pair is declared out of double-precision range.
_OVERFLOW_LIMIT = 1e280


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector stored as Cartesian components."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        # -0.0 == 0.0 and both hash alike, so cached harmonics would depend on
        # which sign was seen first; store the canonical +0.0
        for axis in ("x", "y", "z"):
            object.__setattr__(self, axis, getattr(self, axis) + 0.0)
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        # written so that a NaN norm fails the check too
        if not abs(norm - 1.0) <= 1e-12:
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


def _out_of_range(z: complex) -> DomainError:
    return DomainError(f"spherical Bessel pair out of double-precision range at z = {z!r}")


def _hankel1_seq(nmax: int, z: complex) -> list[complex]:
    # Upward recurrence is stable for h_n (the dominant solution).
    h0 = -1j * cmath.exp(1j * z) / z
    seq = [h0]
    if nmax == 0:
        return seq
    h1 = -cmath.exp(1j * z) * (1.0 / z + 1j / (z * z))
    if not cmath.isfinite(h1):
        # z*z underflowed to a subnormal, and 1j / (z*z) overflowed
        raise _out_of_range(z)
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
    zeros of j_0).  Where a seed or that normalization divides by a value
    that under- or overflowed to zero (|z| below about 2e-162, where z*z
    underflows, or h_n(z) below double range), or where the h_1 seed
    overflows (|z| below about 1e-154, where z*z is subnormal), DomainError
    names z.

    Results are cached for the 8 most recent (nmax, z) and returned
    read-only, because the same arrays are handed to every caller: a Mie
    point asks for each of its two arguments twice, once directly and once
    through ``riccati_seq``.  The key keeps the signs of both parts of z,
    because -0.0 == 0.0 and both hash alike, while the sign of a zero part
    can reach the bits of h.
    """
    z = _check_bessel_args(nmax, z)
    return _bessel_jh_cached(nmax, z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


@functools.lru_cache(maxsize=8)
def _bessel_jh_cached(nmax: int, z: complex, _sign_re: float, _sign_im: float):
    try:
        h = _hankel1_seq(nmax, z)
        j = [0j] * (nmax + 1)
        if nmax == 0:
            j[0] = cmath.sin(z) / z
            return _read_only(np.array(j), np.array(h))
        r = _ratio_cf(nmax, z)
        j_prev = (1j / (z * z)) / (r * h[nmax - 1] - h[nmax])
    except ZeroDivisionError as exc:
        raise _out_of_range(z) from exc
    j[nmax] = r * j_prev
    j[nmax - 1] = j_prev
    for k in range(nmax - 1, 0, -1):
        j[k - 1] = (2 * k + 1) / z * j[k] - j[k + 1]
    return _read_only(np.array(j), np.array(h))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands them to every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def bessel_pair(n: int, z: complex) -> tuple[complex, complex]:
    """Spherical Bessel ``j_n(z)`` and Hankel-1 ``h_n(z)`` for complex z."""
    j, h = bessel_jh_seq(n, z)
    return complex(j[n]), complex(h[n])


def riccati_seq(nmax: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of ``J_n = j_n + z j_n'`` and ``H_n = h_n + z h_n'``, n <= nmax.

    Uses ``J_n = z j_(n-1) - n j_n`` (and likewise for H), which is exact and
    avoids differencing.  The loop runs on Python complex, whose products
    and differences round exactly like numpy's complex128 scalars.
    """
    z = _check_bessel_args(nmax, z)
    j, h = (seq.tolist() for seq in bessel_jh_seq(nmax, z))
    try:
        jr = [cmath.cos(z)]
    except OverflowError as exc:
        # |Im z| beyond about 710, where j_n and h_n can still be finite
        raise _out_of_range(z) from exc
    hr = [cmath.exp(1j * z)]
    for n in range(1, nmax + 1):
        jr.append(z * j[n - 1] - n * j[n])
        hr.append(z * h[n - 1] - n * h[n])
    return np.array(jr), np.array(hr)


def riccati_pair(n: int, z: complex) -> tuple[complex, complex]:
    """Riccati-type combinations ``(J_n(z), H_n(z))`` at complex ``z``."""
    jr, hr = riccati_seq(n, z)
    return complex(jr[n]), complex(hr[n])


def wronskian_residual(n: int, z: complex) -> float:
    """|j_n H_n - h_n J_n - i/z| -- identically zero in exact arithmetic."""
    j, h = bessel_pair(n, z)
    jr, hr = riccati_pair(n, z)
    return abs(j * hr - h * jr - 1j / complex(z))


@functools.lru_cache(maxsize=None)
def product_coeffs(n: int) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
    """Exact three-term small-argument expansions of i * (product), through
    the linear terms, cached per n >= 1: the single source of the rationals
    of ``sphere_modes.small_r_coeffs`` and ``shell_modes.shell_coeffs``.

    Each kind maps to (lead, tt, t), the coefficients of q/tt, q*tt and
    q*(t/tt)*t with q = (t/tt)**n.  Keys: capital letter = Riccati-combined
    factor on that side, e.g. "Jh" is i * J_n(t) * h_n(tt).
    """
    if n < 1:
        raise DomainError("product expansions require n >= 1")
    lead, d_tt, d_t = 2 * n + 1, 2 * (2 * n - 1) * (2 * n + 1), 2 * (2 * n + 1) * (2 * n + 3)
    return {
        "Jh": (Fraction(n + 1, lead), Fraction(n + 1, d_tt), Fraction(-(n + 3), d_t)),
        "jH": (Fraction(-n, lead), Fraction(-n + 2, d_tt), Fraction(n, d_t)),
        "jh": (Fraction(1, lead), Fraction(1, d_tt), Fraction(-1, d_t)),
        "JH": (Fraction(-n * (n + 1), lead), Fraction((n + 1) * (-n + 2), d_tt),
               Fraction(n * (n + 3), d_t)),
    }


# ---------------------------------------------------------------------------
# Vector spherical harmonics
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _legendre_recurrence(nmax: int, mabs: int):
    """Seed norm sqrt((2m+1)/(4 pi)) (2m-1)!!/sqrt((2m)!) = P[m] / sin(theta)^m
    and the steps (n, a, b), each ``P[n + 1] = a cos(theta) P[n] - b P[n - 1]``,
    of the normalized Legendre recurrence for m = mabs >= 0 (from n = 1 for
    m = 0); cached for the 1024 most recent (nmax, mabs)."""
    logfact = 0.0  # log of (2m-1)!! / sqrt((2m)!)
    for k in range(1, 2 * mabs + 1):
        if k % 2 == 1:
            logfact += math.log(k)
        logfact -= 0.5 * math.log(k)
    norm = math.sqrt((2 * mabs + 1) / (4.0 * math.pi)) * math.exp(logfact)
    if mabs == 0:
        steps = tuple((n, math.sqrt((2 * n + 1) * (2 * n + 3)) / (n + 1),
                       (n / (n + 1.0)) * math.sqrt((2 * n + 3) / (2 * n - 1.0)))
                      for n in range(1, nmax))
    else:
        steps = tuple((n, math.sqrt((2 * n + 1) * (2 * n + 3) / ((n + 1.0 - mabs) * (n + 1.0 + mabs))),
                       math.sqrt((2 * n + 3) * (n - mabs) * (n + mabs)
                                 / ((2 * n - 1.0) * (n + 1.0 - mabs) * (n + 1.0 + mabs))))
                      for n in range(mabs, nmax))
    return norm, steps


def _legendre_rows(nmax: int, mabs: int, ct, deriv: bool = False):
    """Normalized Legendre rows p~[n] = p[n] / sin(theta)^mabs for n <= nmax
    at z = ``ct`` (a numpy float, or an array over points), and with ``deriv``
    their derivatives dp~/dz (else None); the rows below mabs are zero.

    Each row is a polynomial in z: the recurrence of ``_legendre_recurrence``
    run from its seed ``norm`` at n = mabs, or from the rows n = 0, 1 for
    m = 0.  Differentiating every step gives the derivative rows,
    ``dp[n + 1] = a (p[n] + z dp[n]) - b dp[n - 1]``, from dp = 0 at the seed.
    """
    # zero rows: the first step (b = 0) still reads the row below the seed
    p = np.zeros((nmax + 1,) + ct.shape)
    dp = np.zeros_like(p) if deriv else None
    norm, steps = _legendre_recurrence(nmax, mabs)
    if mabs == 0:
        p[0] = math.sqrt(1.0 / (4.0 * math.pi))
        if nmax >= 1:
            p[1] = math.sqrt(3.0 / (4.0 * math.pi)) * ct
            if deriv:
                dp[1] = math.sqrt(3.0 / (4.0 * math.pi))
    else:
        p[mabs] = norm
    for n, a, b in steps:
        p[n + 1] = a * ct * p[n] - b * p[n - 1]
    if deriv:
        for n, a, b in steps:
            dp[n + 1] = a * (p[n] + ct * dp[n]) - b * dp[n - 1]
    return p, dp


def mode_row(n: int, m: int) -> int:
    """Row of mode (n, m) in the packed arrays returned by ``harmonics_all``."""
    return n * n + n + m - 1


@functools.lru_cache(maxsize=32)
def harmonics_all(nmax: int, xhat: Direction):
    """Evaluate Y, U, V for all modes n <= nmax at one direction.

    Returns three packed, read-only complex arrays: ``Y`` of shape (K,) and
    ``U``, ``V`` of shape (K, 3) (Cartesian components), K = nmax(nmax+2),
    with mode (n, m) in row ``mode_row(n, m)``.  Results are cached for the
    32 most recent (nmax, direction) pairs; a spectrum scan asks for the same
    incident and forward directions at every frequency.

    Evaluated from the Cartesian coordinates r = (x, y, z) of the direction,
    with no angles, from the Legendre rows that ``scalar_harmonics_grid``
    uses too: for m >= 0, Y[n, m] = p~[n](z) w^m with w = x + i y, a
    polynomial in r.  The surface gradient of Y is that polynomial's
    gradient

        g = (m p~ w^(m-1), i m p~ w^(m-1), dp~/dz w^m)

    less its component along r, so

        U[n, m] = (g - (r.g) / (r.r) r) / sqrt(n(n+1)),   V[n, m] = r x U[n, m],

    and the rows of -m are the conjugates of those of m, because r is real.
    Dividing by r.r, not taking r.r = 1, keeps U and V tangent for every
    vector ``Direction`` accepts (|r| within 1e-12 of 1).
    """
    r = xhat.as_array()
    w = complex(xhat.x, xhat.y)
    size = nmax * (nmax + 2)
    Y = np.empty(size, dtype=complex)
    grad = np.empty((size, 3), dtype=complex)  # g / sqrt(n(n+1))
    w_prev, w_m = 0j, 1 + 0j  # w^(m-1) (0 for m = 0) and w^m
    for mabs in range(nmax + 1):
        p, dp = _legendre_rows(nmax, mabs, np.float64(xhat.z), deriv=True)
        n = np.arange(max(1, mabs), nmax + 1)
        rows = mode_row(n, mabs)
        scale = 1.0 / np.sqrt(n * (n + 1.0))
        Y[rows] = p[n] * w_m
        grad[rows, 0] = scale * mabs * p[n] * w_prev
        grad[rows, 1] = 1j * grad[rows, 0]
        grad[rows, 2] = scale * dp[n] * w_m
        if mabs > 0:
            Y[mode_row(n, -mabs)] = np.conj(Y[rows])
            grad[mode_row(n, -mabs)] = np.conj(grad[rows])
        w_prev, w_m = w_m, w_m * w
    U = grad - np.outer(grad @ r / (r @ r), r)
    return _read_only(Y, U, np.cross(r, U))


def scalar_harmonics_grid(nmax: int, points: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Vectorized orthonormal Y[n, m] over an (N, 3) array of unit vectors.

    Returns a dict keyed by (n, m) for 1 <= n <= nmax, |m| <= n, each value a
    complex array of length N.  Same phase convention as ``harmonics_all``.

    Evaluated from the Cartesian coordinates, with no angles: on the unit
    sphere sin(theta) exp(i phi) = x + i y, so for m > 0

        Y[n, m] = p~[n](z) (x + i y)^m,   Y[n, -m] = conj(Y[n, m]),

    where p~ = p / sin(theta)^m is the normalized Legendre row of
    ``_legendre_rows`` (a polynomial in z), and each power of x + i y is one
    product with the previous one.  Nothing cancels near the poles, so every
    Y keeps full relative precision there.

    The points must be unit vectors; they are not normalized here (z is only
    clamped to [-1, 1]), and off the sphere the result is not Y.
    """
    pts = np.asarray(points, dtype=float)
    ct = np.minimum(np.maximum(pts[:, 2], -1.0), 1.0)
    xy = np.empty(pts.shape[0], dtype=complex)
    xy.real = pts[:, 0]
    xy.imag = pts[:, 1]
    out: dict[tuple[int, int], np.ndarray] = {}
    power = xy
    for mabs in range(0, nmax + 1):
        p, _ = _legendre_rows(nmax, mabs, ct)
        if mabs > 1:
            power = power * xy
        for n in range(max(1, mabs), nmax + 1):
            if mabs == 0:
                out[(n, 0)] = p[n].astype(complex)
            else:
                y = p[n] * power
                out[(n, mabs)] = y
                out[(n, -mabs)] = np.conj(y)
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
    st = np.sqrt(1.0 - u * u)
    # libm's cos and sin, as the per-point rule took them: numpy may dispatch
    # its own to SIMD kernels that round differently on some CPUs
    cos_phi = np.array([math.cos(p) for p in phi])
    sin_phi = np.array([math.sin(p) for p in phi])
    pts = np.stack([
        np.outer(st, cos_phi).ravel(),
        np.outer(st, sin_phi).ravel(),
        np.repeat(u, npts),
    ], axis=1)
    w = np.repeat(wu * wphi, npts)
    return pts, w
