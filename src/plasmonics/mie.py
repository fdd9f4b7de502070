"""Exact single-sphere scattering: modal coefficients, scattering amplitude,
extinction cross-section, and frequency scans with peak statistics.

The modal reflection coefficients are

    S_n^TE = (mu_c  j_n(k_c r) J_n(k_m r) - mu_m  j_n(k_m r) J_n(k_c r))
             / (mu_m  J_n(k_c r) h_n(k_m r) - mu_c  j_n(k_c r) H_n(k_m r))

and the electric analogue S_n^TM with eps in place of mu; they relate to the
textbook Mie coefficients by S_n^TM = -a_n, S_n^TE = -b_n (verified against a
Bohren-Huffman-style oracle in the test suite).

Plane-wave coefficients carry the conjugated harmonic weights and the optical
theorem is normalized consistently with E^s ~ -exp(ik|x|)/(4 pi |x|) A_inf;
the resulting Q^ext equals the classical Mie extinction to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import media as _media
from . import specfun
from .errors import DomainError
from .specfun import Direction


@dataclass(frozen=True)
class SphereGeometry:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave E^i = p exp(i k_m d.x), with real p orthogonal to d."""

    direction: Direction
    polarization: tuple[float, float, float]

    def __post_init__(self):
        p = np.asarray(self.polarization, dtype=float)
        if np.linalg.norm(p) == 0:
            raise DomainError("polarization must be nonzero")
        if abs(float(np.dot(p, self.direction.as_array()))) > 1e-12 * np.linalg.norm(p):
            raise DomainError("polarization must be orthogonal to the propagation direction")
        object.__setattr__(self, "polarization", tuple(float(v) for v in p))

    def p_vector(self) -> np.ndarray:
        return np.asarray(self.polarization, dtype=float)


@dataclass
class ScatterCoeffs:
    """Per-degree modal coefficients (index 1..n_max) plus singularity flags."""

    n_max: int
    s_te: np.ndarray  # s_te[n] valid for n = 1..n_max; s_te[0] unused
    s_tm: np.ndarray
    flagged: list[int] = field(default_factory=list)

    def pair(self, n: int) -> tuple[complex, complex]:
        return complex(self.s_te[n]), complex(self.s_tm[n])


@dataclass(frozen=True)
class Peak:
    omega: float
    q: float
    fwhm: float | None


@dataclass
class Spectrum:
    omega: np.ndarray
    qext: np.ndarray
    peaks: list[Peak]

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.qext = np.asarray(self.qext, dtype=float)
        if self.omega.size != self.qext.size:
            raise DomainError("omega and qext arrays must have equal length")
        if self.omega.size and np.any(np.diff(self.omega) <= 0):
            raise DomainError("omega grid must be strictly increasing")


def truncation_order(x: float) -> int:
    """Wiscombe-style series truncation for size parameter x = |k_m| r."""
    return max(4, math.ceil(x + 4.05 * x ** (1.0 / 3.0)) + 2)


def scattering_coeffs(geom: SphereGeometry, med: _media.MediumPair, omega: float,
                      n_max: int | None = None) -> ScatterCoeffs:
    """Exact modal coefficients S_n^TE, S_n^TM for n = 1..n_max.

    A vanishing denominator (within 1e-14 of the scale of its terms) marks the
    degree in ``flagged`` instead of emitting NaN.
    """
    if omega <= 0:
        raise DomainError("scattering requires omega > 0")
    k_m, k_c = _media.wavenumbers(med, omega)
    r = geom.radius
    if n_max is None:
        n_max = truncation_order(abs(k_m) * r)
    jm, hm = specfun.bessel_jh_seq(n_max, k_m * r)
    Jm, Hm = specfun.riccati_seq(n_max, k_m * r)
    jc, _ = specfun.bessel_jh_seq(n_max, k_c * r)
    Jc, _ = specfun.riccati_seq(n_max, k_c * r)
    s_te = np.zeros(n_max + 1, dtype=complex)
    s_tm = np.zeros(n_max + 1, dtype=complex)
    flagged: list[int] = []
    for n in range(1, n_max + 1):
        for arr, (cc, cm) in ((s_te, (med.mu_c, med.mu_m)), (s_tm, (med.eps_c, med.eps_m))):
            num = cc * jc[n] * Jm[n] - cm * jm[n] * Jc[n]
            t1 = cm * Jc[n] * hm[n]
            t2 = cc * jc[n] * Hm[n]
            den = t1 - t2
            scale = max(abs(t1), abs(t2), 1e-300)
            if abs(den) <= 1e-14 * scale:
                flagged.append(n)
                den = scale * 1e-14  # report a finite, flagged value
            arr[n] = num / den
    return ScatterCoeffs(n_max=n_max, s_te=s_te, s_tm=s_tm, flagged=sorted(set(flagged)))


def _dipole_coeffs(geom: SphereGeometry, med: _media.MediumPair, omega: float) -> ScatterCoeffs:
    # Leading small-radius asymptotics of S_1; higher degrees are O(r^4).
    k_m, _ = _media.wavenumbers(med, omega)
    x3 = (k_m * geom.radius) ** 3
    s_te = np.zeros(2, dtype=complex)
    s_tm = np.zeros(2, dtype=complex)
    s_te[1] = 1j * (2.0 / 3.0) * (med.mu_c - med.mu_m) * x3 / (2.0 * med.mu_m + med.mu_c)
    s_tm[1] = 1j * (2.0 / 3.0) * (med.eps_c - med.eps_m) * x3 / (2.0 * med.eps_m + med.eps_c)
    return ScatterCoeffs(n_max=1, s_te=s_te, s_tm=s_tm)


def _amplitude_from_coeffs(coeffs: ScatterCoeffs, med: _media.MediumPair, omega: float,
                           pw: PlaneWave, xhat: Direction) -> np.ndarray:
    k_m, _ = _media.wavenumbers(med, omega)
    p = pw.p_vector()
    _, Ud, Vd = specfun.harmonics_all(coeffs.n_max, pw.direction)
    _, Ux, Vx = specfun.harmonics_all(coeffs.n_max, xhat)
    pref = (4.0 * math.pi) ** 2 / k_m
    A = np.zeros(3, dtype=complex)
    for n in range(1, coeffs.n_max + 1):
        ste, stm = coeffs.pair(n)
        for m in range(-n, n + 1):
            wte = np.dot(np.conj(Vd[(n, m)]), p)
            wtm = np.dot(np.conj(Ud[(n, m)]), p)
            A += pref * 1j * (ste * wte * Vx[(n, m)] + stm * wtm * Ux[(n, m)])
    return A


def plane_wave_amplitude(geom: SphereGeometry, med: _media.MediumPair, omega: float,
                         pw: PlaneWave, xhat: Direction, n_max: int | None = None) -> np.ndarray:
    """Scattering amplitude A_inf(xhat), normalized so that the scattered
    far field is E^s ~ -exp(i k_m |x|) / (4 pi |x|) * A_inf(xhat)."""
    coeffs = scattering_coeffs(geom, med, omega, n_max)
    return _amplitude_from_coeffs(coeffs, med, omega, pw, xhat)


def extinction(geom: SphereGeometry, med: _media.MediumPair, omega: float, pw: PlaneWave,
               mode: str = "series", n_max: int | None = None) -> float:
    """Extinction cross-section via the optical theorem.

    ``mode="series"`` uses the exact modal coefficients; ``mode="dipole"``
    substitutes the leading small-radius asymptotics of S_1 (advised for
    k_m r <= 0.3).
    """
    if mode == "series":
        coeffs = scattering_coeffs(geom, med, omega, n_max)
    elif mode == "dipole":
        coeffs = _dipole_coeffs(geom, med, omega)
    else:
        raise DomainError(f"unknown extinction mode {mode!r}")
    k_m, _ = _media.wavenumbers(med, omega)
    p = pw.p_vector()
    A = _amplitude_from_coeffs(coeffs, med, omega, pw, pw.direction)
    forward = complex(np.dot(p, A)) / float(np.dot(p, p))
    return -forward.imag / k_m.real + 0.0  # +0.0 normalizes -0.0


def _refine_peak(om: np.ndarray, q: np.ndarray, i: int) -> tuple[float, float]:
    # Three-point parabolic refinement around a strict local maximum.
    x0, x1, x2 = om[i - 1], om[i], om[i + 1]
    y0, y1, y2 = q[i - 1], q[i], q[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    if a >= 0:
        return float(x1), float(y1)
    xv = -b / (2 * a)
    if not (x0 < xv < x2):
        return float(x1), float(y1)
    c = y1 - a * x1 * x1 - b * x1
    return float(xv), float(a * xv * xv + b * xv + c)


def _half_crossing(om, q, i, half, step):
    j = i
    while 0 <= j + step < len(q):
        if q[j + step] <= half:
            x0, x1 = om[j], om[j + step]
            y0, y1 = q[j], q[j + step]
            return x0 + (half - y0) * (x1 - x0) / (y1 - y0)
        j += step
    return None


def find_peaks(om: np.ndarray, q: np.ndarray) -> list[Peak]:
    """Strict local maxima with parabolic refinement and linear-interp FWHM."""
    peaks: list[Peak] = []
    for i in range(1, len(q) - 1):
        if q[i] > q[i - 1] and q[i] > q[i + 1] and q[i] > 0:
            om_pk, q_pk = _refine_peak(om, q, i)
            half = q_pk / 2.0
            left = _half_crossing(om, q, i, half, -1)
            right = _half_crossing(om, q, i, half, +1)
            fwhm = (right - left) if (left is not None and right is not None) else None
            peaks.append(Peak(omega=om_pk, q=q_pk, fwhm=fwhm))
    return peaks


def scan_spectrum(geom: SphereGeometry, media_fn, omegas, pw: PlaneWave,
                  mode: str = "series", jobs: int = 1) -> Spectrum:
    """Extinction over a frequency grid plus peak records.

    ``media_fn(omega)`` supplies the MediumPair at each grid point.  ``jobs``
    is accepted and ignored: points are evaluated in grid order in the
    calling thread, because a thread pool only contends for the interpreter
    lock and was measured slower.
    """
    om = np.asarray(list(omegas), dtype=float)
    if om.size < 3:
        raise DomainError("scan grid needs at least 3 frequencies")
    if np.any(np.diff(om) <= 0):
        raise DomainError("scan grid must be strictly increasing")
    q = np.array([extinction(geom, media_fn(w), w, pw, mode=mode) for w in om])
    return Spectrum(omega=om, qext=q, peaks=find_peaks(om, q))


def write_spectrum_csv(spec: Spectrum, path) -> None:
    """CSV export: header ``omega,qext``, 17 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("omega,qext\n")
        for w, q in zip(spec.omega, spec.qext):
            fh.write(f"{w:.17g},{q:.17g}\n")


def peaks_json_payload(spec: Spectrum) -> dict:
    return {
        "peaks": [
            {"omega": pk.omega, "q": pk.q, "fwhm": pk.fwhm}
            for pk in spec.peaks
        ]
    }
