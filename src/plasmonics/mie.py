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

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import media as _media
from . import specfun
from .errors import DomainError, non_finite_artifact
from .specfun import Direction


@dataclass(frozen=True)
class SphereGeometry:
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise DomainError("sphere radius must be positive and finite")


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
    """Per-degree modal coefficients (index 1..n_max) plus singularity flags,
    and the host wavenumber ``k_m`` they were computed at."""

    n_max: int
    s_te: np.ndarray  # s_te[n] valid for n = 1..n_max; s_te[0] unused
    s_tm: np.ndarray
    k_m: complex
    flagged: list[int] = field(default_factory=list)


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
    """Wiscombe-style series truncation for size parameter x = |k_m| r.

    A size parameter that overflowed to inf (|k_m| and r finite, their
    product not) is refused with DomainError.
    """
    if not math.isfinite(x):
        raise DomainError(f"size parameter |k_m| r = {x!r} is beyond double precision")
    return max(4, math.ceil(x + 4.05 * x ** (1.0 / 3.0)) + 2)


def scattering_coeffs(geom: SphereGeometry, med: _media.MediumPair, omega: float,
                      n_max: int | None = None) -> ScatterCoeffs:
    """Exact modal coefficients S_n^TE, S_n^TM for n = 1..n_max.

    A vanishing denominator (within 1e-14 of the scale of its terms) marks the
    degree in ``flagged`` instead of emitting NaN.

    The degree loop runs on Python complex, which rounds products, sums and
    ``abs`` exactly like numpy's complex128 scalars but divides differently;
    so the quotients are taken in one numpy array division, which rounds
    like numpy's scalar one.
    """
    if omega <= 0:
        raise DomainError("scattering requires omega > 0")
    k_m, k_c = _media.wavenumbers(med, omega)
    r = geom.radius
    if n_max is None:
        n_max = truncation_order(abs(k_m) * r)
    jm, hm = (seq.tolist() for seq in specfun.bessel_jh_seq(n_max, k_m * r))
    Jm, Hm = (seq.tolist() for seq in specfun.riccati_seq(n_max, k_m * r))
    jc = specfun.bessel_jh_seq(n_max, k_c * r)[0].tolist()
    Jc = specfun.riccati_seq(n_max, k_c * r)[0].tolist()
    flagged: list[int] = []
    nums: list[complex] = []
    dens: list[complex] = []
    for cc, cm in ((complex(med.mu_c), complex(med.mu_m)),
                   (complex(med.eps_c), complex(med.eps_m))):
        nums.append(0j)  # the unused index 0 holds 0 / 1
        dens.append(1 + 0j)
        for n in range(1, n_max + 1):
            ccj = cc * jc[n]
            num = ccj * Jm[n] - cm * jm[n] * Jc[n]
            t1 = cm * Jc[n] * hm[n]
            t2 = ccj * Hm[n]
            den = t1 - t2
            scale = max(abs(t1), abs(t2), 1e-300)
            if abs(den) <= 1e-14 * scale:
                flagged.append(n)
                den = scale * 1e-14  # report a finite, flagged value
            nums.append(num)
            dens.append(den)
    s_te, s_tm = (np.array(nums) / np.array(dens, dtype=complex)).reshape(2, n_max + 1)
    return ScatterCoeffs(n_max=n_max, s_te=s_te, s_tm=s_tm, k_m=k_m,
                         flagged=sorted(set(flagged)))


def _dipole_coeffs(geom: SphereGeometry, med: _media.MediumPair, omega: float) -> ScatterCoeffs:
    # Leading small-radius asymptotics of S_1; higher degrees are O(r^4).
    k_m, _ = _media.wavenumbers(med, omega)
    s_te = np.zeros(2, dtype=complex)
    s_tm = np.zeros(2, dtype=complex)
    try:
        x3 = (k_m * geom.radius) ** 3
        s_te[1] = 1j * (2.0 / 3.0) * (med.mu_c - med.mu_m) * x3 / (2.0 * med.mu_m + med.mu_c)
        s_tm[1] = 1j * (2.0 / 3.0) * (med.eps_c - med.eps_m) * x3 / (2.0 * med.eps_m + med.eps_c)
    except (ZeroDivisionError, OverflowError) as exc:
        # Python complex raises where numpy scalars returned inf or nan
        raise DomainError("dipole coefficients out of double-precision range "
                          f"at omega = {omega!r}") from exc
    return ScatterCoeffs(n_max=1, s_te=s_te, s_tm=s_tm, k_m=k_m)


@functools.lru_cache(maxsize=None)
def _degrees(n_max: int) -> np.ndarray:
    """Degree n of each packed harmonics row (n = 1..n_max, m = -n..n),
    read-only because every caller shares it."""
    n = np.arange(1, n_max + 1)
    deg = np.repeat(n, 2 * n + 1)
    deg.flags.writeable = False
    return deg


def _amplitude_from_coeffs(coeffs: ScatterCoeffs, pw: PlaneWave, xhat: Direction) -> np.ndarray:
    """The amplitude as a sum over the packed (n, m) rows: each mode's
    coefficient times its incident weight, contracted with the harmonics at
    ``xhat`` by two (K,) @ (K, 3) matrix products."""
    p = pw.p_vector()
    _, Ud, Vd = specfun.harmonics_all(coeffs.n_max, pw.direction)
    _, Ux, Vx = specfun.harmonics_all(coeffs.n_max, xhat)
    pref = (4.0 * math.pi) ** 2 / coeffs.k_m
    deg = _degrees(coeffs.n_max)
    wte = coeffs.s_te[deg] * (np.conj(Vd) @ p)
    wtm = coeffs.s_tm[deg] * (np.conj(Ud) @ p)
    return pref * 1j * (wte @ Vx + wtm @ Ux)


def plane_wave_amplitude(geom: SphereGeometry, med: _media.MediumPair, omega: float,
                         pw: PlaneWave, xhat: Direction, n_max: int | None = None) -> np.ndarray:
    """Scattering amplitude A_inf(xhat), normalized so that the scattered
    far field is E^s ~ -exp(i k_m |x|) / (4 pi |x|) * A_inf(xhat)."""
    return _amplitude_from_coeffs(scattering_coeffs(geom, med, omega, n_max), pw, xhat)


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
    if coeffs.k_m.real == 0:
        # the optical theorem divides by it, and by k_m in the amplitude
        raise DomainError(f"extinction undefined at host wavenumber k_m = {coeffs.k_m!r}")
    p = pw.p_vector()
    A = _amplitude_from_coeffs(coeffs, pw, pw.direction)
    forward = complex(np.dot(p, A)) / float(np.dot(p, p))
    return -forward.imag / coeffs.k_m.real + 0.0  # +0.0 normalizes -0.0


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

    ``media_fn(omega)`` supplies the MediumPair at each grid point.  Each
    point's frequency is passed on as a Python float, so the per-point
    scalar arithmetic (permittivity, wavenumbers, Bessel arguments) runs on
    Python floats and complexes rather than numpy scalars; ``qext[i]`` is
    ``extinction(geom, media_fn(w), w, pw, mode)`` with ``w = float(om[i])``.
    ``jobs`` is accepted and ignored: points are evaluated in grid order in
    the calling thread, because a thread pool only contends for the
    interpreter lock and was measured slower.
    """
    om = np.asarray(list(omegas), dtype=float)
    if om.size < 3:
        raise DomainError("scan grid needs at least 3 frequencies")
    if np.any(np.diff(om) <= 0):
        raise DomainError("scan grid must be strictly increasing")
    q = np.array([extinction(geom, media_fn(w), w, pw, mode=mode) for w in om.tolist()])
    return Spectrum(omega=om, qext=q, peaks=find_peaks(om, q))


def write_spectrum_csv(spec: Spectrum, path) -> None:
    """CSV export: header ``omega,qext``, 17 significant digits, LF endings.
    A non-finite value is refused with DomainError, and nothing is written."""
    if not (np.isfinite(spec.omega).all() and np.isfinite(spec.qext).all()):
        raise non_finite_artifact(Path(path).name)
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
