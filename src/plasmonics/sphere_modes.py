"""Size-perturbed eigenvalue expansions of the single-sphere boundary system.

Per harmonic degree n the scaled boundary system is a 4x4 matrix family
``W(r) = W0 + r W1 + r^2 W2 + O(r^3)`` on the (U, V, U, V) mode basis.  W0 is
diagonal with entries ``lambda_mu +/- 1/(2(2n+1))`` and
``lambda_eps +/- 1/(2(2n+1))``; the four eigenvalue branches pick up no O(r)
term and an explicit (r w)^2 correction.  A resonance is a frequency where a
branch modulus is locally minimal: quasistatic uses the r-independent leading
term, the corrected order adds the (r w)^2 shift.

Family labels: ``"mu+", "mu-", "eps+", "eps-"`` name the sign of the
``1/(2(2n+1))`` offset in the leading term.  For nonmagnetic media only the
eps families are defined (the magnetic contrast diverges); their second-order
coefficients are the exact ``mu_c -> mu_m`` limits.  Cross-checks against
exact Mie spectra show the physically excited dipole family is ``eps+``
(leading term ``lambda_eps + 1/(2(2n+1))``, zero at ``eps_c = -(n+1)/n
eps_m``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import media as _media
from . import specfun
from .errors import DegeneracyError, DegenerateContrastError, DomainError

FAMILIES = ("mu+", "mu-", "eps+", "eps-")


@dataclass(frozen=True)
class ModeBlock:
    """Matrix triple of the size expansion for one degree n."""

    n: int
    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def assembled(self, r: float) -> np.ndarray:
        return self.w0 + r * self.w1 + r * r * self.w2


@dataclass(frozen=True)
class EigenExpansion:
    """One eigenvalue branch: tau(r) = tau0 + (r*omega)^2 * tau2_coeff.

    The perturbed eigenvector is ``eigvec0 + (r*omega) * eigvec1_coeff *
    e_partner`` with ``partner`` 0-based; the eigenvector fields are None in
    the nonmagnetic reduction, where the 4x4 system degenerates to the two
    eps families.
    """

    family: str
    n: int
    tau0: complex
    tau1: complex
    tau2_coeff: complex
    eigvec0: np.ndarray | None
    eigvec1_coeff: complex | None
    partner: int | None


@dataclass(frozen=True)
class ResonanceReport:
    omega_star: float | None
    order: str
    family: str
    n: int
    tau_at_min: complex | None
    shift_from_quasistatic: float
    fwhm_estimate: float | None
    found: bool


def small_r_coeffs(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact rational coefficients (p_n, q_n, r_n, s_n) of the small-radius
    Bessel-product expansions."""
    if n < 1:
        raise DomainError("small_r_coeffs requires n >= 1")
    p = Fraction(1, 2 * n + 1)
    q = Fraction((n + 1) * (n - 2), 2 * (2 * n - 1) * (2 * n + 1)) \
        - Fraction(n * (n + 3), 2 * (2 * n + 1) * (2 * n + 3))
    r = Fraction(-(n + 1), 2 * (2 * n - 1) * (2 * n + 1)) \
        + Fraction(n + 3, 2 * (2 * n + 1) * (2 * n + 3))
    s = Fraction(-(n - 2), 2 * (2 * n - 1) * (2 * n + 1)) \
        + Fraction(n, 2 * (2 * n + 1) * (2 * n + 3))
    return p, q, r, s


def half_np_eigenvalue(n: int) -> float:
    """Diagonal offset 1/(2(2n+1)) of the leading-order matrix."""
    return 1.0 / (2.0 * (2 * n + 1.0))


def boundary_matrices(n: int, k: complex, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact 2x2 mode-basis representations (M, L) of the two boundary
    operators on a sphere of radius r at wavenumber k."""
    if r <= 0:
        raise DomainError("radius must be positive")
    k = complex(k)
    if k == 0:
        raise DomainError("wavenumber must be nonzero")
    kr = k * r
    j, h = specfun.bessel_pair(n, kr)
    J, H = specfun.riccati_pair(n, kr)
    M = np.array([[0.5 - 1j * kr * h * J, 0.0],
                  [0.0, 0.5 + 1j * kr * j * H]], dtype=complex)
    L = np.array([[0.0, 1j * k * kr * kr * j * h],
                  [-1j * k * J * H, 0.0]], dtype=complex)
    return M, L


def material_constants(med: _media.MediumPair) -> tuple[complex, complex, complex, complex]:
    """(C_mu, C_eps, D_mu, D_eps) entering the first/second-order blocks."""
    if med.mu_c == med.mu_m:
        raise DegenerateContrastError("magnetic constants undefined for mu_c == mu_m")
    if med.eps_c == med.eps_m:
        raise DegenerateContrastError("electric constants undefined for eps_c == eps_m")
    num = med.mu_c * med.eps_c - med.mu_m * med.eps_m
    c_mu = num / (med.mu_m - med.mu_c)
    c_eps = num / (med.eps_m - med.eps_c)
    d_mu = (med.eps_c * med.mu_c**2 - med.eps_m * med.mu_m**2) / (med.mu_m - med.mu_c)
    d_eps = (med.eps_c**2 * med.mu_c - med.eps_m**2 * med.mu_m) / (med.eps_m - med.eps_c)
    return c_mu, c_eps, d_mu, d_eps


def w_blocks(n: int, omega: float, med: _media.MediumPair) -> ModeBlock:
    """The (W0, W1, W2) triple for degree n at frequency omega.

    Requires contrast in both eps and mu; for nonmagnetic media use
    ``eigen_expansions`` directly, which implements the mu_c -> mu_m limit of
    the eps families.
    """
    con = _media.contrasts(med)
    if con.nonmagnetic:
        raise DegenerateContrastError(
            "w_blocks needs magnetic contrast; nonmagnetic media reduce to the eps families")
    lam_mu, lam_eps = con.lambda_mu, con.lambda_eps
    if abs(lam_mu - lam_eps) < 1e-12:
        raise DegeneracyError("lambda_mu == lambda_eps violates the simple-spectrum condition")
    p, q, r, s = (float(c) for c in small_r_coeffs(n))
    phat = half_np_eigenvalue(n)
    c_mu, c_eps, d_mu, d_eps = material_constants(med)
    w0 = np.diag([lam_mu + phat, lam_mu - phat, lam_eps + phat, lam_eps - phat]).astype(complex)
    w1 = np.zeros((4, 4), dtype=complex)
    w1[0, 3] = omega * c_mu * p
    w1[1, 2] = omega * c_mu * q
    w1[2, 1] = omega * c_eps * p
    w1[3, 0] = omega * c_eps * q
    w2 = omega**2 * np.diag([d_mu * r, d_mu * s, d_eps * r, d_eps * s]).astype(complex)
    return ModeBlock(n=n, w0=w0, w1=w1, w2=w2)


def eigen_expansions(n: int, omega: float, med: _media.MediumPair) -> list[EigenExpansion]:
    """Eigenvalue/eigenvector expansions of the assembled system.

    Magnetic media yield the four families with first-order eigenvector
    mixing; nonmagnetic media yield the two eps families with the exact
    mu_c -> mu_m limit of the second-order coefficient.
    """
    p, q, r, s = (float(c) for c in small_r_coeffs(n))
    phat = half_np_eigenvalue(n)
    con = _media.contrasts(med)
    lam_eps = con.lambda_eps
    if con.nonmagnetic:
        # C_mu / (lam_eps - lam_mu -+ p) -> eps_m - eps_c as mu_c -> mu_m
        mu = med.mu_m
        c_eps = -mu
        d_eps = -mu * (med.eps_c + med.eps_m)
        cross = c_eps * (med.eps_m - med.eps_c) * p * q
        out = []
        for fam, sign, tail in (("eps+", +1.0, r), ("eps-", -1.0, s)):
            out.append(EigenExpansion(
                family=fam, n=n, tau0=lam_eps + sign * phat, tau1=0.0,
                tau2_coeff=cross + d_eps * tail,
                eigvec0=None, eigvec1_coeff=None, partner=None))
        return out
    lam_mu = con.lambda_mu
    if abs(lam_mu - lam_eps) < 1e-12:
        raise DegeneracyError("lambda_mu == lambda_eps violates the simple-spectrum condition")
    c_mu, c_eps, d_mu, d_eps = material_constants(med)
    for gap, sign in ((lam_mu - lam_eps + p, "+"), (lam_mu - lam_eps - p, "-")):
        if abs(gap) < 1e-12:
            raise DegeneracyError(
                "perturbation denominator lambda_mu - lambda_eps -+ p_n vanishes",
                combination=f"lambda_mu - lambda_eps {sign} p_n")
    cc = c_eps * c_mu * p * q
    tau2 = {
        "mu+": cc / (lam_mu - lam_eps + p) + d_mu * r,
        "mu-": cc / (lam_mu - lam_eps - p) + d_mu * s,
        "eps+": cc / (lam_eps - lam_mu + p) + d_eps * r,
        "eps-": cc / (lam_eps - lam_mu - p) + d_eps * s,
    }
    tau0 = {"mu+": lam_mu + phat, "mu-": lam_mu - phat,
            "eps+": lam_eps + phat, "eps-": lam_eps - phat}
    mixing = {
        "mu+": (3, c_eps * q / (lam_mu - lam_eps + p)),
        "mu-": (2, c_eps * p / (lam_mu - lam_eps - p)),
        "eps+": (1, c_mu * q / (lam_eps - lam_mu + p)),
        "eps-": (0, c_mu * p / (lam_eps - lam_mu - p)),
    }
    out = []
    for i, fam in enumerate(FAMILIES):
        e0 = np.zeros(4, dtype=complex)
        e0[i] = 1.0
        partner, coef = mixing[fam]
        out.append(EigenExpansion(
            family=fam, n=n, tau0=tau0[fam], tau1=0.0,
            tau2_coeff=tau2[fam],
            eigvec0=e0, eigvec1_coeff=coef, partner=partner))
    return out


def _golden_minimize(f, a: float, b: float, tol: float = 1e-10) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def minimize_modulus(f, omega_range: tuple[float, float], n_grid: int = 200,
                     tol: float = 1e-10) -> float | None:
    """Bracketed golden-section minimizer of |f(omega)| over a coarse grid.

    Returns None when no interior minimum exists on the grid.
    """
    lo, hi = omega_range
    if not (0 < lo < hi):
        raise DomainError("omega_range must satisfy 0 < lo < hi")
    grid = np.linspace(lo, hi, n_grid)
    vals = np.array([abs(f(w)) for w in grid])
    i = int(np.argmin(vals))
    if i == 0 or i == n_grid - 1:
        return None
    return _golden_minimize(lambda w: abs(f(w)), grid[i - 1], grid[i + 1], tol=tol)


def _tau_function(family: str, n: int, drude: _media.DrudeParams, host: _media.MaterialPreset,
                  r: float, order: str):
    def tau(w: float) -> complex:
        med = _media.MediumPair(eps_m=complex(host.eps_m), mu_m=complex(host.mu_m),
                                eps_c=_media.drude_permittivity(drude, w),
                                mu_c=complex(host.mu_c))
        exps = {e.family: e for e in eigen_expansions(n, w, med)}
        if family not in exps:
            raise DomainError(f"family {family!r} undefined for nonmagnetic media")
        e = exps[family]
        if order == "quasistatic":
            return e.tau0
        return e.tau0 + (r * w) ** 2 * e.tau2_coeff
    return tau


def find_resonance(family: str, n: int, drude: _media.DrudeParams,
                   host: _media.MaterialPreset, r: float, order: str,
                   omega_range: tuple[float, float] = (0.05, 0.99),
                   n_grid: int = 200) -> ResonanceReport:
    """Locate the resonance of one (family, n) branch by minimizing |tau|.

    ``order="quasistatic"`` minimizes the size-independent leading term;
    ``order="corrected"`` includes the (r*omega)^2 shift and reports the
    frequency displacement relative to the quasistatic root (see
    ``resonance_report``).
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if order not in ("quasistatic", "corrected"):
        raise DomainError(f"unknown order {order!r}")
    return resonance_report(
        family, n, order, _tau_function(family, n, drude, host, r, "quasistatic"),
        _tau_function(family, n, drude, host, r, "corrected"), omega_range, n_grid)


def resonance_report(family: str, n: int, order: str, tau_qs, tau_corrected,
                     omega_range: tuple[float, float], n_grid: int) -> ResonanceReport:
    """Minimize |tau| and report the root, linewidth and quasistatic shift.

    ``tau_qs`` and ``tau_corrected`` are the branch functions of the two
    orders; the corrected one is used only for ``order="corrected"``.  The
    report is not found when either minimizer lies on the grid edge.  The
    linewidth estimate is the Lorentzian value ``2 |Im tau| / |d Re tau / d
    omega|`` at the minimizer.
    """
    om_qs = minimize_modulus(tau_qs, omega_range, n_grid)
    tau = tau_qs if order == "quasistatic" else tau_corrected
    om_star = om_qs if order == "quasistatic" else minimize_modulus(tau, omega_range, n_grid)
    if om_star is None or om_qs is None:
        return ResonanceReport(omega_star=None, order=order, family=family, n=n,
                               tau_at_min=None, shift_from_quasistatic=math.nan,
                               fwhm_estimate=None, found=False)
    tau_min = tau(om_star)
    h = 1e-6 * om_star
    dre = (tau(om_star + h).real - tau(om_star - h).real) / (2 * h)
    fwhm = 2.0 * abs(tau_min.imag) / abs(dre) if dre != 0 else None
    shift = 0.0 if order == "quasistatic" else om_star - om_qs
    return ResonanceReport(omega_star=om_star, order=order, family=family, n=n,
                           tau_at_min=tau_min, shift_from_quasistatic=shift,
                           fwhm_estimate=fwhm, found=True)
