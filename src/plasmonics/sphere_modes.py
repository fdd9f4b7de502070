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
and mixing coefficients are the exact ``mu_c -> mu_m`` limits.  Cross-checks
against exact Mie spectra show the physically excited dipole family is
``eps+`` (leading term ``lambda_eps + 1/(2(2n+1))``, zero at ``eps_c =
-(n+1)/n eps_m``).

The offset is ``media.ball_np_eigenvalue``; ``small_r_coeffs`` sums the exact
product table ``specfun.product_coeffs``.  Sphere and shell branches are both
``EigenExpansion``s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import media as _media
from . import specfun
from .errors import DegeneracyError, DegenerateContrastError, DomainError

FAMILIES = ("mu+", "mu-", "eps+", "eps-")

#: (product kind, sign) whose linear terms sum to q_n, r_n and s_n
QRS_KINDS = (("JH", -1), ("Jh", -1), ("jH", 1))


@dataclass(frozen=True)
class ModeBlock:
    """Matrix triple of the size expansion for one degree n: 4x4 for a
    sphere (``w_blocks``), 8x8 for a shell (``shell_modes.shell_blocks``)."""

    n: int
    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def assembled(self, r: float) -> np.ndarray:
        return self.w0 + r * self.w1 + r * r * self.w2


@dataclass(frozen=True)
class EigenExpansion:
    """One eigenvalue branch of a sphere (``eigen_expansions``) or a shell
    (``shell_modes.shell_degenerate_expansion``):
    tau(r) = tau0 + (r*omega)^2 * tau2_coeff, r the (outer) radius.

    ``family`` is the branch label (``"eps+"`` for a sphere, ``"branch5"``
    for a shell) and ``index`` its 0-based position in the basis: the
    (U, V, U, V) mode basis of a sphere, the W0 eigenbasis E1..E8 of a shell.
    The first-order eigenvector is ``e_index + (r*omega) * sum(coef *
    e_partner)`` over the ``(partner, coef)`` pairs of ``mixing``, partners
    0-based in the same basis (for nonmagnetic media, the mu_c -> mu_m limit).
    """

    family: str
    n: int
    index: int
    tau0: complex | np.ndarray
    tau1: complex
    tau2_coeff: complex | np.ndarray
    mixing: tuple[tuple[int, complex | np.ndarray], ...]


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


@functools.lru_cache(maxsize=None)
def small_r_coeffs(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact rational coefficients (p_n, q_n, r_n, s_n) of the small-radius
    Bessel-product expansions, cached per n: every tau evaluation of a
    resonance search asks for the same few degrees.

    From the (lead, tt, t) rows of ``specfun.product_coeffs``: p is the jh
    lead, q = -(JH_tt + JH_t), r = -(Jh_tt + Jh_t), s = jH_tt + jH_t (the
    kinds and signs of ``QRS_KINDS``).
    """
    if n < 1:
        raise DomainError("small_r_coeffs requires n >= 1")
    c = specfun.product_coeffs(n)
    return (c["jh"][0], *(sign * (c[kind][1] + c[kind][2]) for kind, sign in QRS_KINDS))


@functools.lru_cache(maxsize=None)
def small_r_floats(n: int) -> tuple[float, float, float, float]:
    """``small_r_coeffs(n)`` rounded to floats, cached per n."""
    return tuple(float(c) for c in small_r_coeffs(n))


def material_constants(med: _media.MediumPair) -> tuple[complex, complex, complex, complex]:
    """(C_mu, C_eps, D_mu, D_eps) entering the first/second-order blocks;
    complex arrays when the medium's permittivities are arrays.

    A scalar square beyond double-precision range (a permeability or
    permittivity of order 1e154 or more) raises DomainError.
    """
    if med.mu_c == med.mu_m:
        raise DegenerateContrastError("magnetic constants undefined for mu_c == mu_m")
    if _media.any_of(med.eps_c == med.eps_m):
        raise DegenerateContrastError("electric constants undefined for eps_c == eps_m")
    num = med.mu_c * med.eps_c - med.mu_m * med.eps_m
    c_mu = num / (med.mu_m - med.mu_c)
    c_eps = num / (med.eps_m - med.eps_c)
    try:
        d_mu = (med.eps_c * med.mu_c**2 - med.eps_m * med.mu_m**2) / (med.mu_m - med.mu_c)
        d_eps = (med.eps_c**2 * med.mu_c - med.eps_m**2 * med.mu_m) / (med.eps_m - med.eps_c)
    except OverflowError as exc:
        raise DomainError("material constants D_mu, D_eps overflow double precision: "
                          "a permittivity or permeability is too large") from exc
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
    p, q, r, s = small_r_floats(n)
    phat = _media.ball_np_eigenvalue(n)
    c_mu, c_eps, d_mu, d_eps = material_constants(med)
    w0 = np.diag([lam_mu + phat, lam_mu - phat, lam_eps + phat, lam_eps - phat]).astype(complex)
    w1 = np.zeros((4, 4), dtype=complex)
    w1[0, 3] = omega * c_mu * p
    w1[1, 2] = omega * c_mu * q
    w1[2, 1] = omega * c_eps * p
    w1[3, 0] = omega * c_eps * q
    w2 = omega**2 * np.diag([d_mu * r, d_mu * s, d_eps * r, d_eps * s]).astype(complex)
    return ModeBlock(n=n, w0=w0, w1=w1, w2=w2)


class _SphereRows:
    """The guards of one degree-n expansion at one medium, all run on
    construction, and the constants that its family rows share.

    ``eigen_expansions`` builds every row; the tau of a resonance search
    builds only the row of its family, and the quasistatic tau only its
    ``tau0``.  ``indices`` are the families defined for the medium.
    """

    def __init__(self, n: int, med: _media.MediumPair):
        p, q, r, s = self.coeffs = small_r_floats(n)
        self.n = n
        self.phat = _media.ball_np_eigenvalue(n)
        con = _media.contrasts(med)
        lam_eps = self.lam_eps = con.lambda_eps
        self.nonmagnetic = con.nonmagnetic
        if con.nonmagnetic:
            # C_mu / (lam_eps - lam_mu -+ p) -> eps_m - eps_c as mu_c -> mu_m
            c_eps, self.d_eps = -med.mu_m, -med.mu_m * (med.eps_c + med.eps_m)
            self.mix_limit = med.eps_m - med.eps_c
            self.cross = c_eps * self.mix_limit * p * q
            self.indices = (2, 3)
            return
        lam_mu = self.lam_mu = con.lambda_mu
        if _media.any_of(abs(lam_mu - lam_eps) < 1e-12):
            raise DegeneracyError("lambda_mu == lambda_eps violates the simple-spectrum condition")
        self.c_mu, self.c_eps, self.d_mu, self.d_eps = material_constants(med)
        for gap, sign in ((lam_mu - lam_eps + p, "+"), (lam_mu - lam_eps - p, "-")):
            if _media.any_of(abs(gap) < 1e-12):
                raise DegeneracyError(
                    "perturbation denominator lambda_mu - lambda_eps -+ p_n vanishes",
                    combination=f"lambda_mu - lambda_eps {sign} p_n")
        self.cc = self.c_eps * self.c_mu * p * q
        self.indices = (0, 1, 2, 3)

    def tau0(self, i: int) -> complex | np.ndarray:
        """Leading term of family ``FAMILIES[i]``."""
        if self.nonmagnetic:
            return self.lam_eps + (+1.0 if i == 2 else -1.0) * self.phat
        lam = self.lam_mu if i < 2 else self.lam_eps
        return lam + self.phat if i % 2 == 0 else lam - self.phat

    def row(self, i: int) -> EigenExpansion:
        """Family ``FAMILIES[i]``: the +families take (r, q), the -families
        (s, p), and each mixes with the family of index 3 - i."""
        p, q, r, s = self.coeffs
        plus = i % 2 == 0
        tail, coef = (r, q) if plus else (s, p)
        if self.nonmagnetic:
            tau2 = self.cross + self.d_eps * tail
            mix = self.mix_limit * coef
        else:
            lam, other, d, c = ((self.lam_mu, self.lam_eps, self.d_mu, self.c_eps) if i < 2
                                else (self.lam_eps, self.lam_mu, self.d_eps, self.c_mu))
            gap = lam - other + p if plus else lam - other - p
            tau2 = self.cc / gap + d * tail
            mix = c * coef / gap
        return EigenExpansion(family=FAMILIES[i], n=self.n, index=i, tau0=self.tau0(i), tau1=0.0,
                              tau2_coeff=tau2, mixing=((3 - i, mix),))


def eigen_expansions(n: int, omega: float | np.ndarray,
                     med: _media.MediumPair) -> list[EigenExpansion]:
    """Eigenvalue/eigenvector expansions of the assembled system.

    Magnetic media yield the four families with first-order eigenvector
    mixing; nonmagnetic media yield the two eps families with the exact
    mu_c -> mu_m limits of the second-order and mixing coefficients.

    ``omega`` and the medium's permittivities may be arrays over a frequency
    grid; ``tau0``, ``tau2_coeff`` and the mixing coefficients are then
    arrays of the same shape.  A degenerate grid point raises the error a
    scalar call raises there (if several points are degenerate in different
    ways, the order of the checks picks which).
    """
    rows = _SphereRows(n, med)
    return [rows.row(i) for i in rows.indices]


def _slope_root(f, a: float, b: float) -> float:
    """Brent-Dekker root (Brent 1973, ch. 4) of the central difference
    ``g(w) = |f(w + h)|^2 - |f(w - h)|^2``, ``h = 1e-6 w``, on [a, b]; the
    bracket edge itself when g does not change sign there."""

    def g(w: float) -> float:
        h = 1e-6 * w
        return abs(f(w + h)) ** 2 - abs(f(w - h)) ** 2

    ga = g(a)
    if ga >= 0:
        return a
    gb = g(b)
    if gb <= 0:
        return b
    c, gc = a, ga
    d = e = b - a
    while True:
        if (gb > 0) == (gc > 0):
            c, gc = a, ga
            d = e = b - a
        if abs(gc) < abs(gb):
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        tol = 5e-14 * b
        m = 0.5 * (c - b)
        if abs(m) <= tol or gb == 0:
            return b
        if abs(e) >= tol and abs(ga) > abs(gb):
            s = gb / ga
            if a == c:   # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:        # inverse quadratic interpolation
                q, r = ga / gc, gb / gc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, ga = b, gb
        b += d if abs(d) > tol else math.copysign(tol, m)
        gb = g(b)


def minimize_modulus(f, omega_range: tuple[float, float], n_grid: int = 200) -> float | None:
    """Bracketed minimizer of |f(omega)| over a coarse grid.

    ``f`` must accept an array: it is called once with the whole coarse grid
    (an ndarray of ``n_grid`` frequencies) and must return the values there
    elementwise, or one value if it does not depend on omega.  Returns None
    when no interior minimum exists on the grid, as for a constant ``f``.

    The grid minimum at ``grid[i]`` brackets the minimizer in
    ``[grid[i-1], grid[i+1]]``.  There the refinement solves, with ``f``
    called on Python floats only, for the simple root of
    ``g(w) = |f(w + h)|^2 - |f(w - h)|^2`` with ``h = 1e-6 w``, a central
    difference of d|f|^2/domega, by Brent-Dekker iteration (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).  The
    minimum of |f| is flat to second order, but g crosses zero linearly, so
    the root is resolved to the stopping width: a bracket narrower than
    1e-13 w.  If g does not change sign on the bracket, the refinement
    returns the edge it descends to: the lower edge when g(lower) >= 0, else
    the upper edge when g(upper) <= 0.  Against the mpmath argmin of the
    quasistatic Drude sphere (loss 0.002 to 0.2, n = 1 to 3) the relative
    error is at most 4.4e-12, the O(h^2) bias of the central difference at
    the broadest resonance; a refinement costs 10 to 26 calls of ``f``.
    """
    lo, hi = omega_range
    if not (0 < lo < hi):
        raise DomainError("omega_range must satisfy 0 < lo < hi")
    if n_grid < 3:
        raise DomainError("n_grid must be at least 3 to bracket an interior minimum")
    grid = np.linspace(lo, hi, n_grid)
    vals = np.abs(f(grid))
    i = int(np.argmin(vals))
    if i == 0 or i == n_grid - 1:
        return None
    return _slope_root(f, float(grid[i - 1]), float(grid[i + 1]))


def _tau_function(family: str, n: int, host: _media.MaterialPreset, r: float, order: str):
    i = FAMILIES.index(family)

    def tau(w: float | np.ndarray) -> complex | np.ndarray:
        rows = _SphereRows(n, host.medium_at(w))
        if i not in rows.indices:
            raise DomainError(f"family {family!r} undefined for nonmagnetic media")
        if order == "quasistatic":
            return rows.tau0(i)
        e = rows.row(i)
        return e.tau0 + (r * w) ** 2 * e.tau2_coeff
    return tau


#: the orders a resonance search runs for each value of the CLI's ``--order``
ORDERS = {"quasistatic": ("quasistatic",), "corrected": ("corrected",),
          "both": ("quasistatic", "corrected")}


def _branch(family: str, n: int, host: _media.MaterialPreset, r: float):
    return (family, n, _tau_function(family, n, host, r, "quasistatic"),
            _tau_function(family, n, host, r, "corrected"))


def find_resonance(family: str, n: int, host: _media.MaterialPreset, r: float, order: str,
                   omega_range: tuple[float, float] = (0.05, 0.99),
                   n_grid: int = 200) -> ResonanceReport:
    """Locate the resonance of one (family, n) branch of a sphere of radius r
    made of the preset's particle material by minimizing |tau|.

    ``order="quasistatic"`` minimizes the size-independent leading term;
    ``order="corrected"`` includes the (r*omega)^2 shift and reports the
    frequency displacement relative to the quasistatic root (see
    ``resonance_reports``).
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if order not in ("quasistatic", "corrected"):
        raise DomainError(f"unknown order {order!r}")
    return resonance_reports([_branch(family, n, host, r)], (order,), omega_range, n_grid)[0]


def sphere_resonances(host: _media.MaterialPreset, r: float, order: str, n_cut: int = 2,
                      omega_range: tuple[float, float] = (0.05, 0.99),
                      n_grid: int = 200) -> list[ResonanceReport]:
    """Resonances of a sphere of radius r made of the preset's particle
    material: every family (the eps families alone in nonmagnetic media) at
    every degree n <= n_cut, for each order of ``ORDERS[order]``.

    The reports come order by order, then family by family, then by n.
    """
    if order not in ORDERS:
        raise DomainError(f"unknown order {order!r}")
    families = ("eps+", "eps-") if host.medium_at(1.0).nonmagnetic else FAMILIES
    return resonance_reports([_branch(fam, n, host, r) for fam in families
                              for n in range(1, n_cut + 1)],
                             ORDERS[order], omega_range, n_grid)


def resonance_reports(branches, orders: tuple[str, ...], omega_range: tuple[float, float],
                      n_grid: int) -> list[ResonanceReport]:
    """Minimize |tau| of each branch at each order, and report the root, the
    linewidth and the shift from the quasistatic root.

    ``branches`` holds ``(family, n, tau_qs, tau_corrected)`` tuples, the
    branch functions of the two orders.  The reports come order by order, and
    in the order of ``branches`` within one order.  Each branch's quasistatic
    root is searched once, when an order first needs it, and serves both
    orders, so a corrected shift is exactly its root minus the quasistatic
    report's.  A report is not found when either minimizer lies on the grid
    edge.  The linewidth estimate is the Lorentzian value ``2 |Im tau| /
    |d Re tau / d omega|`` at the minimizer.
    """
    qs_roots: dict[int, float | None] = {}
    reports = []
    for order in orders:
        for k, (family, n, tau_qs, tau_corrected) in enumerate(branches):
            if k not in qs_roots:
                qs_roots[k] = minimize_modulus(tau_qs, omega_range, n_grid)
            om_qs = qs_roots[k]
            if order == "quasistatic":
                tau, om_star = tau_qs, om_qs
            else:
                tau = tau_corrected
                om_star = minimize_modulus(tau, omega_range, n_grid)
            reports.append(_report(family, n, order, tau, om_star, om_qs))
    return reports


def _report(family: str, n: int, order: str, tau, om_star: float | None,
            om_qs: float | None) -> ResonanceReport:
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
