"""Core-shell (two-interface) boundary system: shell Neumann-Poincare
spectrum, degenerate second-order eigenvalue branches of its 8x8
size-expansion blocks (dense in ``tests/_oracles.py``, the test reference),
and hybridized resonances.

Geometry: outer radius ``r_s``, radius ratio ``rho = r_c / r_s`` in (0, 1).
The shell material ``(eps_s, mu_s)`` is passed as the particle side of a
``MediumPair`` against the host ``(eps_m, mu_m)``; the core is host material.

The leading-order matrix W0 couples the outer/inner surfaces pairwise, and
its spectrum is ``{lambda_mu +/- L, lambda_eps +/- L}`` with
``L = shell_np_eigenvalue(n, rho)``, each eigenvalue of multiplicity two.
Because W0 is non-symmetric, second-order coefficients are computed with the
analytic left/right (biorthogonal) eigenvectors of the 2x2 coupling blocks.

The geometric coefficients of ``shell_coeffs`` come from the sphere's: the
same exact product table (``specfun.product_coeffs``) evaluated at the
radius ratio.  Branch k of the eight is returned as the sphere's
``EigenExpansion`` with family ``"branchk"`` and basis index k - 1.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import media as _media
from . import specfun
from . import sphere_modes as _sphere
from .errors import DegeneracyError, DomainError


@dataclass(frozen=True)
class ShellGeometry:
    r_s: float
    rho: float

    def __post_init__(self):
        if not 0 < self.r_s < math.inf:
            raise DomainError("outer radius must be positive and finite")
        if not (0.0 < self.rho < 1.0):
            raise DomainError("radius ratio rho must lie in (0, 1)")


@dataclass(frozen=True)
class ShellCoeffs:
    """Geometric expansion coefficients at (n, rho); tilded entries carry the
    inner-surface radius ratio."""

    f: float
    g: float
    p: float
    q: float
    r: float
    s: float
    pt: float
    qt: float
    rt: float
    st: float


def shell_np_eigenvalue(n: int, rho: float) -> float:
    """Shell Neumann-Poincare eigenvalue magnitude
    ``(1/(2(2n+1))) sqrt(1 + 4n(n+1) rho^(2n+1))``; the spectrum carries both
    signs (bonding/antibonding hybridization)."""
    if n < 1:
        raise DomainError("shell eigenvalues are indexed by n >= 1")
    if not (0.0 < rho < 1.0):
        raise DomainError("rho must lie in (0, 1)")
    return math.sqrt(1.0 + 4.0 * n * (n + 1) * rho ** (2 * n + 1)) / (2.0 * (2 * n + 1))


@functools.lru_cache(maxsize=None)
def _qrs_terms(n: int) -> tuple[tuple[float, float], ...]:
    """The (tt, t) product-table terms that sum to the sphere's q_n, r_n and
    s_n, as floats, cached per n."""
    c = specfun.product_coeffs(n)
    return tuple((float(sign * c[kind][1]), float(sign * c[kind][2]))
                 for kind, sign in _sphere.QRS_KINDS)


def shell_coeffs(n: int, rho: float) -> ShellCoeffs:
    """All geometric coefficients of the shell expansion at (n, rho).

    The tilded q, r, s are the sphere's product expansions evaluated with
    the radius ratio t/tt = rho: the tt and t terms of each pair carry
    rho**n and rho**(n+2) (rho**(n+1) and rho**(n+3) for st).
    """
    if not (0.0 < rho < 1.0):
        raise DomainError("rho must lie in (0, 1)")
    p, q, r, s = _sphere.small_r_floats(n)
    (q_tt, q_t), (r_tt, r_t), (s_tt, s_t) = _qrs_terms(n)
    f = rho**n * n / (2 * n + 1)
    g = rho ** (n - 1) * (n + 1) / (2 * n + 1)
    pt = rho ** (n + 1) / (2 * n + 1)
    qt = q_tt * rho**n + q_t * rho ** (n + 2)
    rt = r_tt * rho**n + r_t * rho ** (n + 2)
    st = s_tt * rho ** (n + 1) + s_t * rho ** (n + 3)
    return ShellCoeffs(f=f, g=g, p=p, q=q, r=r, s=s, pt=pt, qt=qt, rt=rt, st=st)


#: branch -> (pair index a, sign of L in the eigenvalue, contrast sector)
_BRANCH_DEF = {
    1: (1, +1, "mu"), 2: (2, +1, "mu"), 3: (1, -1, "mu"), 4: (2, -1, "mu"),
    5: (3, +1, "eps"), 6: (4, +1, "eps"), 7: (3, -1, "eps"), 8: (4, -1, "eps"),
}


@functools.lru_cache(maxsize=None, typed=True)
def _pair_vectors(n: int, rho: float):
    """Right/left eigenvector components (upper, lower) per branch, plus
    normalizers, in the pair coordinates; with L and ``shell_coeffs``.

    These depend on (n, rho) alone, so they are computed once per (n, rho)
    and returned read-only: mappings from branch to value.

    With x = 4n(n+1) rho^(2n+1), L = phat sqrt(1 + x), and every L - phat
    is taken as ``phat x / (sqrt(1 + x) + 1)``, which equals it exactly but
    does not cancel as rho shrinks.  The smallest products that a branch row
    forms are of order x rho; where that leaves the normal range of double
    precision (rho below about 7e-78 at n = 1, 2e-39 at n = 3), digits of
    tau2 are lost, and DomainError names rho and n.
    """
    c = shell_coeffs(n, rho)
    phat = _media.ball_np_eigenvalue(n)
    L = shell_np_eigenvalue(n, rho)
    x = 4.0 * n * (n + 1) * rho ** (2 * n + 1)
    if x * rho < sys.float_info.min:
        raise DomainError(f"shell rho = {rho!r} is too small at degree n = {n}: "
                          "4n(n+1) rho^(2n+2) underflows double precision, and with it "
                          "the products of the biorthogonal eigenvectors")
    # L - phat = phat (sqrt(1 + x) - 1) = phat x / (sqrt(1 + x) + 1)
    gap = {+1: L + phat, -1: phat * x / (math.sqrt(1.0 + x) + 1.0)}
    right = {}
    left = {}
    norm = {}
    for b, (a, sgn, _) in _BRANCH_DEF.items():
        # sgn L + phat (odd pairs) or sgn L - phat (even pairs) is sgn * gap[s]
        s = sgn if a in (1, 3) else -sgn
        up = sgn * gap[s]
        if a in (1, 3):   # pairs with coupling [[+phat, rho^2 g], [f, -phat]]
            right[b] = (up, c.f)
            left[b] = (up, rho**2 * c.g)
        else:             # pairs with coupling [[-phat, rho^2 f], [g, +phat]]
            right[b] = (up, c.g)
            left[b] = (up, rho**2 * c.f)
        norm[b] = 2.0 * L * gap[s]
    return MappingProxyType(right), MappingProxyType(left), MappingProxyType(norm), L, c


class _ShellRows:
    """The guards of one degree-n shell expansion at one medium, all run on
    construction, and the constants that its branch rows share.

    ``shell_degenerate_expansion`` builds every row; the corrected tau of a
    resonance search builds only the row of its branch.  ``branches`` are
    the branches defined for the medium.
    """

    def __init__(self, n: int, rho: float, med: _media.MediumPair):
        con = _media.contrasts(med)
        self.right, self.left, self.norm, L, self.c = _pair_vectors(n, rho)
        self.n, self.rho, self.L = n, rho, L
        self.nonmagnetic = con.nonmagnetic
        lam_eps = con.lambda_eps
        if self.nonmagnetic:
            self.c_mu, self.c_eps = 1.0, -med.mu_m  # C_mu enters only via its lambda_mu limit
            self.d_eps = -med.mu_m * (med.eps_c + med.eps_m)
            self.lam = {"eps": lam_eps}
            self.branches = (5, 6, 7, 8)
            self.cross_limit = med.eps_m - med.eps_c   # lim C_mu / (tau_eps - tau_mu)
            return
        lam_mu = con.lambda_mu
        if _media.any_of(abs(lam_mu - lam_eps) < 1e-8):
            raise DegeneracyError("lambda_mu - lambda_eps below tolerance",
                                  combination="lambda_mu - lambda_eps")
        for s1 in (+1, -1):
            gap = lam_mu - lam_eps + 2 * s1 * L
            if _media.any_of(abs(gap) < 1e-8):
                raise DegeneracyError("lambda_mu - lambda_eps -/+ 2L below tolerance",
                                      combination=f"lambda_mu - lambda_eps {'+' if s1 > 0 else '-'} 2L")
        self.c_mu, self.c_eps, self.d_mu, self.d_eps = _sphere.material_constants(med)
        self.lam = {"mu": lam_mu, "eps": lam_eps}
        self.branches = (1, 2, 3, 4, 5, 6, 7, 8)

    # Coordinate pairs (e_a, e_{a+4}), a = 1..4, close under W0 and W2; W1
    # maps pair a to pair 5 - a.  Pairs 1, 2 are the mu sector, 3, 4 the eps
    # sector; odd pairs take the (q, r) coefficients, even pairs (p, s).
    def _w1(self, a: int, up, lo):
        """The omega-stripped W1 on a pair-a vector; the result is in pair 5 - a."""
        c, rho = self.c, self.rho
        k = self.c_eps if a < 3 else self.c_mu
        col_p = k * (c.q if a % 2 else c.p)
        col_q = k * (c.qt if a % 2 else c.pt)
        return up * col_p + lo * rho * col_q, up * (-col_q / rho) - lo * col_p

    def _w2(self, a: int, up, lo):
        """The omega^2-stripped W2 on a pair-a vector, which stays in pair a."""
        c, rho = self.c, self.rho
        d = self.d_mu if a < 3 else self.d_eps
        if a % 2:
            p2, q2, r2 = d * c.r, rho * (d * c.rt), (1.0 / rho) * (d * c.st)
        else:
            p2, q2, r2 = d * c.s, rho * (d * c.st), (1.0 / rho) * (-d * c.rt)
        return up * p2 + lo * q2, up * r2 - lo * p2

    def tau0(self, b: int) -> complex | np.ndarray:
        """Leading term of branch b."""
        _, sgn, sector = _BRANCH_DEF[b]
        return self.lam[sector] + sgn * self.L

    def row(self, b: int) -> _sphere.EigenExpansion:
        """Branch b, with its second-order coefficient and its mixing with
        the branches of pair 5 - a."""
        right, left, norm = self.right, self.left, self.norm
        a = _BRANCH_DEF[b][0]
        up, lo = right[b]
        lw_up, lw_lo = left[b]
        # diagonal second-order term
        w2u, w2l = self._w2(a, up, lo)
        el = lw_up * w2u + lw_lo * w2l
        y_up, y_lo = self._w1(a, up, lo)   # W1 v_b
        tau0 = self.tau0(b)
        mixing = []
        for cb, (ca, _, _) in _BRANCH_DEF.items():
            if ca != 5 - a:
                continue
            x_up, x_lo = self._w1(ca, *right[cb])
            elem_bc = lw_up * x_up + lw_lo * x_lo   # (w_b . W1 v_cb)
            lcu, lcl = left[cb]
            elem_cb = lcu * y_up + lcl * y_lo       # (w_cb . W1 v_b)
            if self.nonmagnetic:
                # elem_cb carries the placeholder C_mu = 1; the 1/gap combines
                # with it into the finite limit eps_m - eps_s.
                mix = elem_cb * self.cross_limit / norm[cb]
            else:
                mix = elem_cb / (norm[cb] * (tau0 - self.tau0(cb)))
            # elem_bc times the mixing, not elem_bc * elem_cb first: for an
            # inner-surface partner that product is O(rho^(4n+2)) and
            # underflows long before the quotient does
            el += elem_bc * mix
            mixing.append((cb - 1, mix))
        return _sphere.EigenExpansion(family=f"branch{b}", n=self.n, index=b - 1, tau0=tau0,
                                      tau2_coeff=el / norm[b], mixing=tuple(mixing))


def shell_degenerate_expansion(n: int, rho: float, omega: float | np.ndarray,
                               med: _media.MediumPair) -> list[_sphere.EigenExpansion]:
    """The eight second-order eigenvalue branches of the assembled system.

    Built by degenerate perturbation theory with the analytic biorthogonal
    eigenvectors of W0 (the second-order coupling matrix is diagonal in this
    basis, so the degenerate pairs split cleanly and the O(r_s) term vanishes
    identically).  For nonmagnetic media only branches 5..8 are returned,
    with cross terms and mixing coefficients evaluated in the exact
    mu_s -> mu_m limit.

    ``omega`` and the medium's permittivities may be arrays over a frequency
    grid; ``tau0``, ``tau2_coeff`` and the mixing coefficients are then
    arrays of the same shape.  A degenerate grid point raises the error a
    scalar call raises there (if several points are degenerate in different
    ways, the order of the checks picks which).
    """
    rows = _ShellRows(n, rho, med)
    return [rows.row(b) for b in rows.branches]


#: eps branches continuing the solid-sphere eps families as rho -> 0
#: (matched numerically on (tau0, tau2) at rho = 1e-3).  The branch whose
#: leading term is lambda_eps + L resonates where lambda_eps = -L (the lower,
#: bonding root); its partner at lambda_eps - L gives the antibonding root.
_EPS_BRANCHES = ((5, +1, "bonding"), (7, -1, "antibonding"))


def shell_resonances(host: _media.MaterialPreset, geom: ShellGeometry, order: str,
                     n_cut: int = 2,
                     omega_range: tuple[float, float] = (0.05, 0.99),
                     n_grid: int = 400) -> list[_sphere.ResonanceReport]:
    """Hybridized resonances of a Drude shell: for each degree n <= n_cut,
    the bonding/antibonding pair of roots of ``lambda_eps(omega) = -/+ L``
    (quasistatic) or the minimizers including the (r_s*omega)^2 branch shift
    (corrected), for each order of ``sphere_modes.ORDERS[order]``; the
    reports come order by order.  The shell is the preset's particle
    material (``host.drude``, ``host.mu_c``); the core and the surroundings
    are its host medium."""
    if order not in _sphere.ORDERS:
        raise DomainError(f"unknown order {order!r}")
    branches = []
    for n in range(1, n_cut + 1):
        L = shell_np_eigenvalue(n, geom.rho)
        branches += [_eps_branch(host, geom, n, L, *eps_branch) for eps_branch in _EPS_BRANCHES]
    return _sphere.resonance_reports(branches, _sphere.ORDERS[order], omega_range, n_grid)


def _eps_branch(host: _media.MaterialPreset, geom: ShellGeometry, n: int, L: float,
                branch: int, sgn: int, fam: str):
    """``(family, n, tau_qs, tau_corrected)`` of one eps branch."""

    def tau_qs(w: float | np.ndarray) -> complex | np.ndarray:
        return _media.contrasts(host.medium_at(w)).lambda_eps + sgn * L

    def tau(w: float | np.ndarray) -> complex | np.ndarray:
        e = _ShellRows(n, geom.rho, host.medium_at(w)).row(branch)
        return e.tau0 + (geom.r_s * w) ** 2 * e.tau2_coeff

    return fam, n, tau_qs, tau
