"""Core-shell (two-interface) boundary system: 8x8 size-expansion blocks,
shell Neumann-Poincare spectrum, degenerate second-order eigenvalue branches,
and hybridized resonances.

Geometry: outer radius ``r_s``, radius ratio ``rho = r_c / r_s`` in (0, 1).
The shell material ``(eps_s, mu_s)`` is passed as the particle side of a
``MediumPair`` against the host ``(eps_m, mu_m)``; the core is host material.

The leading-order matrix W0 couples the outer/inner surfaces pairwise, and
its spectrum is ``{lambda_mu +/- L, lambda_eps +/- L}`` with
``L = shell_np_eigenvalue(n, rho)``, each eigenvalue of multiplicity two.
Because W0 is non-symmetric, second-order coefficients are computed with the
analytic left/right (biorthogonal) eigenvectors of the 2x2 coupling blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import media as _media
from . import sphere_modes as _sphere
from .errors import DegeneracyError, DegenerateContrastError, DomainError
from .sphere_modes import ResonanceReport


@dataclass(frozen=True)
class ShellGeometry:
    r_s: float
    rho: float

    def __post_init__(self):
        if self.r_s <= 0:
            raise DomainError("outer radius must be positive")
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


@dataclass(frozen=True)
class ShellBlocks:
    n: int
    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def assembled(self, r_s: float) -> np.ndarray:
        return self.w0 + r_s * self.w1 + r_s * r_s * self.w2


@dataclass(frozen=True)
class ShellBasis:
    """Right eigenvectors E1..E8 of W0 (rows of ``vectors``), their
    eigenvalues, and the matching left eigenvectors/normalizers."""

    vectors: np.ndarray       # (8, 8) right eigenvectors
    left_vectors: np.ndarray  # (8, 8)
    taus: np.ndarray          # (8,)
    normalizers: np.ndarray   # (8,) w_i . v_i


@dataclass(frozen=True)
class DegenExpansion:
    """One of the eight branches: tau(r_s) = tau0 + (r_s*omega)^2 * tau2_coeff.

    ``mixing`` lists (partner_branch_index_1based, coefficient) pairs; the
    first-order eigenvector is E_i + (r_s*omega) * sum(coef * E_partner).
    """

    branch: int
    n: int
    tau0: complex
    tau1: complex
    tau2_coeff: complex
    mixing: tuple[tuple[int, complex], ...]


def shell_np_eigenvalue(n: int, rho: float) -> float:
    """Shell Neumann-Poincare eigenvalue magnitude
    ``(1/(2(2n+1))) sqrt(1 + 4n(n+1) rho^(2n+1))``; the spectrum carries both
    signs (bonding/antibonding hybridization)."""
    if n < 1:
        raise DomainError("shell eigenvalues are indexed by n >= 1")
    if not (0.0 < rho < 1.0):
        raise DomainError("rho must lie in (0, 1)")
    return math.sqrt(1.0 + 4.0 * n * (n + 1) * rho ** (2 * n + 1)) / (2.0 * (2 * n + 1))


def shell_coeffs(n: int, rho: float) -> ShellCoeffs:
    """All geometric coefficients of the shell expansion at (n, rho)."""
    if not (0.0 < rho < 1.0):
        raise DomainError("rho must lie in (0, 1)")
    p, q, r, s = (float(c) for c in _sphere.small_r_coeffs(n))
    f = rho**n * n / (2 * n + 1)
    g = rho ** (n - 1) * (n + 1) / (2 * n + 1)
    pt = rho ** (n + 1) / (2 * n + 1)
    qt = (n + 1) * (n - 2) / (2 * (2 * n - 1) * (2 * n + 1)) * rho**n \
        - n * (n + 3) / (2 * (2 * n + 1) * (2 * n + 3)) * rho ** (n + 2)
    rt = -(n + 1) / (2 * (2 * n - 1) * (2 * n + 1)) * rho**n \
        + (n + 3) / (2 * (2 * n + 1) * (2 * n + 3)) * rho ** (n + 2)
    st = -(n - 2) / (2 * (2 * n - 1) * (2 * n + 1)) * rho ** (n + 1) \
        + n / (2 * (2 * n + 1) * (2 * n + 3)) * rho ** (n + 3)
    return ShellCoeffs(f=f, g=g, p=p, q=q, r=r, s=s, pt=pt, qt=qt, rt=rt, st=st)


def _pattern(c1: complex, c2: complex, c3: complex, c4: complex) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[0, 3] = c1
    out[1, 2] = c2
    out[2, 1] = c3
    out[3, 0] = c4
    return out


def shell_blocks(n: int, rho: float, omega: float, med: _media.MediumPair) -> ShellBlocks:
    """Assemble the 8x8 (W0, W1, W2) blocks for degree n.

    The leading diagonal uses the offset 1/(2(2n+1)); this is the unique
    value for which the W0 spectrum equals ``{lambda +/- L}`` with the
    closed-form shell eigenvalue L and for which the rho -> 0 limit
    reproduces the solid-sphere diagonal.
    """
    con = _media.contrasts(med)
    if con.nonmagnetic:
        raise DegenerateContrastError(
            "shell_blocks needs magnetic contrast; use shell_degenerate_expansion "
            "for the nonmagnetic eps branches")
    c = shell_coeffs(n, rho)
    phat = _sphere.half_np_eigenvalue(n)
    lam = np.diag([con.lambda_mu, con.lambda_mu, con.lambda_eps, con.lambda_eps]).astype(complex)
    p0 = np.diag([phat, -phat, phat, -phat]).astype(complex)
    q0 = rho**2 * np.diag([c.g, c.f, c.g, c.f]).astype(complex)
    r0 = np.diag([c.f, c.g, c.f, c.g]).astype(complex)
    c_mu, c_eps, d_mu, d_eps = _sphere.material_constants(med)
    p1 = omega * _pattern(c_mu * c.p, c_mu * c.q, c_eps * c.p, c_eps * c.q)
    q1 = omega * rho * _pattern(c_mu * c.pt, c_mu * c.qt, c_eps * c.pt, c_eps * c.qt)
    r1 = -omega / rho * _pattern(c_mu * c.pt, c_mu * c.qt, c_eps * c.pt, c_eps * c.qt)
    p2 = omega**2 * np.diag([d_mu * c.r, d_mu * c.s, d_eps * c.r, d_eps * c.s]).astype(complex)
    q2 = omega**2 * rho * np.diag([d_mu * c.rt, d_mu * c.st, d_eps * c.rt, d_eps * c.st]).astype(complex)
    r2 = omega**2 / rho * np.diag([d_mu * c.st, -d_mu * c.rt, d_eps * c.st, -d_eps * c.rt]).astype(complex)
    w0 = np.block([[lam + p0, q0], [r0, lam - p0]])
    w1 = np.block([[p1, q1], [r1, -p1]])
    w2 = np.block([[p2, q2], [r2, -p2]])
    return ShellBlocks(n=n, w0=w0, w1=w1, w2=w2)


# Pair structure: coordinate pairs (e_a, e_{a+4}) for a = 1..4 close under W0
# and W2; W1 maps pair a to pair sigma(a).
_SIGMA = {1: 4, 2: 3, 3: 2, 4: 1}

#: branch -> (pair index a, sign of L in the eigenvalue, contrast sector)
_BRANCH_DEF = {
    1: (1, +1, "mu"), 2: (2, +1, "mu"), 3: (1, -1, "mu"), 4: (2, -1, "mu"),
    5: (3, +1, "eps"), 6: (4, +1, "eps"), 7: (3, -1, "eps"), 8: (4, -1, "eps"),
}


def _pair_vectors(n: int, rho: float):
    """Right/left eigenvector components (upper, lower) per branch, plus
    normalizers, in the pair coordinates."""
    c = shell_coeffs(n, rho)
    phat = _sphere.half_np_eigenvalue(n)
    L = shell_np_eigenvalue(n, rho)
    right = {}
    left = {}
    norm = {}
    for b, (a, sgn, _) in _BRANCH_DEF.items():
        if a in (1, 3):   # pairs with coupling [[+phat, rho^2 g], [f, -phat]]
            right[b] = (sgn * L + phat, c.f)
            left[b] = (sgn * L + phat, rho**2 * c.g)
        else:             # pairs with coupling [[-phat, rho^2 f], [g, +phat]]
            right[b] = (sgn * L - phat, c.g)
            left[b] = (sgn * L - phat, rho**2 * c.f)
        norm[b] = 2.0 * L * (L + sgn * phat) if a in (1, 3) else 2.0 * L * (L - sgn * phat)
    return right, left, norm, L, phat, c


def shell_basis(n: int, rho: float, med: _media.MediumPair) -> ShellBasis:
    """Explicit W0 eigenbasis; each eigenvalue has multiplicity exactly 2."""
    con = _media.contrasts(med)
    if con.nonmagnetic:
        raise DegenerateContrastError("shell basis requires magnetic contrast")
    right, left, norm, L, phat, c = _pair_vectors(n, rho)
    vecs = np.zeros((8, 8), dtype=complex)
    lefts = np.zeros((8, 8), dtype=complex)
    taus = np.zeros(8, dtype=complex)
    norms = np.zeros(8, dtype=complex)
    lam = {"mu": con.lambda_mu, "eps": con.lambda_eps}
    for b, (a, sgn, sector) in _BRANCH_DEF.items():
        up, lo = right[b]
        vecs[b - 1, a - 1] = up
        vecs[b - 1, a + 3] = lo
        up, lo = left[b]
        lefts[b - 1, a - 1] = up
        lefts[b - 1, a + 3] = lo
        taus[b - 1] = lam[sector] + sgn * L
        norms[b - 1] = norm[b]
    return ShellBasis(vectors=vecs, left_vectors=lefts, taus=taus, normalizers=norms)


def _w1_pair_action(a: int, up: complex, lo: complex, c: ShellCoeffs, rho: float,
                    c_mu: complex, c_eps: complex):
    """Apply the omega-stripped W1 to a pair vector; returns (target pair,
    upper, lower)."""
    colP = {1: c_eps * c.q, 2: c_eps * c.p, 3: c_mu * c.q, 4: c_mu * c.p}[a]
    colQ = {1: c_eps * c.qt, 2: c_eps * c.pt, 3: c_mu * c.qt, 4: c_mu * c.pt}[a]
    out_up = up * colP + lo * rho * colQ
    out_lo = up * (-colQ / rho) - lo * colP
    return _SIGMA[a], out_up, out_lo


def _w2_pair_action(a: int, up: complex, lo: complex, c: ShellCoeffs, rho: float,
                    d_mu: complex, d_eps: complex):
    """Apply the omega^2-stripped W2 to a pair vector (pair-preserving)."""
    d = d_mu if a in (1, 2) else d_eps
    P2 = {1: d * c.r, 2: d * c.s, 3: d * c.r, 4: d * c.s}[a]
    Q2 = rho * {1: d * c.rt, 2: d * c.st, 3: d * c.rt, 4: d * c.st}[a]
    R2 = (1.0 / rho) * {1: d * c.st, 2: -d * c.rt, 3: d * c.st, 4: -d * c.rt}[a]
    out_up = up * P2 + lo * Q2
    out_lo = up * R2 - lo * P2
    return a, out_up, out_lo


def _intermediates(branch: int) -> tuple[int, int]:
    a = _BRANCH_DEF[branch][0]
    target = _SIGMA[a]
    return tuple(b for b, (pa, _, _) in _BRANCH_DEF.items() if pa == target)


def shell_degenerate_expansion(n: int, rho: float, omega: float,
                               med: _media.MediumPair) -> list[DegenExpansion]:
    """The eight second-order eigenvalue branches of the assembled system.

    Built by degenerate perturbation theory with the analytic biorthogonal
    eigenvectors of W0 (the second-order coupling matrix is diagonal in this
    basis, so the degenerate pairs split cleanly and the O(r_s) term vanishes
    identically).  For nonmagnetic media only branches 5..8 are returned,
    with cross terms evaluated in the exact mu_s -> mu_m limit.
    """
    con = _media.contrasts(med)
    right, left, norm, L, phat, c = _pair_vectors(n, rho)
    nonmag = con.nonmagnetic
    lam_eps = con.lambda_eps
    if nonmag:
        c_mu, c_eps = 1.0, -med.mu_m  # C_mu enters only via its lambda_mu limit
        d_eps = -med.mu_m * (med.eps_c + med.eps_m)
        d_mu = 0.0
        lam = {"eps": lam_eps}
        branches = (5, 6, 7, 8)
        cross_limit = med.eps_m - med.eps_c   # lim C_mu / (tau_eps - tau_mu)
    else:
        lam_mu = con.lambda_mu
        if abs(lam_mu - lam_eps) < 1e-8:
            raise DegeneracyError("lambda_mu - lambda_eps below tolerance",
                                  combination="lambda_mu - lambda_eps")
        for s1 in (+1, -1):
            gap = lam_mu - lam_eps + 2 * s1 * L
            if abs(gap) < 1e-8:
                raise DegeneracyError("lambda_mu - lambda_eps -/+ 2L below tolerance",
                                      combination=f"lambda_mu - lambda_eps {'+' if s1 > 0 else '-'} 2L")
        c_mu, c_eps, d_mu, d_eps = _sphere.material_constants(med)
        lam = {"mu": lam_mu, "eps": lam_eps}
        branches = (1, 2, 3, 4, 5, 6, 7, 8)
        cross_limit = None

    def tau0_of(b: int) -> complex:
        a, sgn, sector = _BRANCH_DEF[b]
        return lam[sector] + sgn * L

    out = []
    for b in branches:
        a, sgn, sector = _BRANCH_DEF[b]
        up, lo = right[b]
        # diagonal second-order term
        _, w2u, w2l = _w2_pair_action(a, up, lo, c, rho, d_mu, d_eps)
        lw_up, lw_lo = left[b]
        el = lw_up * w2u + lw_lo * w2l
        mixing = []
        for cb in _intermediates(b):
            ca, csgn, csector = _BRANCH_DEF[cb]
            cup, clo = right[cb]
            # (w_b . W1 v_cb)
            t1a, x_up, x_lo = _w1_pair_action(ca, cup, clo, c, rho, c_mu, c_eps)
            elem_bc = lw_up * x_up + lw_lo * x_lo if t1a == a else 0.0
            # (w_cb . W1 v_b)
            t2a, y_up, y_lo = _w1_pair_action(a, up, lo, c, rho, c_mu, c_eps)
            lcu, lcl = left[cb]
            elem_cb = lcu * y_up + lcl * y_lo if t2a == ca else 0.0
            if nonmag:
                # elem_bc carries the placeholder C_mu = 1; the 1/gap combines
                # with it into the finite limit eps_m - eps_s.
                el += elem_bc * elem_cb * cross_limit / norm[cb]
                mixing.append((cb, 0.0))
            else:
                gap = tau0_of(b) - tau0_of(cb)
                el += elem_bc * elem_cb / (norm[cb] * gap)
                mixing.append((cb, elem_cb / (norm[cb] * gap)))
        out.append(DegenExpansion(branch=b, n=n, tau0=tau0_of(b), tau1=0.0,
                                  tau2_coeff=el / norm[b], mixing=tuple(mixing)))
    return out


#: eps branches continuing the solid-sphere eps families as rho -> 0
#: (matched numerically on (tau0, tau2) at rho = 1e-3).  The branch whose
#: leading term is lambda_eps + L resonates where lambda_eps = -L (the lower,
#: bonding root); its partner at lambda_eps - L gives the antibonding root.
_EPS_BRANCHES = ((5, +1, "bonding"), (7, -1, "antibonding"))


def shell_resonances(drude_shell: _media.DrudeParams, host: _media.MaterialPreset,
                     geom: ShellGeometry, order: str, n_cut: int = 2,
                     omega_range: tuple[float, float] = (0.05, 0.99),
                     n_grid: int = 400) -> list[ResonanceReport]:
    """Hybridized resonances of a Drude shell: for each degree n <= n_cut,
    the bonding/antibonding pair of roots of ``lambda_eps(omega) = -/+ L``
    (quasistatic) or the minimizers including the (r_s*omega)^2 branch shift
    (corrected)."""
    if order not in ("quasistatic", "corrected"):
        raise DomainError(f"unknown order {order!r}")
    reports = []
    for n in range(1, n_cut + 1):
        L = shell_np_eigenvalue(n, geom.rho)
        for branch, sgn, fam in _EPS_BRANCHES:

            def med_at(w: float) -> _media.MediumPair:
                return _media.MediumPair(
                    eps_m=complex(host.eps_m), mu_m=complex(host.mu_m),
                    eps_c=_media.drude_permittivity(drude_shell, w),
                    mu_c=complex(host.mu_c))

            def tau_qs(w: float) -> complex:
                return _media.contrasts(med_at(w)).lambda_eps + sgn * L

            def tau(w: float) -> complex:
                exp = {e.branch: e for e in
                       shell_degenerate_expansion(n, geom.rho, w, med_at(w))}
                e = exp[branch]
                return e.tau0 + (geom.r_s * w) ** 2 * e.tau2_coeff

            reports.append(_sphere.resonance_report(fam, n, order, tau_qs, tau,
                                                    omega_range, n_grid))
    return reports
