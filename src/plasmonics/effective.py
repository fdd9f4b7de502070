"""Anisotropic quasi-static resonances of the unit ball and Maxwell-Garnett
homogenization of a dilute cubic array of inclusions.

Anisotropic permittivity ``A = eps_c (Id + delta R)`` perturbs the boundary
operator ``Q_A`` whose leading eigenvalues are ``tau_j = (eps_m + eps_c)/2 +
(eps_m - eps_c) lambda_j``; the first-order shifts are diagonal matrix
elements of an explicitly known kernel correction, reduced here to the single
weakly singular surface functional

    w[jl] = <W_R Y_j, Y_l>,   W_R[f](x) = surf_int (R d, d)/(4 pi |d|^3) f(y),

with d = x - y, evaluated by pole-rotated singularity-subtracted quadrature
(the subtraction constant is the exact identity surf_int (R d, d)/(4 pi
|d|^3) dsigma = Tr R / 3 on the unit sphere).  The inner rule is one fixed
rule at the pole, rotated to each outer point x, and rotation invariance
makes its kernel cheap: |d| does not depend on x, and (R d, d) is a fixed
quadratic form in the 6 entries of the rotated R.  So for a block of outer
points one matrix product gives the weighted kernels and one more rotates
the inner rule, the kernel sums of all outer points are one matrix-vector
product, and each outer point's mode sums are one dot per mode with its
harmonics, which are evaluated in one ``scalar_harmonics_grid`` call at its
rotated inner points: a polynomial in z times a power of x + i y per mode,
with no trigonometric function, so these calls cost little more than their
array passes.  Each eigenvalue path of the multiplet is then one branch of
the sphere's resonance search, ``sphere_modes.resonance_reports``, so an
anisotropic resonance is found and reported like a sphere's or a shell's.

The Maxwell-Garnett tensor ``eps_m (Id + f M (Id - f M / 3)^{-1})`` has the
ball's M = m Id (m the scalar polarizability of the unit-volume ball), so it
is the Clausius-Mossotti scalar ``eps_m (1 + f m / (1 - f m / 3))`` times Id,
computed over a whole frequency grid in one array pass; its validity window
shrinks like dist(lambda, spectrum)^(3/5) as the composite approaches
resonance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import media as _media
from . import specfun
from . import sphere_modes as _sphere
from .errors import AccuracyError, DomainError, ResonantCompositeError
from .quasistatic import ball_polarization_tensor

#: Ball Neumann-Poincare spectrum that the Maxwell-Garnett validity margin is
#: measured against: degrees 0..64 and the accumulation point 0.
_BALL_SPECTRUM = (_media.BALL_LAMBDA0, *_media.ball_np_spectrum(64), 0.0)

#: Radius of the unit-volume ball.
_UNIT_RADIUS = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)

#: Resonances of different multiplet paths closer than this are reported once.
_MERGE_TOL = 1e-7


@dataclass(frozen=True)
class AnisoPermittivity:
    """A = eps_c (Id + delta R) with R real symmetric, ||R|| = O(1)."""

    eps_c: complex
    delta: float
    r_matrix: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_matrix, dtype=float)
        if r.shape != (3, 3):
            raise DomainError("R must be a real symmetric 3x3 matrix")
        if not np.all(np.isfinite(r)):
            raise DomainError("R must have finite entries")
        if not np.allclose(r, r.T, atol=1e-14):
            raise DomainError("R must be a real symmetric 3x3 matrix")
        object.__setattr__(self, "r_matrix", r)
        if not 0.0 <= self.delta < math.inf:
            raise DomainError("delta must be nonnegative and finite")

    def matrix(self) -> np.ndarray:
        return self.eps_c * (np.eye(3) + self.delta * self.r_matrix)


@dataclass(frozen=True)
class EffectiveTensor:
    """Maxwell-Garnett result: the effective permittivity is ``gamma_star Id``.

    Each field but ``f`` is a scalar, or an array over the frequency grid."""

    gamma_star: complex | np.ndarray
    f: float
    remainder_scale: float | np.ndarray
    valid: bool | np.ndarray
    margin: float | np.ndarray


@dataclass(frozen=True)
class PathResonance:
    """A resonance of ``aniso_resonance``: the report and first-order shift
    of the lowest eigenvalue path it stands for, and how many paths merged."""

    report: _sphere.ResonanceReport
    path_shift: float
    multiplicity: int


def _frames(pts: np.ndarray) -> np.ndarray:
    """Rotations taking the north pole to each row of ``pts``, stacked (N, 3, 3).

    Rodrigues' formula about z x p, with c = p_z; within 1e-14 of a pole the
    frame is the identity or the half-turn about x.  |z x p| comes from one
    ``np.dot`` per point: BLAS rounds that sum differently from every
    elementwise form, and the frames are kept bit-equal to the per-point
    construction.
    """
    c = pts[:, 2]
    rots = np.tile(np.eye(3), (len(pts), 1, 1))
    rots[c < -1.0 + 1e-14] = np.diag([1.0, -1.0, -1.0])
    gen = (c <= 1.0 - 1e-14) & (c >= -1.0 + 1e-14)
    axis = np.cross(np.array([0.0, 0.0, 1.0]), pts[gen])
    s = np.sqrt([np.dot(a, a) for a in axis])
    axis = axis / s[:, None]
    K = np.zeros((len(axis), 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -axis[:, 2], axis[:, 1]
    K[:, 1, 0], K[:, 1, 2] = axis[:, 2], -axis[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -axis[:, 1], axis[:, 0]
    rots[gen] = (np.eye(3) + s[:, None, None] * K
                 + (1 - c[gen])[:, None, None] * (K @ K))
    return rots


#: Outer points whose inner-rule kernels and rotated inner points are formed
#: in one matrix product each; at 8 they take 0.3 MB at degree 16.
_BLOCK = 8


def _w_matrix(n: int, r_matrix: np.ndarray, degree: int) -> np.ndarray:
    """Multiplet matrix w[jl] = <W_R Y_(n,j), Y_(n,l)> by singularity-subtracted
    quadrature; j, l run over m = -n..n.

    The inner rule sits at the north pole, at local points l, and is rotated
    by the frame R_x of each outer point x, so d = x - R_x l = R_x u with
    u = e_z - l.  Hence |d| = |u| for every x, and (R d, d) = (S_x u, u) with
    S_x = R_x^T R R_x: the weighted kernel of a block of outer points is the
    product of the 6 entries of each S_x with 6 fixed rows u_a u_b w_inner /
    (4 pi |u|^3), off-diagonal rows doubled, and the kernel sum of every x,
    which multiplies the subtracted f(x), is S_x times the row sums.  The
    rotated inner points of a block are one product of its stacked frames
    with the local points, and each outer point leaves only its harmonics
    call and one dot per mode with its real kernel.
    """
    trR = float(np.trace(r_matrix))
    # outer (smooth) rule
    pts, wts = specfun.sphere_quadrature(degree)
    modes = [(n, m) for m in range(-n, n + 1)]
    ys = specfun.scalar_harmonics_grid(n, pts)
    y_outer = np.stack([ys[nm] for nm in modes], axis=1)
    # inner rule: Gauss-Legendre in the polar angle (regular at the pole
    # after subtraction), uniform azimuth, in a frame with x at the pole
    ngam = 2 * degree + 2
    gam, wg = np.polynomial.legendre.leggauss(ngam)
    gam = 0.5 * math.pi * (gam + 1.0)
    wg = wg * 0.5 * math.pi * np.sin(gam)
    phi = 2.0 * math.pi * np.arange(ngam) / ngam
    wphi = 2.0 * math.pi / ngam
    cg, sg = np.cos(gam), np.sin(gam)
    local = np.stack([
        np.outer(sg, np.cos(phi)).ravel(),
        np.outer(sg, np.sin(phi)).ravel(),
        np.outer(cg, np.ones_like(phi)).ravel(),
    ], axis=1)
    w_inner = (np.outer(wg, np.full_like(phi, wphi))).ravel()

    u = np.array([0.0, 0.0, 1.0]) - local
    ia, ib = np.triu_indices(3)
    rows = (np.where(ia == ib, 1.0, 2.0)[:, None] * (u[:, ia] * u[:, ib]).T
            * (w_inner / (4.0 * math.pi * np.linalg.norm(u, axis=1) ** 3)))
    rots = _frames(pts)
    s6 = (rots.transpose(0, 2, 1) @ r_matrix @ rots)[:, ia, ib]
    # W_R f(x) = f(x) (Tr R / 3 - sum_k wk) + sum_k wk f(y_k), where
    # sum_k wk = (s6 @ rows.sum(axis=1))[x] for every x at once
    w_of_x = y_outer * (trR / 3.0 - s6 @ rows.sum(axis=1))[:, None]
    for b0 in range(0, len(pts), _BLOCK):
        block = slice(b0, b0 + _BLOCK)
        # inner[b]: the x, y, z rows of outer point b's rotated inner points
        inner = (rots[block].reshape(-1, 3) @ local.T).reshape(-1, 3, len(local))
        for i, (y_in, kern) in enumerate(zip(inner, s6[block] @ rows), start=b0):
            # one harmonics call per outer point, at its rotated inner points
            ys = specfun.scalar_harmonics_grid(n, y_in.T)
            w_of_x[i] += [ys[nm] @ kern for nm in modes]
    return w_of_x.T @ (wts[:, None] * y_outer.conj())


def q1_multiplet(aniso: AnisoPermittivity, n: int, degree: int | None = None,
                 check: bool = True) -> np.ndarray:
    """First-order multiplet matrix P[jl] of the degree-n eigenvalue group.

    P = eps_c (Tr(R)/4 * Id - (2n+3)/4 * w); convergence is certified by
    comparing two quadrature degrees (AccuracyError on disagreement).
    """
    if n < 1:
        raise DomainError("multiplet degree n must be at least 1")
    if degree is None:
        degree = 2 * n + 8
    if degree < 2 * n + 8:
        raise DomainError("quadrature degree must be at least 2n + 8")
    w = _w_matrix(n, aniso.r_matrix, degree)
    if check:
        w2 = _w_matrix(n, aniso.r_matrix, degree + 6)
        scale = max(np.max(np.abs(w2)), 1e-30)
        if np.max(np.abs(w - w2)) > 1e-6 * scale:
            raise AccuracyError(
                f"W_R quadrature not converged at degrees {degree}/{degree + 6}")
        w = w2
    trR = float(np.trace(aniso.r_matrix))
    return aniso.eps_c * (trR / 4.0 * np.eye(2 * n + 1) - (2 * n + 3) / 4.0 * w)


def aniso_resonance(drude: _media.DrudeParams, eps_m: float, r_matrix: np.ndarray,
                    delta: float, omega_range: tuple[float, float] = (0.05, 0.99),
                    n: int = 1) -> list[PathResonance]:
    """Quasi-static resonances of a weakly anisotropic Drude ball.

    Each eigenvalue pv_k of the degree-n multiplet P / eps_c is one ``"eps+"``
    branch ``tau_k = (eps_m + eps_c)/2 + (eps_m - eps_c) lambda_n + delta
    eps_c pv_k`` of the sphere's ``resonance_reports`` at the quasistatic
    order.  Paths whose minimizers coincide within ``_MERGE_TOL`` are
    reported once, by the lowest (the multiplet splits into as many
    resonances as R has distinct eigenvalues); unfound paths come last.  At
    n = 1 this is exact: pv_k = r_k / 3 for the eigenvalues r_k of R, and
    tau_k vanishes where ``eps_c (1 + delta r_k) = -2 eps_m``.
    """
    if not delta <= 0.2:
        raise DomainError("first-order anisotropic expansion advised only for delta <= 0.2")
    lam_n = _media.ball_np_eigenvalue(n)
    # P is eps_c times a frequency-independent geometric matrix
    probe = AnisoPermittivity(eps_c=1.0, delta=delta, r_matrix=np.asarray(r_matrix, dtype=float))
    geo = q1_multiplet(probe, n)
    path_vals = np.linalg.eigvalsh((geo + geo.conj().T) / 2.0)

    def path_branch(pv: float):
        def tau(w: float | np.ndarray) -> complex | np.ndarray:
            eps_c = _media.drude_permittivity(drude, w)
            tau0 = (eps_m + eps_c) / 2.0 + (eps_m - eps_c) * lam_n
            return tau0 + delta * eps_c * pv
        return "eps+", n, tau, tau

    reports = _sphere.resonance_reports([path_branch(pv) for pv in path_vals], ("quasistatic",),
                                        omega_range, 200)
    merged: list[PathResonance] = []
    for rep, pv in sorted(zip(reports, path_vals),
                          key=lambda rp: (not rp[0].found, rp[0].omega_star or 0.0)):
        prev = merged[-1] if merged else None
        if (rep.found and prev and prev.report.found
                and abs(prev.report.omega_star - rep.omega_star) <= _MERGE_TOL):
            merged[-1] = replace(prev, multiplicity=prev.multiplicity + 1)
        else:
            merged.append(PathResonance(report=rep, path_shift=float(pv), multiplicity=1))
    return merged


def mg_effective(eps_m: complex, eps_c: complex | np.ndarray, f: float,
                 validity_constant: float = 0.1) -> EffectiveTensor:
    """Maxwell-Garnett effective permittivity of a dilute cubic array of balls.

    ``eps_c`` is a complex or an array over a frequency grid, and every
    field of the result is a scalar or an array of its shape.  With m the
    polarizability of the unit-volume ball at the pole-normalized contrast,
    the effective permittivity is ``gamma_star Id`` with the Clausius-Mossotti
    scalar ``gamma_star = eps_m (1 + f m / (1 - f m / 3))``; a grid point
    where ``1 - f m / 3`` is numerically zero (the composite's own dipole
    resonance) raises ResonantCompositeError, and one where m has its pole
    raises PoleError.  The validity flag requires ``f <= validity_constant *
    dist^(3/5)`` where dist is the distance of the contrast to the ball
    spectrum; the remainder scale is ``f^(8/3)/dist^2``.
    """
    if not (0.0 < f < 1.0):
        raise DomainError("volume fraction must lie in (0, 1)")
    lam = _media.lambda_star(eps_c, eps_m)
    m = ball_polarization_tensor(lam, _UNIT_RADIUS)
    core = 1.0 - (f / 3.0) * m
    # |det(Id - f M / 3)| against the scale of M^3, as for a general tensor
    if _media.any_of(abs(core) ** 3 < 1e-14 * np.maximum(1.0, abs(m) ** 3)):
        raise ResonantCompositeError("1 - f m / 3 is numerically zero: the composite resonates")
    dist = _media.spectral_distance(lam, _BALL_SPECTRUM)
    margin = validity_constant * dist ** 0.6 - f
    with np.errstate(divide="ignore", over="ignore"):
        # unbounded on the spectrum (dist = 0), and 0 where dist^2 overflows
        remainder_scale = f ** (8.0 / 3.0) / np.square(dist)
    return EffectiveTensor(
        gamma_star=eps_m * (1.0 + f * m / core),
        f=f,
        remainder_scale=remainder_scale,
        valid=margin >= 0.0,
        margin=margin,
    )


def periodic_regular_part(x, alpha: float | None = None, m_max: int = 3,
                          certify: bool = True) -> float:
    """Smooth remainder R(x) of the cubic-lattice periodic Green function
    after removing the free-space singularity -1/(4 pi |x|).

    Ewald-split evaluation; with ``certify`` the truncation radii are grown
    by 2 and the two values must agree to 1e-10 (AccuracyError otherwise).
    Near the origin R(x) = R(0) - |x|^2/6 + O(|x|^4).  The Ewald parameter
    ``alpha`` must be positive and finite, and the truncation radius
    ``m_max`` an int of at least 1, and alpha^2 in the normal double range
    (DomainError otherwise); certifying needs machine epsilon times
    1/(4 alpha^2) and the self term below 1e-10 (AccuracyError otherwise).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DomainError(f"x must be a 3-vector, got shape {x.shape}")
    # written so that a NaN coordinate fails the check too
    if not np.max(np.abs(x)) < 0.5:
        raise DomainError("x must lie in the open unit cell (|x_i| < 1/2)")
    alpha = math.sqrt(math.pi) if alpha is None else float(alpha)
    # written so that a NaN alpha fails the check too
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    # a float m_max would build a shifted lattice and certify a wrong value
    if isinstance(m_max, bool) or not isinstance(m_max, (int, np.integer)) or m_max < 1:
        raise DomainError(f"m_max must be an int of at least 1, got {m_max!r}")
    r = float(np.linalg.norm(x))
    self_term = (alpha / (2.0 * math.pi**1.5) if r == 0.0
                 else math.erf(alpha * r) / (4.0 * math.pi * r))
    # 1e-10 against the rounding of 1/(4 alpha^2) (alpha^2 may underflow) and the self term
    eps = sys.float_info.epsilon
    if certify and (4e-10 * alpha * alpha < eps or eps * self_term > 1e-10):
        raise AccuracyError(f"alpha = {alpha!r}: the rounding floor of 1/(4 alpha^2) or of the "
                            "self term exceeds the 1e-10 of the certification")
    if not sys.float_info.min <= alpha * alpha < math.inf:
        raise DomainError(f"alpha = {alpha!r}: alpha^2 leaves the normal double range")

    def evaluate(mm: int) -> float:
        rng = np.arange(-mm, mm + 1)
        mx, my, mz = np.meshgrid(rng, rng, rng, indexing="ij")
        lat = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1).astype(float)
        nonzero = np.any(lat != 0, axis=1)
        # real-space images (m != 0)
        dv = x[None, :] - lat[nonzero]
        dn = np.linalg.norm(dv, axis=1)
        real_sum = np.sum(np.array([math.erfc(t) for t in alpha * dn]) / (4.0 * math.pi * dn))
        # reciprocal sum (n != 0); an overflowing exponent gives exp(-inf) = 0
        kv = lat[nonzero]
        k2 = np.sum(kv * kv, axis=1)
        with np.errstate(over="ignore"):
            recip_sum = np.sum(np.exp(-math.pi**2 * k2 / alpha**2)
                               * np.cos(2.0 * math.pi * (kv @ x))
                               / (4.0 * math.pi**2 * k2))
        return 1.0 / (4.0 * alpha**2) + self_term - real_sum - recip_sum

    val = evaluate(m_max)
    if certify:
        val2 = evaluate(m_max + 2)
        if not abs(val - val2) <= 1e-10:
            raise AccuracyError(
                f"Ewald sums not converged: {val!r} vs {val2!r} at m_max={m_max}")
        val = val2
    return val
