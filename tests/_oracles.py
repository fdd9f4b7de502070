"""Independent numerical oracles used by the test suite.

The first group deliberately avoids the package's own evaluation paths:
spherical Bessel/Hankel values come from mpmath's cylindrical functions at
high precision, scalar spherical harmonics from mpmath's ``spherharm``
(``mp_scalar_harmonic``) and the vector harmonics U, V from its angular
derivatives by ``mp.diff`` (``mp_vector_harmonics``), the classical Mie
extinction follows the textbook Riccati-Bessel recurrences, and the
polarization tensor is cross-checked by a dense Nystrom discretization of
the boundary resolvent.

The second group are references built on the package's primitives, which
no command needs but the expansions are checked against:

* the exact 2x2 boundary matrices of a sphere (``boundary_matrices``), from
  which the small-radius coefficients p, q, r, s are fitted;
* the boundary-system model: the (W0, W1, W2) size-expansion blocks of a
  sphere, 4x4 (``w_blocks``), and of a shell, 8x8 (``shell_blocks``), both
  as a ``ModeBlock``.  No command needs the dense matrices: production reads
  the same coefficients row by row (``sphere_modes._SphereRows``,
  ``shell_modes._ShellRows``), and the dense eigensolves of these blocks are
  what every eigenvalue branch and mixing coefficient is checked against;
* the explicit biorthogonal W0 eigenbasis of a shell (``shell_basis``),
  compared with a dense eigensolve of ``shell_blocks``;
* the three-term Bessel-product expansion (``bessel_product_small``), which
  evaluates the exact table ``specfun.product_coeffs`` that production code
  sums, so its residual against exact products validates that table, and
  warns with ``RegimeWarning`` outside its small-argument regime;
* the dipolar forward amplitude and optical-theorem extinction built from
  3x3 polarization tensors (``PolarizationTensor``, ``forward_amplitude``,
  ``extinction_quasistatic``), the reference of
  ``mie.extinction(mode="dipole")``; a ball's tensor is its scalar
  polarizability ``quasistatic.ball_polarization_tensor`` times Id.

The numpy-scalar degree loops (``riccati_seq_numpy``,
``scattering_coeffs_numpy``) are the references that ``specfun.riccati_seq``
and ``mie.scattering_coeffs`` must match bit for bit: the production loops
run on Python complex and take their quotients in one array division.

The per-point W_R quadrature (``w_matrix_per_point``) evaluates the same
singularity-subtracted rule as ``effective._w_matrix`` one outer point at a
time, rotating the inner points and forming the kernel from them;
``_w_matrix`` gets the kernel from rotation invariance instead, rotates a
block of outer points' inner rules in one product and subtracts f(x) times
the kernel sum once, which all round in another order, so the two agree to a
tolerance, not bit for bit.  The
Wigner-Eckart closed form (``w_matrix_closed_form``) is independent of both
quadratures.
"""

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from plasmonics import media, mie, shell_modes, specfun
from plasmonics.quasistatic import ball_polarization_tensor
from plasmonics.errors import DegeneracyError, DegenerateContrastError, DomainError
from plasmonics.sphere_modes import material_constants, small_r_floats


class RegimeWarning(UserWarning):
    """Arguments fall outside the asymptotic regime an expansion assumes."""


def mp_spherical_jh(n, z, dps=50):
    """(j_n(z), h_n^(1)(z)) via half-integer cylindrical functions."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        pref = mp.sqrt(mp.pi / (2 * z))
        j = pref * mp.besselj(n + mp.mpf(1) / 2, z)
        y = pref * mp.bessely(n + mp.mpf(1) / 2, z)
        return complex(j), complex(j + 1j * y)


def _mp_angles(x, y, z):
    return mp.atan2(mp.hypot(x, y), z), mp.atan2(y, x)


def _mp_y(n, mabs, theta, phi):
    return (-1) ** mabs * mp.spherharm(n, mabs, theta, phi)


@functools.lru_cache(maxsize=1024)
def _mp_spherharm(n, mabs, x, y, z, dps):
    with mp.workdps(dps):
        return _mp_y(n, mabs, *_mp_angles(mp.mpf(x), mp.mpf(y), mp.mpf(z)))


def mp_scalar_harmonic(n, m, point, dps=40):
    """Orthonormal Y[n, m] at a unit vector in the package's convention (no
    Condon-Shortley phase, Y[n, -m] = conj(Y[n, m])), from mpmath's
    ``spherharm`` with theta = atan2(hypot(x, y), z) taken at ``dps`` digits;
    the 1024 most recent m >= 0 values are cached, so Y[n, -m] right after
    Y[n, m] at the same point costs nothing more."""
    y = _mp_spherharm(n, abs(m), *(float(c) for c in point), dps)
    with mp.workdps(dps):
        return complex(mp.conj(y) if m < 0 else y)


@functools.lru_cache(maxsize=1024)
def _mp_vector_harmonics(n, mabs, x, y, z, dps):
    with mp.workdps(dps):
        theta, phi = _mp_angles(mp.mpf(x), mp.mpf(y), mp.mpf(z))
        d_theta = mp.diff(lambda t: _mp_y(n, mabs, t, phi), theta)
        d_phi = mp.diff(lambda f: _mp_y(n, mabs, theta, f), phi)
        ct, st, cp, sp = mp.cos(theta), mp.sin(theta), mp.cos(phi), mp.sin(phi)
        theta_hat, phi_hat = (ct * cp, ct * sp, -st), (-sp, cp, 0)
        scale = 1 / mp.sqrt(n * (n + 1))
        u = [scale * (d_theta * t + d_phi / st * f) for t, f in zip(theta_hat, phi_hat)]
        r = (st * cp, st * sp, ct)
        v = [r[1] * u[2] - r[2] * u[1], r[2] * u[0] - r[0] * u[2], r[0] * u[1] - r[1] * u[0]]
        return u, v


def mp_vector_harmonics(n, m, point, dps=40):
    """(U[n, m], V[n, m]) at a unit vector in the package's convention, as
    complex 3-vectors: U = (dY/dtheta theta_hat + dY/dphi / sin(theta)
    phi_hat) / sqrt(n(n+1)) and V = xhat x U, with both derivatives of the
    ``spherharm`` value of ``mp_scalar_harmonic`` taken by ``mp.diff`` at
    ``dps`` digits, and conjugated for m < 0; cached for m >= 0 like it."""
    u, v = _mp_vector_harmonics(n, abs(m), *(float(c) for c in point), dps)
    with mp.workdps(dps):
        return tuple(np.array([complex(mp.conj(c) if m < 0 else c) for c in vec])
                     for vec in (u, v))


def _psi(n, z):
    z = mp.mpc(z)
    return z * mp.sqrt(mp.pi / (2 * z)) * mp.besselj(n + mp.mpf(1) / 2, z)


def _xi(n, z):
    z = mp.mpc(z)
    return z * mp.sqrt(mp.pi / (2 * z)) * (mp.besselj(n + mp.mpf(1) / 2, z)
                                           + 1j * mp.bessely(n + mp.mpf(1) / 2, z))


def classical_mie_coeffs(eps_rel, x, n_max, dps=40):
    """Textbook Mie coefficients (a_n, b_n) for a nonmagnetic sphere of
    relative permittivity ``eps_rel`` and size parameter ``x = k r``."""
    out = []
    with mp.workdps(dps):
        m = mp.sqrt(mp.mpc(eps_rel))
        if mp.im(m) < 0:
            m = -m
        for n in range(1, n_max + 1):
            psix, psimx, xix = _psi(n, x), _psi(n, m * x), _xi(n, x)
            dpsix = _psi(n - 1, x) - n / mp.mpc(x) * psix
            dpsimx = _psi(n - 1, m * x) - n / (m * x) * psimx
            dxix = _xi(n - 1, x) - n / mp.mpc(x) * xix
            a = (m * psimx * dpsix - psix * dpsimx) / (m * psimx * dxix - xix * dpsimx)
            b = (psimx * dpsix - m * psix * dpsimx) / (psimx * dxix - m * xix * dpsimx)
            out.append((complex(a), complex(b)))
    return out


def classical_mie_extinction(eps_rel, k, r, n_max, dps=40):
    """C_ext = (2 pi / k^2) sum (2n+1) Re(a_n + b_n)."""
    coeffs = classical_mie_coeffs(eps_rel, k * r, n_max, dps)
    tot = sum((2 * n + 1) * (a + b).real for n, (a, b) in enumerate(coeffs, start=1))
    return 2.0 * math.pi / k**2 * tot


def nystrom_polarization_tensor(lam, radius, n_polar=28):
    """Dense Nystrom solve of the boundary resolvent applied to the normal,
    paired with position: an independent route to the polarization tensor.

    The adjoint double-layer kernel on a sphere of radius ``a`` is
    ``1/(8 pi a) * (a / |x - y|)`` scaled; the constant density is an exact
    eigenfunction with eigenvalue 1/2, which fixes the singular diagonal.
    """
    u, wu = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * math.pi * np.arange(n_polar) / n_polar
    wphi = 2.0 * math.pi / n_polar
    ct = np.repeat(u, n_polar)
    st = np.sqrt(1.0 - np.repeat(u, n_polar) ** 2)
    ph = np.tile(phi, n_polar)
    pts = radius * np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
    w = np.repeat(wu, n_polar) * wphi * radius**2
    npts = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, 1.0)
    # (x - y).nu(x) = |x - y|^2 / (2 a) on the sphere of radius a, so the
    # adjoint double-layer kernel collapses to 1 / (8 pi a |x - y|)
    kern = 1.0 / (8.0 * math.pi * radius * dist)
    A = kern * w[None, :]
    np.fill_diagonal(A, 0.0)
    rowsum = A.sum(axis=1)
    np.fill_diagonal(A, 0.5 - rowsum)  # exact eigenpair K*[1] = 1/2
    nu = pts / radius
    M = np.zeros((3, 3), dtype=complex)
    sol = np.linalg.solve(lam * np.eye(npts) - A, nu.astype(complex))
    for p in range(3):
        for q in range(3):
            M[p, q] = np.sum(w * sol[:, p] * pts[:, q])
    return M


def sphere_quadrature_loop(max_degree):
    """``specfun.sphere_quadrature`` filled one point at a time."""
    npts = 2 * max_degree + 2
    u, wu = np.polynomial.legendre.leggauss(npts)
    phi = 2.0 * math.pi * np.arange(npts) / npts
    wphi = 2.0 * math.pi / npts
    st = np.sqrt(1.0 - u * u)
    pts = np.empty((npts * npts, 3))
    w = np.empty(npts * npts)
    k = 0
    for i in range(npts):
        for jdx in range(npts):
            pts[k] = (st[i] * math.cos(phi[jdx]), st[i] * math.sin(phi[jdx]), u[i])
            w[k] = wu[i] * wphi
            k += 1
    return pts, w


def rotation_to(direction):
    """Rotation taking the north pole to ``direction`` (Rodrigues)."""
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, direction))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(z, direction)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + s * K + (1 - c) * (K @ K)


def w_matrix_per_point(n, r_matrix, degree):
    """w[jl] = <W_R Y_(n,j), Y_(n,l)> by singularity-subtracted quadrature,
    one outer point at a time.

    For each outer point x the inner rule is rotated so that x sits at its
    pole, and the constant Tr R / 3 = surf_int (R d, d)/(4 pi |d|^3) is
    added back for the subtracted f(x).
    """
    trR = float(np.trace(r_matrix))
    pts, wts = specfun.sphere_quadrature(degree)
    ys_outer = specfun.scalar_harmonics_grid(n, pts)
    modes = [(n, m) for m in range(-n, n + 1)]
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

    w_of_x = np.zeros((len(pts), len(modes)), dtype=complex)
    for i, x in enumerate(pts):
        rot = rotation_to(x)
        yy = local @ rot.T
        delta = x[None, :] - yy
        dist = np.linalg.norm(delta, axis=1)
        quad = np.einsum("ka,ab,kb->k", delta, r_matrix, delta)
        kern = quad / (4.0 * math.pi * dist**3)
        ys_inner = specfun.scalar_harmonics_grid(n, yy)
        for jdx, nm in enumerate(modes):
            fy = ys_inner[nm]
            fx = ys_outer[nm][i]
            w_of_x[i, jdx] = np.sum(w_inner * kern * (fy - fx)) + fx * trR / 3.0
    w = np.zeros((len(modes), len(modes)), dtype=complex)
    for ldx, nm in enumerate(modes):
        proj = wts * np.conj(ys_outer[nm])
        for jdx in range(len(modes)):
            w[jdx, ldx] = np.sum(proj * w_of_x[:, jdx])
    return w


def w_matrix_closed_form(n, r_matrix):
    """w[jl] = <W_R Y_(n,j), Y_(n,l)> exactly, by the Wigner-Eckart theorem.

    Within the degree-n multiplet x_a x_b acts as a rank-2 tensor operator, so
    with L_a the spin-n angular-momentum matrices (m = -n..n) the multiplier
    (R x, x) is
    M = (Tr R / 3) Id - 2/((2n-1)(2n+3)) [sum_ab R_ab (L_a L_b + L_b L_a)/2
    - Tr R n(n+1)/3 Id], from <n m| cos^2 theta |n m> = (2n^2 + 2n - 1 -
    2m^2)/((2n-1)(2n+3)), and w = (Tr R Id - 2 M)/(2n+1).  The package sets
    Y_(n,-m) = conj(Y_(n,m)) with no (-1)^m, so w is conjugated by D =
    diag((-1)^m for m > 0, else 1), then transposed, because w[j, l] pairs
    W_R Y_j with Y_l.
    """
    r = np.asarray(r_matrix, dtype=float)
    m = np.arange(-n, n + 1)
    raise_m = np.diag(np.sqrt(n * (n + 1) - m[:-1] * (m[:-1] + 1.0)), -1)
    ell = [(raise_m + raise_m.T) / 2.0, (raise_m - raise_m.T) / 2j, np.diag(m)]
    tr_r = np.trace(r)
    ident = np.eye(2 * n + 1)
    quad = sum(r[a, b] * (ell[a] @ ell[b] + ell[b] @ ell[a]) / 2.0
               for a in range(3) for b in range(3))
    mult = tr_r / 3.0 * ident - 2.0 / ((2 * n - 1) * (2 * n + 3)) * (
        quad - tr_r * n * (n + 1) / 3.0 * ident)
    w = (tr_r * ident - 2.0 * mult) / (2 * n + 1)
    d = np.where(m > 0, (-1.0) ** m, 1.0)
    return (d[:, None] * w * d[None, :]).T


def boundary_matrices(n, k, r):
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


@dataclass(frozen=True)
class ModeBlock:
    """Matrix triple of the size expansion for one degree n: 4x4 for a
    sphere (``w_blocks``), 8x8 for a shell (``shell_blocks``)."""

    n: int
    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def assembled(self, r):
        return self.w0 + r * self.w1 + r * r * self.w2


def w_blocks(n, omega, med):
    """The sphere's 4x4 (W0, W1, W2) triple for degree n at frequency omega,
    on the (U, V, U, V) mode basis.

    Requires contrast in both eps and mu; for nonmagnetic media
    ``sphere_modes.eigen_expansions`` implements the mu_c -> mu_m limit of
    the eps families.
    """
    con = media.contrasts(med)
    if con.nonmagnetic:
        raise DegenerateContrastError(
            "w_blocks needs magnetic contrast; nonmagnetic media reduce to the eps families")
    lam_mu, lam_eps = con.lambda_mu, con.lambda_eps
    if abs(lam_mu - lam_eps) < 1e-12:
        raise DegeneracyError("lambda_mu == lambda_eps violates the simple-spectrum condition")
    p, q, r, s = small_r_floats(n)
    phat = media.ball_np_eigenvalue(n)
    c_mu, c_eps, d_mu, d_eps = material_constants(med)
    w0 = np.diag([lam_mu + phat, lam_mu - phat, lam_eps + phat, lam_eps - phat]).astype(complex)
    w1 = _pattern(omega * c_mu * p, omega * c_mu * q, omega * c_eps * p, omega * c_eps * q)
    w2 = omega**2 * np.diag([d_mu * r, d_mu * s, d_eps * r, d_eps * s]).astype(complex)
    return ModeBlock(n=n, w0=w0, w1=w1, w2=w2)


def _pattern(c1, c2, c3, c4):
    """The 4x4 anti-diagonal coupling with entries (0, 3), (1, 2), (2, 1), (3, 0)."""
    out = np.zeros((4, 4), dtype=complex)
    out[0, 3] = c1
    out[1, 2] = c2
    out[2, 1] = c3
    out[3, 0] = c4
    return out


def shell_blocks(n, rho, omega, med):
    """The shell's 8x8 (W0, W1, W2) blocks for degree n; ``assembled(r_s)``
    of the returned ``ModeBlock`` is the matrix at outer radius r_s.

    The leading diagonal uses the offset 1/(2(2n+1)); this is the unique
    value for which the W0 spectrum equals ``{lambda +/- L}`` with the
    closed-form shell eigenvalue L and for which the rho -> 0 limit
    reproduces the solid-sphere diagonal.
    """
    con = media.contrasts(med)
    if con.nonmagnetic:
        raise DegenerateContrastError(
            "shell_blocks needs magnetic contrast; use shell_degenerate_expansion "
            "for the nonmagnetic eps branches")
    c = shell_modes.shell_coeffs(n, rho)
    phat = media.ball_np_eigenvalue(n)
    lam = np.diag([con.lambda_mu, con.lambda_mu, con.lambda_eps, con.lambda_eps]).astype(complex)
    p0 = np.diag([phat, -phat, phat, -phat]).astype(complex)
    q0 = rho**2 * np.diag([c.g, c.f, c.g, c.f]).astype(complex)
    r0 = np.diag([c.f, c.g, c.f, c.g]).astype(complex)
    c_mu, c_eps, d_mu, d_eps = material_constants(med)
    p1 = omega * _pattern(c_mu * c.p, c_mu * c.q, c_eps * c.p, c_eps * c.q)
    q1 = omega * rho * _pattern(c_mu * c.pt, c_mu * c.qt, c_eps * c.pt, c_eps * c.qt)
    r1 = -omega / rho * _pattern(c_mu * c.pt, c_mu * c.qt, c_eps * c.pt, c_eps * c.qt)
    p2 = omega**2 * np.diag([d_mu * c.r, d_mu * c.s, d_eps * c.r, d_eps * c.s]).astype(complex)
    q2 = omega**2 * rho * np.diag([d_mu * c.rt, d_mu * c.st, d_eps * c.rt, d_eps * c.st]).astype(complex)
    r2 = omega**2 / rho * np.diag([d_mu * c.st, -d_mu * c.rt, d_eps * c.st, -d_eps * c.rt]).astype(complex)
    w0 = np.block([[lam + p0, q0], [r0, lam - p0]])
    w1 = np.block([[p1, q1], [r1, -p1]])
    w2 = np.block([[p2, q2], [r2, -p2]])
    return ModeBlock(n=n, w0=w0, w1=w1, w2=w2)


@dataclass(frozen=True)
class ShellBasis:
    """Right eigenvectors E1..E8 of W0 (rows of ``vectors``), their
    eigenvalues, and the matching left eigenvectors/normalizers."""

    vectors: np.ndarray       # (8, 8) right eigenvectors
    left_vectors: np.ndarray  # (8, 8)
    taus: np.ndarray          # (8,)
    normalizers: np.ndarray   # (8,) w_i . v_i


def shell_basis(n, rho, med):
    """Explicit W0 eigenbasis of a shell; each eigenvalue has multiplicity
    exactly 2."""
    con = media.contrasts(med)
    if con.nonmagnetic:
        raise DegenerateContrastError("shell basis requires magnetic contrast")
    right, left, norm, L, _ = shell_modes._pair_vectors(n, rho)
    vecs = np.zeros((8, 8), dtype=complex)
    lefts = np.zeros((8, 8), dtype=complex)
    taus = np.zeros(8, dtype=complex)
    norms = np.zeros(8, dtype=complex)
    lam = {"mu": con.lambda_mu, "eps": con.lambda_eps}
    for b, (a, sgn, sector) in shell_modes._BRANCH_DEF.items():
        up, lo = right[b]
        vecs[b - 1, a - 1] = up
        vecs[b - 1, a + 3] = lo
        up, lo = left[b]
        lefts[b - 1, a - 1] = up
        lefts[b - 1, a + 3] = lo
        taus[b - 1] = lam[sector] + sgn * L
        norms[b - 1] = norm[b]
    return ShellBasis(vectors=vecs, left_vectors=lefts, taus=taus, normalizers=norms)


def bessel_product_small(kind, n, t, tt):
    """Small-argument expansion of ``i * (product)`` of Bessel-type factors.

    ``kind`` is one of ``"Jh"``, ``"jH"``, ``"jh"``, ``"JH"`` where a capital
    letter means the Riccati combination on that side; the first factor is
    evaluated at ``t`` and the second at ``tt``.  Accurate to O(t^3) for
    |t|, |tt| <= 0.3 with t of the same scale as tt.
    """
    table = specfun.product_coeffs(n)
    if kind not in table:
        raise DomainError(f"unknown product kind {kind!r}; expected one of {sorted(table)}")
    c_lead, c_tt, c_t = (float(c) for c in table[kind])
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
    q = (t / tt) ** n
    return c_lead * q / tt + c_tt * q * tt + c_t * q * (t / tt) * t


@dataclass(frozen=True)
class PolarizationTensor:
    """Dipolar response tensor of an inclusion (volume units)."""

    matrix: np.ndarray

    @classmethod
    def ball(cls, lam, radius):
        """The ball's tensor m Id at pole-normalized contrast ``lam``."""
        return cls(ball_polarization_tensor(lam, radius) * np.eye(3, dtype=complex))

    @classmethod
    def zero(cls):
        return cls(np.zeros((3, 3), dtype=complex))


def forward_amplitude(d, p, omega, med, m_eps, m_mu):
    """Quasi-static scattering amplitude in the incidence direction,
    A(d) = omega mu_m k_m (d x Id) M_mu (d x p) - k_m^2 (Id - d d^t) M_eps p."""
    k_m, _ = media.wavenumbers(med, omega)
    dv = d.as_array()
    p = np.asarray(p, dtype=float)
    a_mu = omega * med.mu_m * k_m * np.cross(dv, m_mu.matrix @ np.cross(dv, p))
    a_eps = -(k_m**2) * ((np.eye(3) - np.outer(dv, dv)) @ (m_eps.matrix @ p))
    return a_mu + a_eps


def extinction_quasistatic(d, p, omega, med, m_eps, m_mu):
    """Optical-theorem extinction from the dipolar amplitude, normalized
    consistently with the far-field convention E^s ~ -exp(ik|x|)/(4 pi |x|) A;
    it agrees with the small-r Mie extinction.
    """
    p = np.asarray(p, dtype=float)
    if abs(float(np.dot(p, d.as_array()))) > 1e-12 * np.linalg.norm(p):
        raise DomainError("polarization must be orthogonal to the incidence direction")
    k_m, _ = media.wavenumbers(med, omega)
    fwd = complex(np.dot(p, forward_amplitude(d, p, omega, med, m_eps, m_mu)))
    fwd /= float(np.dot(p, p))
    return -fwd.imag / k_m.real


def riccati_seq_numpy(nmax, z):
    """``specfun.riccati_seq`` with its degree loop on numpy complex128
    elements."""
    z = complex(z)
    j, h = specfun.bessel_jh_seq(nmax, z)
    jr = np.empty(nmax + 1, dtype=complex)
    hr = np.empty(nmax + 1, dtype=complex)
    jr[0] = cmath.cos(z)
    hr[0] = cmath.exp(1j * z)
    for n in range(1, nmax + 1):
        jr[n] = z * j[n - 1] - n * j[n]
        hr[n] = z * h[n - 1] - n * h[n]
    return jr, hr


def scattering_coeffs_numpy(geom, med, omega, n_max=None):
    """``mie.scattering_coeffs`` with its degree loop on numpy complex128
    elements and one scalar division per coefficient; returns
    (n_max, s_te, s_tm, flagged)."""
    k_m, k_c = media.wavenumbers(med, omega)
    r = geom.radius
    if n_max is None:
        n_max = mie.truncation_order(abs(k_m) * r)
    jm, hm = specfun.bessel_jh_seq(n_max, k_m * r)
    Jm, Hm = riccati_seq_numpy(n_max, k_m * r)
    jc, _ = specfun.bessel_jh_seq(n_max, k_c * r)
    Jc, _ = riccati_seq_numpy(n_max, k_c * r)
    s_te = np.zeros(n_max + 1, dtype=complex)
    s_tm = np.zeros(n_max + 1, dtype=complex)
    flagged = []
    for n in range(1, n_max + 1):
        for arr, (cc, cm) in ((s_te, (med.mu_c, med.mu_m)), (s_tm, (med.eps_c, med.eps_m))):
            num = cc * jc[n] * Jm[n] - cm * jm[n] * Jc[n]
            t1 = cm * Jc[n] * hm[n]
            t2 = cc * jc[n] * Hm[n]
            den = t1 - t2
            scale = max(abs(t1), abs(t2), 1e-300)
            if abs(den) <= 1e-14 * scale:
                flagged.append(n)
                den = scale * 1e-14
            arr[n] = num / den
    return n_max, s_te, s_tm, sorted(set(flagged))
