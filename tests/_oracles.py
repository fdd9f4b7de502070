"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's own evaluation paths: spherical
Bessel/Hankel values come from mpmath's cylindrical functions at high
precision, the classical Mie extinction follows the textbook
Riccati-Bessel recurrences, and the polarization tensor is cross-checked by
a dense Nystrom discretization of the boundary resolvent.

The per-point W_R quadrature below is the exception: it is the reference
that ``effective._w_matrix``'s blocked geometry must match bit for bit, and
it evaluates the same singularity-subtracted rule one outer point at a time.
"""

import math

import mpmath as mp
import numpy as np

from plasmonics import specfun


def mp_spherical_jh(n, z, dps=50):
    """(j_n(z), h_n^(1)(z)) via half-integer cylindrical functions."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        pref = mp.sqrt(mp.pi / (2 * z))
        j = pref * mp.besselj(n + mp.mpf(1) / 2, z)
        y = pref * mp.bessely(n + mp.mpf(1) / 2, z)
        return complex(j), complex(j + 1j * y)


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
