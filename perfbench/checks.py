"""Untimed output checks, independent of the library's evaluation paths.

Every check recomputes what an artifact should hold from the job's own
parameters with closed forms or scipy, never by calling ``plasmonics``:

* series spectra: the Bohren-Huffman extinction sum on
  ``scipy.special.spherical_jn/yn`` (Bohren & Huffman 1983, section 4.4);
* the dipole spectrum: the quasistatic cross-section 4 pi k r^3 Im(alpha);
* quasistatic sphere and shell roots: the lossless closed forms
  eps_c = -(n+1)/n eps_m, eps_c = -n/(n+1) eps_m and lambda_eps = -/+ L, to
  within O(gamma^2);
* mode tables: the leading eigenvalues lambda +- 1/(2(2n+1)) and lambda +- L;
* aniso: multiplicities sum to 2n+1, one resonance per distinct eigenvalue of R;
* mg: the Clausius-Mossotti tensor, and ``valid`` matching the sign of ``margin``;
* selftest: all six checks pass.

Each function returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

HBARC_EV_NM = 197.3269804  # CODATA hbar c
SPECTRUM_RTOL = 1e-9  # acceptance criterion 3's tolerance against the oracle
TAU0_RTOL = 1e-12
MG_RTOL = 1e-12


class Params:
    """A job's parameters in normalized units, with the CLI's documented defaults."""

    def __init__(self, job):
        g = job.get
        self.scale = g("units", "scale", "normalized")
        wp_ev = g("units", "omega_p_ev", None)
        to_omega = (lambda e: e / wp_ev) if self.scale == "ev" else (lambda w: w)
        r = g("geometry", "radius", 0.1)
        self.radius = r * wp_ev / HBARC_EV_NM if self.scale == "ev" else r
        self.rho = g("geometry", "rho", 0.5)
        self.geometry = g("run", "geometry", "sphere")
        self.eps_inf = g("drude", "eps_inf", 1.0)
        self.omega_p = g("drude", "omega_p", 1.0)
        self.gamma = g("drude", "gamma", 0.0)
        self.mu_c = complex(g("drude", "mu_c_re", 1.0), g("drude", "mu_c_im", 0.0))
        self.eps_m = g("host", "eps_m", 1.0)
        self.mu_m = g("host", "mu_m", 1.0)
        self.omega_min = to_omega(g("grid", "omega_min", 0.30))
        self.omega_max = to_omega(g("grid", "omega_max", 0.95))
        self.count = g("grid", "count", 200)
        self.mode = g("spectrum", "mode", "series")
        self.f = g("mg", "f", 0.05)
        r_entries = {k: g("aniso", k, 1.0 if k in ("r11", "r22", "r33") else 0.0)
                     for k in ("r11", "r22", "r33", "r12", "r13", "r23")}
        self.r_matrix = np.array([
            [r_entries["r11"], r_entries["r12"], r_entries["r13"]],
            [r_entries["r12"], r_entries["r22"], r_entries["r23"]],
            [r_entries["r13"], r_entries["r23"], r_entries["r33"]]])

    def eps_c(self, omega):
        return self.eps_inf - self.omega_p**2 / (omega * (omega + 1j * self.gamma))

    def lossless_root(self, eps_target: float) -> float:
        """omega at which the lossless Drude permittivity equals eps_target."""
        return self.omega_p / math.sqrt(self.eps_inf - eps_target)


def _read_csv(raw: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(raw.decode())))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def bh_extinction(eps_rel: complex, k: float, r: float) -> float:
    """Classical Mie extinction cross-section C_ext of a nonmagnetic sphere."""
    from scipy.special import spherical_jn, spherical_yn

    x = k * r
    m = complex(eps_rel) ** 0.5
    if m.imag < 0:
        m = -m
    n = np.arange(1, int(x + 4.0 * x ** (1.0 / 3.0) + 2.0) + 12)
    mx = m * x
    psi_x = x * spherical_jn(n, x)
    dpsi_x = spherical_jn(n, x) + x * spherical_jn(n, x, derivative=True)
    h = spherical_jn(n, x) + 1j * spherical_yn(n, x)
    dh = spherical_jn(n, x, derivative=True) + 1j * spherical_yn(n, x, derivative=True)
    xi_x = x * h
    dxi_x = h + x * dh
    psi_mx = mx * spherical_jn(n, mx)
    dpsi_mx = spherical_jn(n, mx) + mx * spherical_jn(n, mx, derivative=True)
    a = (m * psi_mx * dpsi_x - psi_x * dpsi_mx) / (m * psi_mx * dxi_x - xi_x * dpsi_mx)
    b = (psi_mx * dpsi_x - m * psi_x * dpsi_mx) / (psi_mx * dxi_x - m * xi_x * dpsi_mx)
    return 2.0 * math.pi / k**2 * float(np.sum((2 * n + 1) * (a + b).real))


def _check_grid(p: Params, omega: np.ndarray) -> list[str]:
    want = np.linspace(p.omega_min, p.omega_max, p.count)
    if omega.shape != want.shape or np.max(np.abs(omega - want)) > 1e-12 * p.omega_max:
        return ["spectrum grid differs from the configured grid"]
    return []


def check_spectrum(job, arts: dict) -> list[str]:
    p = Params(job)
    header, table = _read_csv(arts["spectrum.csv"])
    if header != ["omega", "qext"]:
        return [f"spectrum.csv header {header}"]
    omega, qext = table[:, 0], table[:, 1]
    problems = _check_grid(p, omega)
    if p.mode == "dipole":
        k = omega * math.sqrt(p.eps_m * p.mu_m)
        eps = p.eps_c(omega)
        want = 4.0 * math.pi * k * p.radius**3 * ((eps - p.eps_m) / (eps + 2.0 * p.eps_m)).imag
    else:
        if p.mu_c != p.mu_m:
            return problems + ["series oracle covers nonmagnetic spheres only"]
        want = np.array([bh_extinction(p.eps_c(w) / p.eps_m, w * math.sqrt(p.eps_m), p.radius)
                         for w in omega])
    err = np.abs(qext - want)
    tol = SPECTRUM_RTOL * np.maximum(np.abs(want), 1e-3 * np.max(np.abs(want)))
    if np.any(err > tol):
        i = int(np.argmax(err / tol))
        problems.append(f"qext at omega={float(omega[i])!r}: {float(qext[i])!r} "
                        f"vs oracle {float(want[i])!r}")
    peaks = json.loads(arts["spectrum_peaks.json"])["peaks"]
    maxima = int(np.sum((qext[1:-1] > qext[:-2]) & (qext[1:-1] > qext[2:]) & (qext[1:-1] > 0)))
    if len(peaks) != maxima:
        problems.append(f"{len(peaks)} peaks reported, {maxima} strict local maxima in the CSV")
    if any(not (omega[0] <= pk["omega"] <= omega[-1]) for pk in peaks):
        problems.append("peak outside the grid")
    if "spectrum.json" in arts:
        rows = json.loads(arts["spectrum.json"])["spectrum"]
        if [[r["omega"], r["qext"]] for r in rows] != table.tolist():
            problems.append("spectrum.json differs from spectrum.csv")
    return problems


def _root_status(problems, label, rep, root, lo, hi, n_grid, tol):
    """Found iff the closed-form root lies inside the search range (roots
    within two grid steps of an edge are not judged)."""
    step = (hi - lo) / (n_grid - 1)
    if lo + 2 * step < root < hi - 2 * step:
        if not rep["found"]:
            problems.append(f"{label}: root {root:.6f} inside the range not found")
        elif abs(rep["omega_star"] - root) > tol:
            problems.append(f"{label}: {rep['omega_star']!r} vs closed form {root!r}")
    elif (root < lo - 2 * step or root > hi + 2 * step) and rep["found"]:
        problems.append(f"{label}: found a root outside the range")


def check_resonance(job, arts: dict) -> list[str]:
    p = Params(job)
    reports = json.loads(arts["resonance.json"])["reports"]
    by_key = {(r["family"], r["n"], r["order"]): r for r in reports}
    problems = []
    # the minimizer of |tau| on the real axis sits O(gamma^2) from the lossless root
    tol = 2.0 * p.gamma**2 + 1e-7
    lo, hi = p.omega_min, p.omega_max
    if p.geometry == "sphere":
        n_grid = 200
        targets = {"eps+": lambda n: -(n + 1) / n * p.eps_m,
                   "eps-": lambda n: -n / (n + 1) * p.eps_m}
    else:
        n_grid = 400

        def shell_target(sign):
            def target(n):
                lam = sign * shell_L(n, p.rho)
                return p.eps_m * (2 * lam - 1) / (2 * lam + 1)
            return target
        targets = {"bonding": shell_target(-1), "antibonding": shell_target(+1)}
    expected = 0
    for fam, target in targets.items():
        for n in (1, 2):
            qs = by_key.get((fam, n, "quasistatic"))
            corr = by_key.get((fam, n, "corrected"))
            if qs is None or corr is None:
                problems.append(f"missing report {fam} n={n}")
                continue
            expected += 2
            _root_status(problems, f"{fam} n={n}", qs, p.lossless_root(target(n)),
                         lo, hi, n_grid, tol)
            if corr["found"]:
                if not lo <= corr["omega_star"] <= hi:
                    problems.append(f"{fam} n={n} corrected root outside the range")
                shift = corr["omega_star"] - qs["omega_star"]
                if abs(corr["shift_from_quasistatic"] - shift) > 1e-12:
                    problems.append(f"{fam} n={n} shift disagrees with its two roots")
    if p.mu_c != p.mu_m:
        expected += 8  # mu+/mu- for n = 1, 2 in both orders
    if len(reports) != expected:
        problems.append(f"{len(reports)} reports, expected {expected}")
    return problems


def shell_L(n: int, rho: float) -> float:
    """Shell Neumann-Poincare eigenvalue magnitude (Prodan et al. 2003 hybridization)."""
    return math.sqrt(1.0 + 4.0 * n * (n + 1) * rho ** (2 * n + 1)) / (2.0 * (2 * n + 1))


def check_modes(job, arts: dict) -> list[str]:
    p = Params(job)
    header, *rows = csv.reader(io.StringIO(arts["modes.csv"].decode()))
    if header != ["family", "n", "omega", "tau0_re", "tau0_im", "tau2_re", "tau2_im"]:
        return [f"modes.csv header {header}"]
    om = 0.5 * (p.omega_min + p.omega_max)
    eps = p.eps_c(om)
    lam_eps = (eps + p.eps_m) / (2.0 * (p.eps_m - eps))
    problems = []
    got: dict[int, list[tuple[str, complex]]] = {}
    for fam, n, _, t0_re, t0_im, _, _ in rows:
        got.setdefault(int(n), []).append((fam, complex(float(t0_re), float(t0_im))))
    for n in (1, 2, 3):
        if p.geometry == "sphere":
            half = 1.0 / (2.0 * (2 * n + 1))
            want = {"eps+": lam_eps + half, "eps-": lam_eps - half}
            if p.mu_c != p.mu_m:
                lam_mu = (p.mu_c + p.mu_m) / (2.0 * (p.mu_m - p.mu_c))
                want.update({"mu+": lam_mu + half, "mu-": lam_mu - half})
            pairs = [(want.get(fam), t0) for fam, t0 in got.get(n, [])]
            if len(pairs) != len(want):
                problems.append(f"n={n}: {len(pairs)} rows, expected {len(want)}")
        else:
            L = shell_L(n, p.rho)
            want_sorted = sorted([lam_eps + L] * 2 + [lam_eps - L] * 2, key=lambda z: z.real)
            got_sorted = sorted((t0 for _, t0 in got.get(n, [])), key=lambda z: z.real)
            if len(got_sorted) != 4:
                problems.append(f"n={n}: {len(got_sorted)} shell rows, expected 4")
            pairs = list(zip(want_sorted, got_sorted))
        for want_t0, t0 in pairs:
            if want_t0 is None or abs(t0 - want_t0) > TAU0_RTOL * max(1.0, abs(want_t0)):
                problems.append(f"n={n}: tau0 {t0!r} vs closed form {want_t0!r}")
    return problems


def check_aniso(job, arts: dict) -> list[str]:
    p = Params(job)
    res = json.loads(arts["aniso.json"])["resonances"]
    problems = []
    if sum(r["multiplicity"] for r in res) != 3:
        problems.append("multiplicities do not sum to 2n+1 = 3")
    ev = np.linalg.eigvalsh(p.r_matrix)
    distinct = 1 + int(np.sum(np.diff(ev) > 1e-9 * max(1.0, float(np.max(np.abs(ev))))))
    found = [r for r in res if r["found"]]
    if len(found) != distinct:
        problems.append(f"{len(found)} resonances found, R has {distinct} distinct eigenvalues")
    if any(not p.omega_min <= r["omega_star"] <= p.omega_max for r in found):
        problems.append("aniso resonance outside the range")
    return problems


def check_mg(job, arts: dict) -> list[str]:
    p = Params(job)
    sweep = json.loads(arts["mg.json"])["sweep"]
    problems = []
    omega = np.array([e["omega"] for e in sweep])
    problems += _check_grid(p, omega)
    for e in sweep:
        if e["valid"] != (e["margin"] >= 0.0):
            problems.append(f"omega={e['omega']!r}: valid={e['valid']} but margin={e['margin']!r}")
        eps = p.eps_c(e["omega"])
        beta = (eps - p.eps_m) / (eps + 2.0 * p.eps_m)
        cm = p.eps_m * (1.0 + 3.0 * p.f * beta / (1.0 - p.f * beta))
        g = np.array(e["gamma_star_re"]) + 1j * np.array(e["gamma_star_im"])
        if np.max(np.abs(g - cm * np.eye(3))) > MG_RTOL * abs(cm):
            problems.append(f"omega={e['omega']!r}: gamma* differs from Clausius-Mossotti")
            break
    return problems


def check_selftest(job, arts: dict) -> list[str]:
    lines = arts.get("stdout", b"").decode().splitlines()
    if not lines or lines[-1] != "OK: 6/6 checks passed":
        return ["selftest did not report 6/6"]
    return []


CHECKS = {"spectrum": check_spectrum, "resonance": check_resonance, "modes": check_modes,
          "aniso": check_aniso, "mg": check_mg, "selftest": check_selftest}


def check_job(job, rc, arts: dict) -> list[str]:
    """All checks of one job's run: exit code, then its artifacts."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return CHECKS[job.command](job, arts)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
