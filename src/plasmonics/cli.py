"""Batch front end: config-driven spectrum scans, mode tables, resonance
searches, effective-medium sweeps, and a built-in selftest.

Configs are INI-style ``key = value`` sections (all optional; built-in
defaults describe a lossless Drude sphere in vacuum):

    [run]       geometry = sphere | shell
    [units]     scale = normalized | ev ; omega_p_ev (plasma energy, eV)
    [geometry]  radius, rho            (radius in nm when scale = ev)
    [drude]     eps_inf, omega_p, gamma, mu_c_re, mu_c_im
    [host]      eps_m, mu_m
    [grid]      omega_min, omega_max, count   (photon energy in eV when scale = ev)
    [spectrum]  mode = series | dipole
    [mg]        f, validity_constant
    [aniso]     delta, r11, r22, r33, r12, r13, r23

All computation runs in normalized units with omega_p = 1.  With
``scale = ev``, grid energies E are divided by ``omega_p_ev`` and the radius
is converted from nanometers by r_norm = r_nm * omega_p_ev / (hbar c), with
hbar c = 197.3269804 eV nm, so the size parameter k r equals the physical
E sqrt(eps mu) r / (hbar c).  Outputs always report normalized frequencies.

Exit codes: 0 success, 2 unusable config/arguments, 3 domain error (JSON
diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import effective, media, mie, quasistatic, shell_modes, sphere_modes
from .errors import ConfigError, PlasmonicsError
from .specfun import Direction


HBARC_EV_NM = 197.3269804


class RunConfig:
    """Validated run parameters with built-in defaults."""

    def __init__(self, parser: configparser.ConfigParser):
        get = self._getter(parser)
        self.geometry = get("run", "geometry", "sphere", str)
        if self.geometry not in ("sphere", "shell"):
            raise ConfigError(f"geometry must be sphere or shell, got {self.geometry!r}")
        scale = get("units", "scale", "normalized", str)
        if scale not in ("normalized", "ev"):
            raise ConfigError(f"units scale must be normalized or ev, got {scale!r}")
        omega_p_ev = get("units", "omega_p_ev", None, float)
        if scale == "ev" and (omega_p_ev is None or omega_p_ev <= 0):
            raise ConfigError("scale = ev requires a positive omega_p_ev")
        to_norm_omega = (lambda e: e / omega_p_ev) if scale == "ev" else (lambda w: w)
        to_norm_radius = (lambda r_nm: r_nm * omega_p_ev / HBARC_EV_NM) if scale == "ev" \
            else (lambda r: r)
        self.radius = to_norm_radius(get("geometry", "radius", 0.1, float))
        self.rho = get("geometry", "rho", 0.5, float)
        self.drude = media.DrudeParams(
            eps_inf=get("drude", "eps_inf", 1.0, float),
            omega_p=get("drude", "omega_p", 1.0, float),
            gamma_damp=get("drude", "gamma", 0.0, float),
        )
        mu_c = complex(get("drude", "mu_c_re", 1.0, float), get("drude", "mu_c_im", 0.0, float))
        self.host = media.MaterialPreset(
            drude=self.drude, mu_c=mu_c,
            eps_m=get("host", "eps_m", 1.0, float),
            mu_m=get("host", "mu_m", 1.0, float),
        )
        self.omega_min = to_norm_omega(get("grid", "omega_min", 0.30, float))
        self.omega_max = to_norm_omega(get("grid", "omega_max", 0.95, float))
        self.count = get("grid", "count", 200, int)
        if self.count < 3:
            raise ConfigError("grid count must be at least 3")
        if not (0.0 < self.omega_min < self.omega_max):
            raise ConfigError("grid needs 0 < omega_min < omega_max")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        if self.geometry == "shell" and not (0.0 < self.rho < 1.0):
            raise ConfigError("shell rho must lie in (0, 1)")
        self.spectrum_mode = get("spectrum", "mode", "series", str)
        if self.spectrum_mode not in ("series", "dipole"):
            raise ConfigError("spectrum mode must be series or dipole")
        self.mg_f = get("mg", "f", 0.05, float)
        self.mg_constant = get("mg", "validity_constant", 0.1, float)
        self.aniso_delta = get("aniso", "delta", 0.05, float)
        self.aniso_r = np.array([
            [get("aniso", "r11", 1.0, float), get("aniso", "r12", 0.0, float), get("aniso", "r13", 0.0, float)],
            [get("aniso", "r12", 0.0, float), get("aniso", "r22", 1.0, float), get("aniso", "r23", 0.0, float)],
            [get("aniso", "r13", 0.0, float), get("aniso", "r23", 0.0, float), get("aniso", "r33", 1.0, float)],
        ])

    @staticmethod
    def _getter(parser):
        def get(section, key, default, cast):
            if not parser.has_option(section, key):
                return default
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
        return get

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        parser = configparser.ConfigParser()
        if path is not None:
            p = Path(path)
            if not p.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                parser.read_string(p.read_text())
            except configparser.Error as exc:
                raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        return cls(parser)

    def omega_grid(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.count)

    def plane_wave(self) -> mie.PlaneWave:
        return mie.PlaneWave(Direction(0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_payload(rep) -> dict:
    return {
        "family": rep.family,
        "n": rep.n,
        "order": rep.order,
        "found": rep.found,
        "omega_star": rep.omega_star,
        "tau_at_min": None if rep.tau_at_min is None else
            {"re": rep.tau_at_min.real, "im": rep.tau_at_min.imag},
        "shift_from_quasistatic": None if math.isnan(rep.shift_from_quasistatic)
            else rep.shift_from_quasistatic,
        "fwhm_estimate": rep.fwhm_estimate,
    }


def cmd_spectrum(cfg: RunConfig, out: Path, jobs: int, fmt: str = "csv") -> int:
    if cfg.geometry != "sphere":
        raise ConfigError("spectrum supports geometry = sphere only; "
                          "the coated-sphere solution is not implemented")
    geom = mie.SphereGeometry(cfg.radius)
    spec = mie.scan_spectrum(geom, cfg.host.medium_at, cfg.omega_grid(), cfg.plane_wave(),
                             mode=cfg.spectrum_mode, jobs=jobs)
    mie.write_spectrum_csv(spec, out / "spectrum.csv")
    _write_json(out / "spectrum_peaks.json", mie.peaks_json_payload(spec))
    if fmt == "json":
        _write_json(out / "spectrum.json", {"spectrum": [
            {"omega": w, "qext": q} for w, q in zip(spec.omega, spec.qext)]})
    return 0


def cmd_modes(cfg: RunConfig, out: Path, n_cut: int = 3) -> int:
    rows = []
    om = 0.5 * (cfg.omega_min + cfg.omega_max)
    med = cfg.host.medium_at(om)
    if cfg.geometry == "sphere":
        for n in range(1, n_cut + 1):
            for e in sphere_modes.eigen_expansions(n, om, med):
                rows.append((e.family, n, e.tau0, e.tau2_coeff))
    else:
        for n in range(1, n_cut + 1):
            for e in shell_modes.shell_degenerate_expansion(n, cfg.rho, om, med):
                rows.append((f"branch{e.branch}", n, e.tau0, e.tau2_coeff))
    with open(out / "modes.csv", "w", newline="\n") as fh:
        fh.write("family,n,omega,tau0_re,tau0_im,tau2_re,tau2_im\n")
        for fam, n, t0, t2 in rows:
            fh.write(f"{fam},{n},{om:.17g},{t0.real:.17g},{t0.imag:.17g},"
                     f"{t2.real:.17g},{t2.imag:.17g}\n")
    return 0


def cmd_resonance(cfg: RunConfig, out: Path, order: str, n_cut: int = 2) -> int:
    reports = []
    rng = (cfg.omega_min, cfg.omega_max)
    orders = ("quasistatic", "corrected") if order == "both" else (order,)
    if cfg.geometry == "sphere":
        families = ("eps+", "eps-") if cfg.host.medium_at(1.0).nonmagnetic \
            else sphere_modes.FAMILIES
        for o in orders:
            for fam in families:
                for n in range(1, n_cut + 1):
                    reports.append(sphere_modes.find_resonance(
                        fam, n, cfg.drude, cfg.host, cfg.radius, o, omega_range=rng))
    else:
        geom = shell_modes.ShellGeometry(cfg.radius, cfg.rho)
        for o in orders:
            reports.extend(shell_modes.shell_resonances(
                cfg.drude, cfg.host, geom, o, n_cut=n_cut, omega_range=rng))
    _write_json(out / "resonance.json", {"reports": [_report_payload(r) for r in reports]})
    return 0


def cmd_mg(cfg: RunConfig, out: Path) -> int:
    entries = []
    for om in cfg.omega_grid():
        med = cfg.host.medium_at(om)
        et = effective.mg_effective(med.eps_m, med.eps_c, cfg.mg_f,
                                    validity_constant=cfg.mg_constant)
        entries.append({
            "omega": om,
            "gamma_star_re": [[v.real for v in row] for row in et.gamma_star],
            "gamma_star_im": [[v.imag for v in row] for row in et.gamma_star],
            "f": et.f,
            "valid": et.valid,
            "margin": et.margin,
            "remainder_scale": et.remainder_scale,
        })
    _write_json(out / "mg.json", {"sweep": entries})
    return 0


def cmd_aniso(cfg: RunConfig, out: Path) -> int:
    res = effective.aniso_resonance(cfg.drude, cfg.host.eps_m, cfg.aniso_r,
                                    cfg.aniso_delta,
                                    omega_range=(cfg.omega_min, cfg.omega_max))
    _write_json(out / "aniso.json", {"resonances": [
        {"omega_star": r["omega_star"], "found": r["found"],
         "path_shift": r["path_shift"], "multiplicity": r["multiplicity"]}
        for r in res]})
    return 0


def cmd_selftest(_cfg: RunConfig, out: Path) -> int:
    """Fast invariant suite; prints one line per check, nonzero exit on failure."""
    from . import specfun
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    worst = 0.0
    for n in range(0, 21):
        for zm in np.geomspace(0.1, 50, 5):
            for ang in (0.0, 0.7, 1.5):
                z = zm * complex(math.cos(ang), math.sin(ang))
                worst = max(worst, specfun.wronskian_residual(n, z) * abs(z))
    check(f"wronskian identity (max {worst:.2e})", worst <= 1e-11)

    drude = media.DrudeParams(1.0, 1.0, 0.0)
    host = media.MaterialPreset(drude)
    rep = sphere_modes.find_resonance("eps+", 1, drude, host, 0.05, "quasistatic")
    ok = rep.found and abs(rep.omega_star - 1.0 / math.sqrt(3.0)) <= 1e-8
    check("frohlich dipole root", ok)

    L = shell_modes.shell_np_eigenvalue(1, 0.5)
    check("shell eigenvalue closed form", abs(L - math.sqrt(2.0) / 6.0) <= 1e-12)

    et = effective.mg_effective(1.0, 4.0 + 0j, 0.01)
    beta = 3.0 / 6.0
    cm = 1.0 + 3 * 0.01 * beta / (1 - 0.01 * beta)
    check("maxwell-garnett vs clausius-mossotti", abs(et.gamma_star[0, 0] - cm) <= 1e-12)

    med = media.MediumPair(1.0, 1.0, 4.0, 1.0)
    coeffs = mie.scattering_coeffs(mie.SphereGeometry(1.0), med, 1.0)
    dev = max(abs(abs(1 + 2 * coeffs.s_te[n]) - 1) for n in range(1, coeffs.n_max + 1))
    check(f"lossless unitarity (max {dev:.2e})", dev <= 1e-10)

    r0 = effective.periodic_regular_part([0.0, 0.0, 0.0])
    r1 = effective.periodic_regular_part([0.02, 0.0, 0.0], certify=False)
    coef = (r1 - r0) / 0.02**2
    check(f"lattice regular part curvature ({coef:.4f})", abs(coef + 1.0 / 6.0) <= 0.01)

    print(f"{'OK' if failures == 0 else 'FAILED'}: {6 - failures}/6 checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plasmonics",
                                 description="Plasmonic resonance and spectrum calculator")
    ap.add_argument("command", choices=["spectrum", "modes", "resonance", "mg", "aniso", "selftest"])
    ap.add_argument("--config", default=None, help="INI-style run configuration")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--jobs", type=int, default=1, help="accepted and ignored: scans run in one thread")
    ap.add_argument("--format", choices=["csv", "json"], default="csv",
                    help="main table format (spectrum command)")
    ap.add_argument("--geometry", choices=["sphere", "shell"], default=None,
                    help="override [run] geometry")
    ap.add_argument("--order", choices=["quasistatic", "corrected", "both"],
                    default="quasistatic", help="resonance order")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.geometry is not None:
            cfg.geometry = args.geometry
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out, args.jobs, args.format)
        if args.command == "modes":
            return cmd_modes(cfg, out)
        if args.command == "resonance":
            return cmd_resonance(cfg, out, args.order)
        if args.command == "mg":
            return cmd_mg(cfg, out)
        if args.command == "aniso":
            return cmd_aniso(cfg, out)
        return cmd_selftest(cfg, out)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}),
              file=sys.stderr)
        return 2
    except PlasmonicsError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
