"""The benchmark's three workloads, one per library stack, generated from a seed.

Each job is one ``plasmonics`` CLI call with a generated INI config.  Seed 0
gives exactly the reference configs.  Any other seed jitters the continuous
parameters (radius, gamma, rho, grid endpoints, delta, R entries, f) by at
most +-10%, while grid counts, orders and ``n_cut`` stay fixed, so that the
work per pass does not depend on the seed.  Two couplings keep it so:

* Series spectra: the grid endpoints are divided by the radius factor (and by
  sqrt of the host-permittivity factor), so the size parameter k_m r at every
  grid point, and with it the Mie truncation order, is the same for all seeds.
* Resonance searches: a root that crosses a grid edge turns a golden-section
  search on or off and changes the report.  Parameters that move a root
  towards an edge (rho, grid endpoints) are jittered by less, small enough
  that no root crosses.  ``perfbench/README.md`` lists the amplitudes.

The lossless ``mg-default`` sweep is not jittered; see the comment there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("scan", "resonate", "homogenize")

C10_RADIUS = 0.3 * math.sqrt(3.0)  # k_m r = 0.3 at the lossless Froehlich root


@dataclass
class Job:
    """One CLI call: ``plasmonics <command> --config <ini> <extra>``.

    ``params`` maps INI section -> {key: value}; an empty mapping gives an
    empty config, i.e. the built-in defaults.
    """

    name: str
    command: str
    params: dict = field(default_factory=dict)
    extra: tuple = ()

    def ini(self) -> str:
        lines = []
        for section, values in self.params.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v if isinstance(v, str) else repr(v)}"
                         for k, v in values.items())
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, *self.extra]

    def get(self, section: str, key: str, default):
        return self.params.get(section, {}).get(key, default)


class _Jitter:
    """Multiplicative factors 1 + amp * U(-1, 1); exactly 1 on seed 0."""

    def __init__(self, seed: int):
        self.exact = seed == 0
        self._rng = None if self.exact else random.Random(seed)

    def __call__(self, amp: float = 0.10) -> float:
        if self._rng is None:
            return 1.0
        return 1.0 + amp * self._rng.uniform(-1.0, 1.0)


def _scan(j: _Jitter) -> list[Job]:
    jobs = []
    a = j()
    jobs.append(Job("c10", "spectrum", {
        "run": {"geometry": "sphere"},
        "geometry": {"radius": C10_RADIUS * a},
        "drude": {"gamma": 0.05 * j()},
        "grid": {"omega_min": 0.40 / a, "omega_max": 0.75 / a, "count": 300},
    }))
    a = j()
    jobs.append(Job("default-json", "spectrum", {} if j.exact else {
        "geometry": {"radius": 0.1 * a},
        "grid": {"omega_min": 0.30 / a, "omega_max": 0.95 / a},
    }, ("--format", "json")))
    a, b = j(), j()
    x_scale = a * math.sqrt(b)
    jobs.append(Job("ev-glass", "spectrum", {
        "units": {"scale": "ev", "omega_p_ev": 9.0 * j()},
        "geometry": {"radius": 40.0 * a},
        "host": {"eps_m": 2.25 * b},
        "drude": {"gamma": 0.02 * j()},
        "grid": {"omega_min": 2.0 / x_scale, "omega_max": 4.5 / x_scale, "count": 200},
    }))
    a = j()
    jobs.append(Job("large-jobs2", "spectrum", {
        "geometry": {"radius": 8.0 * a},
        "drude": {"gamma": 0.1 * j()},
        "grid": {"omega_min": 0.30 / a, "omega_max": 0.95 / a, "count": 120},
    }, ("--jobs", "2")))
    jobs.append(Job("dipole", "spectrum", {
        "geometry": {"radius": 0.05 * j()},
        "drude": {"gamma": 0.05 * j()},
        "grid": {"omega_min": 0.30 * j(), "omega_max": 0.95 * j(), "count": 400},
        "spectrum": {"mode": "dipole"},
    }))
    return jobs


def _resonate(j: _Jitter) -> list[Job]:
    both = ("--order", "both")
    c10 = {
        "geometry": {"radius": C10_RADIUS * j()},
        "drude": {"gamma": 0.05 * j()},
        "grid": {"omega_min": 0.40 * j(0.02), "omega_max": 0.75 * j(0.02)},
    }
    magnetic = {
        "geometry": {"radius": 0.4 * j()},
        "drude": {"gamma": 0.02 * j(), "mu_c_re": 1.5 * j()},
        "grid": {"omega_min": 0.30 * j(), "omega_max": 0.95 * j(0.05)},
    }
    shell = {
        "run": {"geometry": "shell"},
        "geometry": {"radius": 0.3 * j(), "rho": 0.5 * j()},
        "drude": {"gamma": 0.05 * j()},
        "grid": {"omega_min": 0.30 * j(), "omega_max": 0.95 * j(0.02)},
    }
    thin_shell = {
        "run": {"geometry": "shell"},
        "geometry": {"radius": 0.2 * j(), "rho": 0.8 * j(0.005)},
        "drude": {"gamma": 0.02 * j()},
        "grid": {"omega_min": 0.30 * j(0.02), "omega_max": 0.95 * j(0.005)},
    }
    return [
        Job("sphere-c10", "resonance", c10, both),
        Job("sphere-magnetic", "resonance", magnetic, both),
        Job("shell", "resonance", shell, both),
        Job("thin-shell", "resonance", thin_shell, both),
        Job("modes-magnetic", "modes", magnetic),
        Job("modes-thin-shell", "modes", thin_shell),
    ]


def _homogenize(j: _Jitter) -> list[Job]:
    def rr(**entries):
        return {k: v * j() for k, v in entries.items()}

    default_aniso = {} if j.exact else {
        "aniso": {"delta": 0.05 * j(), **rr(r11=1.0, r22=1.0, r33=1.0)}}
    return [
        Job("aniso-default", "aniso", default_aniso),
        Job("aniso-traceless", "aniso", {
            "aniso": {"delta": 0.1 * j(), **rr(r11=1.0, r22=-1.0), "r33": 0.0},
            "drude": {"gamma": 0.02 * j()},
        }),
        Job("aniso-offdiag", "aniso", {
            "aniso": {"delta": 0.08 * j(), **rr(r11=1.0, r22=1.0, r12=0.5, r33=0.5)},
        }),
        # Built-in defaults on every seed: the lossless composite has a pole where
        # Id - f M / 3 is singular, and a jittered f or grid puts a grid point
        # inside the library's singularity margin for about 1% of seeds, where
        # it refuses with exit code 3 by design.
        Job("mg-default", "mg"),
        Job("mg-dense", "mg", {
            "mg": {"f": 0.2 * j()},
            "drude": {"gamma": 0.05 * j()},
            "grid": {"omega_min": 0.30 * j(), "omega_max": 0.95 * j(), "count": 400},
        }),
        Job("selftest", "selftest"),
    ]


_BUILDERS = {"scan": _scan, "resonate": _resonate, "homogenize": _homogenize}


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of ``workload`` for ``seed``; the same seed gives the same jobs."""
    return _BUILDERS[workload](_Jitter(seed))
