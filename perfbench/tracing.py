"""Spans and counts recorded by wrappers around the library's public functions.

Nothing inside the package is edited: ``Tracer.install`` replaces each traced
function in every ``plasmonics`` namespace that holds a reference to it (a
function imported with ``from .x import f`` lives in two namespaces), and
``Tracer.uninstall`` restores the originals.

A span records (name, parent, start, end, extra).  Spans of one thread nest
through a thread-local stack.  Worker threads of ``scan_spectrum``'s pool do
not inherit that stack, so a span that starts on a worker thread with an
empty stack is parented to the open ``mie.scan_spectrum`` span.

Self time is a span's duration minus the time its children cover.  Where
spans on different threads overlap (the ``--jobs 2`` pool), each instant is
shared equally among the open spans that have no open child, so the self
times of all spans add up to the wall time covered by the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time

SCAN = "mie.scan_spectrum"
EXTINCTION = "mie.extinction"
TAU_EVALS = "sphere_modes.tau_evals"


# (module, attribute, record): what a span stores besides its times.  A
# tuple names parameters to keep; "npoints" keeps len(points) rather than the
# array; "coeffs" keeps (n_max, number of flagged degrees) of the result.
SPANS = (
    ("specfun", "bessel_jh_seq", None),
    ("specfun", "riccati_seq", None),
    ("specfun", "harmonics_all", None),
    ("specfun", "scalar_harmonics_grid", "npoints"),
    ("mie", "scan_spectrum", ("jobs",)),
    ("mie", "extinction", None),
    ("mie", "scattering_coeffs", "coeffs"),
    ("mie", "find_peaks", None),
    ("mie", "write_spectrum_csv", None),
    ("media", "drude_permittivity", None),
    ("sphere_modes", "find_resonance", None),
    ("sphere_modes", "minimize_modulus", None),
    ("sphere_modes", "eigen_expansions", None),
    ("sphere_modes", "small_r_coeffs", ("n",)),
    ("shell_modes", "shell_resonances", None),
    ("shell_modes", "shell_degenerate_expansion", None),
    ("shell_modes", "shell_coeffs", None),
    ("effective", "aniso_resonance", None),
    ("effective", "q1_multiplet", ("n", "degree", "check")),
    ("effective", "mg_effective", None),
    ("effective", "periodic_regular_part", None),
    ("quasistatic", "ball_polarization_tensor", None),
    ("cli", "main", None),
    ("cli", "RunConfig.load", None),
)


def _observer(fn, record):
    if record is None:
        return None
    if record == "coeffs":
        return lambda args, kwargs, result: (result.n_max, len(result.flagged))
    if record == "npoints":
        return lambda args, kwargs, result: len(args[1] if len(args) > 1 else kwargs["points"])
    sig = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments[p] for p in record)
    return observe


# Functions whose calls are counted without a span; their time stays in the
# caller's self time.
COUNTS = (
    ("media", "MaterialPreset.medium_at"),
    ("media", "contrasts"),
)


class Tracer:
    """Installs wrappers, collects spans and counts, and summarizes them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[str] = []  # list.append is atomic, so threads may share it
        self._local = threading.local()
        self._pool_parent = None
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, observe):
        tracer = self
        main = threading.main_thread()
        is_scan = name == SCAN
        is_minimize = name == "sphere_modes.minimize_modulus"
        # Pool threads take turns on the interpreter lock, so their spans
        # overlap in wall time; thread CPU time shows the work actually done.
        cpu_timed = name == EXTINCTION

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not main:
                parent = tracer._pool_parent
            else:
                parent = None
            if is_minimize and args:
                args = (tracer._counting(TAU_EVALS, args[0]), *args[1:])
            rec = [name, parent, 0.0, 0.0, None]
            tracer.spans.append(rec)
            stack.append(rec)
            if is_scan:
                outer, tracer._pool_parent = tracer._pool_parent, rec
            cpu0 = thread_time() if cpu_timed else 0.0
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                if is_scan:
                    tracer._pool_parent = outer
            if cpu_timed:
                rec[4] = thread_time() - cpu0
            elif observe is not None:
                rec[4] = observe(args, kwargs, result)
            return result
        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every namespace that refers to it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "plasmonics" or n.startswith("plasmonics.")]
        for module, attr, record in SPANS:
            self._patch(module, attr, lambda name, fn, rec=record:
                        self._span(name, fn, _observer(fn, rec)), namespaces)
        for module, attr in COUNTS:
            self._patch(module, attr, self._counting, namespaces)

    def _patch(self, module, attr, make, namespaces) -> None:
        mod = importlib.import_module(f"plasmonics.{module}")
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
            else:
                new = make(name, raw)
            setattr(cls, meth, new)
            self._patches.append((cls, meth, raw))
            return
        orig = getattr(mod, attr)
        new = make(name, orig)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, new)
                    self._patches.append((ns, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- summary ------------------------------------------------------------

    def reset(self) -> None:
        # clear in place: installed wrappers hold references to these lists
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per-name calls, self time and extras of the spans recorded so far."""
        spans = self.spans
        self_t = self_times(spans)
        calls = Counter(r[0] for r in spans)
        calls.update(self.counts)
        selfs: dict[str, float] = defaultdict(float)
        extras: dict[str, list] = defaultdict(list)
        for rec, t in zip(spans, self_t):
            selfs[rec[0]] += t
            if rec[4] is not None:
                extras[rec[0]].append(rec[4])
        # parallelism of pooled scans: extinction thread CPU time / scan wall time
        pooled = {id(r) for r in spans if r[0] == SCAN and r[4][0] > 1}
        scan_time = sum(r[3] - r[2] for r in spans if id(r) in pooled)
        ext_cpu = sum(r[4] for r in spans if r[0] == EXTINCTION and id(r[1]) in pooled)
        coeff_bessel = sum(1 for r in spans
                           if r[0] == "specfun.bessel_jh_seq" and _under(r, "mie.scattering_coeffs"))
        return {"calls": calls, "self_s": selfs, "extras": extras,
                "pooled_parallelism": ext_cpu / scan_time if scan_time else 0.0,
                "bessel_under_coeffs": coeff_bessel, "self_sum_s": sum(self_t)}


def _under(rec: list, name: str) -> bool:
    rec = rec[1]
    while rec is not None:
        if rec[0] == name:
            return True
        rec = rec[1]
    return False


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span; concurrent leaf spans share each instant."""
    index = {id(r): i for i, r in enumerate(spans)}
    parent = [index[id(r[1])] if r[1] is not None else -1 for r in spans]
    events = [(r[2], 1, i) for i, r in enumerate(spans)]
    events += [(r[3], 0, i) for i, r in enumerate(spans)]
    events.sort()
    out = [0.0] * len(spans)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    last = 0.0
    for t, starting, i in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        p = parent[i]
        if starting:
            is_open[i] = True
            leaves.add(i)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return out
