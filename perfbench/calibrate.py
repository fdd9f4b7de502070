"""A fixed calibration kernel that measures how fast the host runs right now.

On a virtual machine that shares its cores with other guests, the CPU time
of the same pass drifts by up to a third over a few minutes, as other guests
compete for the core and its caches.
``kernel_cpu_s`` times a fixed piece of work that uses the interpreter the
way the library does (float and complex loops, ``Fraction`` arithmetic,
small numpy arrays and a 3x3 eigensolve) and never touches the library.  The
benchmark runs it before, between and after the jobs of a pass and divides
the pass's CPU time by the mean kernel time, so that host speed cancels and
a change to the library does not.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from time import process_time

import numpy as np

_GRID = np.linspace(0.0, 1.0, 64)
_SYM = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])


def _floats() -> float:
    s = 0.0
    for i in range(1, 30000):
        x = i * 1e-4
        s += math.sin(x) * x + abs(cmath.exp(1j * x) - 1.0)
    return s


def _fractions() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i * (i + 1))
    return s


def _arrays() -> float:
    s = 0.0
    for i in range(600):
        s += float(np.sum(np.sin(_GRID * i) * np.cos(_GRID)))
        s += float(np.linalg.eigvalsh(_SYM)[0])
    return s


def kernel_cpu_s() -> float:
    """CPU seconds of one run of the calibration kernel (about 35 ms)."""
    c0 = process_time()
    _floats()
    _fractions()
    _arrays()
    return process_time() - c0
