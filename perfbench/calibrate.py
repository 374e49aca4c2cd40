"""A fixed reference kernel that measures the host's current speed.

The host's speed drifts by 15-45% within seconds to minutes, and CPU time
drifts with it.  Timing this kernel between ops gives each op a speed
factor, so that runs made at different host speeds can be compared.  The
kernel is frozen benchmark code: a change to g2forge cannot move it.  It
does the same kind of work as the program (sparse polynomial products over
`Fraction`, in dicts keyed by exponent tuples), so drift slows both alike.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

NOMINAL_S = 0.030   # the kernel's time at the host speed the metrics are scaled to


def _poly(rng: random.Random, terms: int):
    p = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, 3) for _ in range(4))
        p[e] = p.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return p


_RNG = random.Random(0)
_A = _poly(_RNG, 60)
_B = _poly(_RNG, 60)


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _mul(_A, _B)
    _mul(_B, _A)
    return time.perf_counter() - t0
