"""Host-speed reference: report times at one nominal machine speed.

The machines this benchmark runs on are shared, and their speed drifts by
±30 % over tens of seconds.  The drift moves every computation alike, the
bhc commands and any other CPU-bound code, so a fixed reference kernel
timed just before and just after a command shows how fast the host was
during it.  A command's reported time is its measured time scaled by
``REFERENCE_S / reference time``: the time it would take when the
reference kernel takes ``REFERENCE_S``.  The kernel does not touch bhc,
so no change to bhc can move it.  The raw times are reported beside the
scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Median time of reference() on the 2-core x86_64 host where the first
# baseline was taken (Python 3.11.7, numpy 2.4.6); it sets the units only.
REFERENCE_S = 0.0235


def reference() -> float:
    """Seconds taken by a fixed kernel of Fraction arithmetic and small numpy calls."""
    started = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(2 * k, k + 3) * Fraction(k - 1, 2 * k + 1)
    a = np.ones((8, 8))
    for _ in range(1500):
        a = np.abs(a @ a.T).sum(axis=0)[:, None] * np.ones((1, 8)) / 64.0
    return time.perf_counter() - started


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """``times`` at nominal speed; ``refs[i]`` and ``refs[i + 1]`` were
    timed just before and just after ``times[i]``."""
    return [t * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]
