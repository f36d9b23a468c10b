"""A fixed kernel that measures how fast the machine runs right now.

On a shared machine the same work can take 35% longer from one half hour to
the next (README.md, "Noise").  `run.py` times this kernel between verdicts
and before every set-up, and divides each measured time by the slowdown the
kernel saw at that moment: every reported time is in seconds of a machine on
which the kernel takes REFERENCE_S.

The kernel shares no code with godex: a little dict and tuple bookkeeping in
pure Python and a few small F_5 matrix products in numpy, the two kinds of
work godex's verdicts are made of.  Changing it, or REFERENCE_S, changes
every time the benchmark reports.
"""

import statistics
import time

import numpy as np

# The kernel's median time on the reference machine (2 shared cores, Python
# 3.11.7, numpy 2.4.6, one BLAS thread); see README.md.
REFERENCE_S = 0.0027

_A = (np.arange(40 * 40, dtype=np.float64).reshape(40, 40) * 7) % 5


def kernel() -> int:
    d = {}
    for i in range(600):
        d[(i % 13, i)] = (i, (i * 3) % 5)
    s = 0
    for k, v in d.items():
        s += v[1] * k[0]
    m = _A
    for _ in range(30):
        m = (m @ _A) % 5
    return s + int(m[0, 0])


def probe() -> float:
    """Seconds one run of the kernel takes."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def slowdown(samples) -> float:
    """How much slower than the reference the machine ran, from probe times."""
    return statistics.median(samples) / REFERENCE_S
