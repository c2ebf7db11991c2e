"""Host-speed probe that takes the host's speed swings out of the timings.

On a shared host the same work can run at speeds up to 2x apart, in swings
that last from seconds to minutes.  Process CPU time swings with wall time,
so it is no steadier.  ``chunk_time`` times a fixed chunk of pure-Python and
numpy work that uses no fdrlos code.  The benchmark runs it right before and
right after each measured interval.  Scaling the interval by
``REF_S / chunk time`` gives the time the interval would have taken on a host
that runs one chunk in ``REF_S``.  A change to fdrlos moves that time; a swing
of the host mostly does not.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal chunk time, about the median on a 2-core 2.1 GHz Xeon VM
REF_S = 2.5e-3
#: probe time on each side of a measured interval, as a share of the interval
SHARE = 0.05

_X = np.linspace(0.1, 10.0, 20000)


def _chunk():
    s = 0.0
    for i in range(20000):
        s += (i * 0.5) ** 0.5
    for _ in range(4):
        s += float(np.sum(np.exp(-_X) * np.log(_X)))
    return s


def chunk_time(budget):
    """Mean time of one chunk, repeated for about ``budget`` seconds and at
    least twice."""
    n = 0
    t0 = time.perf_counter()
    while True:
        _chunk()
        n += 1
        spent = time.perf_counter() - t0
        if n >= 2 and spent >= budget:
            return spent / n


def scaled(seconds, chunk):
    """``seconds`` measured next to a chunk time of ``chunk``, at host speed REF_S."""
    return seconds * REF_S / chunk
