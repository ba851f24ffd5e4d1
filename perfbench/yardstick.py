"""The yardstick: a fixed piece of work that does not touch qharm, timed
between every two timed qharm calls so that op times can be reported at
a fixed machine speed.

The benchmark runs on a shared 2-core VM whose speed drops by up to
1.7x, for periods from a second to several minutes, as other tenants
load the host.  Process CPU time grows with wall time in those periods,
so it does not help.  The yardstick's time moves with the machine's
speed, so an op time ``t`` is reported as

    t * REF_S / y

with ``y`` the mean of the yardstick times right before and right after
the op: the time the op takes when the yardstick takes ``REF_S``
seconds, its time on this machine in a quiet period.  Import this module
only after ``common.pin_environment`` has run, as it imports numpy.

    python3 perfbench/yardstick.py    # prints the yardstick's time here
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The yardstick's median time on the machine the baseline was recorded on
# (2-core Xeon VM, Python 3.11.7, numpy 2.4.6, one BLAS thread).
REF_S = 0.005

_rng = np.random.default_rng(0)
_vec = _rng.standard_normal(729) + 1j * _rng.standard_normal(729)
_mat = _rng.standard_normal((24, 24))
_idx = _rng.integers(0, 729, 300)


def _work() -> dict:
    """The interpreter and small-numpy mix of the batteries: dict updates
    in a Python loop, then transforms, products, sorts and gathers on
    arrays of the batteries' sizes."""
    table: dict[int, int] = {}
    for i in range(11000):
        key = (i * 7) & 127
        table[key] = table.get(key, 0) + i
    for _ in range(110):
        spec = np.fft.fft(_vec)
        _mat @ _mat
        np.unique(_idx)
        spec[_idx].sum()
    return table


def time_once() -> float:
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


if __name__ == "__main__":
    time_once()
    print(f"{statistics.median(time_once() for _ in range(200)):.6f} s (REF_S = {REF_S})")
