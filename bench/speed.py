"""Machine-speed calibration for timings taken on a shared host.

On the VM this benchmark was built on, other tenants change the speed of
the same work by up to 1.6x from one second to the next, and the mix
drifts over minutes, so raw seconds from two sets of runs an hour apart
do not compare. Each timing is therefore divided by the mean time of a
fixed piece of calibration work (``rep``, about half a millisecond of
small numpy calls from a Python loop, integer bytecode and float
formatting, the mix zenosim spends its time on) taken in blocks right
before and after each command. A command shorter than the bursts of
contention is divided by the mean rep of its own two blocks; a longer one
averages over many bursts itself and is divided by the mean rep over the
whole run, which follows the slower drift. Multiplying the ratio by
``REF_REP_S`` expresses it in seconds at the reference machine's speed.
"""

from __future__ import annotations

import time

import numpy as np

#: length of the calibration block after a command, as a share of its time
BLOCK_SHARE = 0.15
BLOCK_MIN_REPS = 8
#: time of one rep on the reference VM (see README) in its fast state
REF_REP_S = 5e-4

_X = np.linspace(0.0, 1.0, 512)


def rep() -> float:
    """Seconds taken by one piece of calibration work."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(12):
        acc += float(np.sin(_X * k) @ _X)
    total = 0
    for i in range(2500):
        total += i * i % 7
    text = ",".join(f"{v:.16e}" for v in _X[:64])
    elapsed = time.perf_counter() - start
    if acc + total + len(text) < 0:  # keeps the work observable
        raise AssertionError
    return elapsed


def block(seconds: float) -> list[float]:
    """Calibration reps for ``seconds``, and at least ``BLOCK_MIN_REPS``."""
    start = time.perf_counter()
    reps = [rep() for _ in range(BLOCK_MIN_REPS)]
    while time.perf_counter() - start < seconds:
        reps.append(rep())
    return reps
