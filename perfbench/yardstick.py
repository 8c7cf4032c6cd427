"""How fast the host runs this process right now, from a fixed loop.

The benchmark runs on shared hosts whose speed drifts by a third or more
within a minute, for every process alike, while CPU time keeps pace with wall
time.  A fixed pure-Python loop that never touches zetaval, timed between
evaluations, measures that drift; the time metrics are wall times rescaled
to the speed at which the loop takes NOMINAL_S.  A change to zetaval cannot
change the loop, so it moves the rescaled times as much as the wall times.
"""

from __future__ import annotations

import gc
import statistics
import time

LOOPS = 150_000
# seconds one yardstick took, as a median, on the 2-core 2.1 GHz virtual
# machine the bounds were set on; it only fixes the unit of the rescaled times
NOMINAL_S = 0.020
WINDOW_S = 3.0  # yardsticks within this many seconds of an evaluation set its scale


def yardstick() -> float:
    """Seconds for the fixed loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        s = 0
        for i in range(LOOPS):
            s += (i * 7) % 13
            d[i & 255] = s
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[tuple[float, float]], at: float) -> float:
    """NOMINAL_S over the median yardstick of ``probes`` ((time, seconds)
    pairs) within WINDOW_S of time ``at``, or of the three nearest."""
    near = [s for t, s in probes if abs(t - at) <= WINDOW_S]
    if len(near) < 3:
        near = [s for _t, s in sorted(probes, key=lambda p: abs(p[0] - at))[:3]]
    return NOMINAL_S / statistics.median(near)
