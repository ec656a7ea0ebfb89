"""The host's speed, from a fixed reference computation timed between operations.

The 2-vCPU host this benchmark was tuned on switches between two speeds
about 1.5x apart, in stretches of a few seconds to half a minute.  Process
CPU time follows wall time through those stretches, so the slowdown comes
from hardware shared with other machines, not from the scheduler, and
neither longer runs nor CPU time remove it.

So the worker times a reference computation that does not touch pmsp every
``EVERY_S`` seconds, between operations.  An operation's latency is scaled
by ``REFERENCE_S`` over the reference time around it: the times reported
are what the operation takes when the host runs the reference in
``REFERENCE_S``, about this host's usual speed.  A change to pmsp moves
the operations and not the reference, so it shows in full.

The reference is two pure-Python kernels, combined by geometric mean: exact
rational elimination with a dict of sorted tuples, close to what
``intlattice`` and ``oracle`` do, and a plain integer loop.  Each is timed
three times per sample and the fastest kept.  Numpy array work follows the
host's speed differently, so a workload that spends much of its time there
gives it a share of the reference: a kernel shaped like ``idp_check``'s box
scan, a box of points against inequality rows.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.1
REFERENCE_S = 1.4e-3
BOX_REFERENCE_S = 2.9e-3  # the box kernel when the Python kernels take REFERENCE_S
_MATRIX = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 3) for j in range(7)]
           for i in range(9)]


def _rational_kernel() -> int:
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    seen: dict[tuple, int] = {}
    for i in range(300):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        seen[key] = seen.get(key, 0) + 1
    return rank + len(seen)


def _integer_kernel() -> int:
    s = 0
    for i in range(6000):
        s ^= (i * 2654435761) & 0xFFFF
    return s


def _box_kernel_factory():
    import numpy as np

    box = np.arange(4096 * 8, dtype=np.int64).reshape(4096, 8) % 4
    rows = np.arange(64 * 8, dtype=np.int64).reshape(64, 8) % 3 - 1
    return lambda: int((box @ rows.T <= 3).all(axis=1).sum())


def _fastest(kernel) -> float:
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class SpeedProbe:
    """Samples the reference time; scales latencies to reference speed.

    A disabled probe takes no samples and scales nothing (factor 1), as in
    the traced run, whose spans must hold only pmsp's own time.
    `numpy_share` is the weight of the box kernel in the reference.
    """

    def __init__(self, enabled: bool = True, numpy_share: float = 0.0) -> None:
        self.enabled = enabled
        self.numpy_share = numpy_share
        # numpy is imported here, after set-up is timed, and only if used
        self._box_kernel = _box_kernel_factory() if enabled and numpy_share else None
        self.times: list[float] = []  # when each sample was taken
        self.seconds: list[float] = []  # the reference time it measured
        self._last = -math.inf

    def sample(self) -> float:
        """Take one sample now; return the seconds it took."""
        if not self.enabled:
            return 0.0
        start = perf_counter()
        ref = math.sqrt(_fastest(_rational_kernel) * _fastest(_integer_kernel))
        if self._box_kernel:
            box = _fastest(self._box_kernel) * REFERENCE_S / BOX_REFERENCE_S
            ref = ref ** (1 - self.numpy_share) * box ** self.numpy_share
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(ref)
        self._last = end
        return end - start

    def pause(self) -> float:
        """Between two operations: sample if the last sample is EVERY_S old."""
        if self.enabled and perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return 0.0

    def factor(self, t: float) -> float:
        """REFERENCE_S over the mean reference time of the samples just
        before and just after time t."""
        if not self.seconds:
            return 1.0
        i = bisect.bisect_right(self.times, t)
        around = self.seconds[max(0, i - 1):i + 1]
        return REFERENCE_S / (sum(around) / len(around))
