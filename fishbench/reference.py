"""Contention-corrected timing.

The benchmark machine is shared. For up to seconds at a time, other load on
it slows this process by up to 2x, in wall and CPU time alike, and no run
length that fits the benchmark's budget averages that away (README.md has
the measurements). So a fixed reference loop (``probe``) is timed between
the measured calls, and every measured duration is rescaled by how slow the
probe ran around it:

    corrected = measured * REFERENCE_S / median(probe times nearby)

REFERENCE_S is the probe's time on an idle core of the 2-vCPU Intel Xeon VM
the benchmark was written on, so corrected times read as that machine's
uncontended seconds. The raw times are printed next to the corrected ones.
"""

import gc
import heapq
import math
import statistics
import time

clock = time.perf_counter

REFERENCE_S = 160e-6
EVERY_S = 0.02  # probe after a measured call when the last probe is this old
WINDOW = 3  # probes on each side of a call that set its correction
SETUP_PROBES = 25  # probes after one set-up


def probe():
    """Fixed pure-Python work of the kind the engine does: heap and dict
    operations on small integers."""
    heap, counts = [], {}
    for i in range(400):
        heapq.heappush(heap, (i * 7919) % 1009)
        counts[i] = counts.get(i - 1, 0) + 1
    while heap:
        heapq.heappop(heap)


def time_probe():
    """Seconds one probe takes. A collection triggered inside it would
    charge the probe for the size of the engine's heap, so none runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = clock()
        probe()
        return clock() - t
    finally:
        if enabled:
            gc.enable()


def slowdown(probes):
    """How much slower than REFERENCE_S the median probe ran."""
    return statistics.median(probes) / REFERENCE_S


class Reference:
    """Measured calls in order, probes between them, and the calls'
    corrected durations."""

    def __init__(self, timer=time_probe, every_s=EVERY_S):
        self._timer = timer
        self._every = every_s
        self._last = -math.inf
        self.probes = []
        self._calls = []  # (kind, seconds, probes taken before the call)

    def record(self, kind, seconds):
        """Note one measured call, then probe if the last probe is old."""
        self._calls.append((kind, seconds, len(self.probes)))
        if clock() - self._last >= self._every:
            self.probes.append(self._timer())
            self._last = clock()

    def raw(self, kind):
        return [s for k, s, _ in self._calls if k == kind]

    def corrected(self, kind):
        """Corrected seconds of the calls of one kind, in call order. A
        call with p probes before it is corrected by the median of the
        WINDOW probes on each side of it."""
        probes = self.probes
        factor = [
            REFERENCE_S / statistics.median(probes[max(p - WINDOW, 0):p + WINDOW])
            for p in range(len(probes))
        ]
        return [s * factor[min(p, len(probes) - 1)]
                for k, s, p in self._calls if k == kind]
