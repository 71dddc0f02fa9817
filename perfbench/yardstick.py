"""A fixed reference computation that gauges how fast the host runs now.

On a shared host the same code can take 1.5 times as long for stretches of
two seconds to minutes, in process CPU time as much as in wall time, because
other tenants load the same cores and caches.  A run therefore samples this
computation in its own process: a few times between rounds, and, while a
round runs, once per INTERVAL_S, from a timer signal.  A signal that arrives
during a long call into native code, such as a dense eigensolve, waits for
it to return, so such a round relies more on the samples on both sides of
it.  A sample is taken twice and the second time kept: the first runs on
caches the program has just filled with its own data.  Each round's CPU
time, less the samples taken inside it, is scaled by NOMINAL_S over the mean
time of the samples inside it and next to it on both sides: seconds at the
speed the host has when a sample takes NOMINAL_S.  The mean, not the median,
because a round's time grows with the share of it spent slow; but a sample
is counted as at most twice the median, since one that an interrupt
stretched says nothing about the rest of the round.

A sample does nothing with the program and holds no memory afterwards.  It
mixes the kinds of Python work the program does, on data small enough to
stay in the nearest caches, so that the program's own use of memory barely
changes it: small-integer modular powers (the Miller-Rabin walk), and
building and searching a tuple-of-tuples adjacency (the graph layer and the
matching).  Its work is the same on every call.  The module imports nothing
the program might import, so that a set-up probe can sample before and after
importing the program without changing what the import costs.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from time import process_time

# About the median sample time on an idle 2-core Intel Xeon host (Python
# 3.11.7).  It only fixes the scale of the reported seconds, so it never
# changes with the program.
NOMINAL_S = 0.0040
INTERVAL_S = 0.25         # seconds between samples while a round runs
BOUNDARY_SAMPLES = 4      # samples before each round and after the last
SETUP_SAMPLES = 5         # samples before and after the import in a set-up probe

_N = 400                  # vertices of the fixed 4-regular graph


def _sample() -> float:
    """CPU seconds one sample takes.  The garbage collector is off meanwhile:
    its passes would scan every object the program holds, and the sample
    would slow with the program's heap rather than with the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        acc = 0
        for n in range(1_000_001, 1_006_001, 2):
            acc ^= pow(2, n - 1, n)
        adj = tuple(tuple(sorted({(v + 1) % _N, (v - 1) % _N,
                                  (v * 7 + 3) % _N, (v * 37 + 11) % _N} - {v}))
                    for v in range(_N))
        for _ in range(6):
            seen = [False] * _N
            seen[0] = True
            frontier = [0]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in adj[v]:
                        if not seen[w]:
                            seen[w] = True
                            nxt.append(w)
                frontier = nxt
        return process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """The samples of one run, and the CPU time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0          # CPU seconds taken by samples, overhead included
        self._busy = False

    def sample(self, count: int = BOUNDARY_SAMPLES) -> None:
        for _ in range(count):
            self._take()

    def _take(self, *_signal_args) -> None:
        if self._busy:            # a timer signal during a sample
            return
        self._busy = True
        t0 = process_time()
        try:
            _sample()
            self.samples.append(_sample())
        finally:
            self.spent += process_time() - t0
            self._busy = False

    def cpu(self) -> float:
        """Process CPU time less what the samples took."""
        while True:
            spent = self.spent
            now = process_time()
            if spent == self.spent:   # no sample ran in between
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """NOMINAL_S over the mean time of samples[start:stop], each sample
        counted as at most twice the median."""
        samples = sorted(self.samples[start:stop])
        cap = 2 * samples[len(samples) // 2]
        return NOMINAL_S * len(samples) / sum(min(s, cap) for s in samples)

    @contextmanager
    def sampling(self):
        """Take a sample every INTERVAL_S meanwhile.

        The timer runs on wall time: a CPU-time timer (ITIMER_PROF) makes
        the kernel read the process's CPU clock from its per-tick group
        timer, and samples then came out in whole 4 ms ticks.
        """
        old = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)
