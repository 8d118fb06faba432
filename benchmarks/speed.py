"""Wall time at a reference machine speed.

On a shared 2-vCPU Intel Xeon virtual machine the CPU alternates between
speed states that last from seconds to minutes.  The same work ran up to
1.65 times slower in one state than in the other, and ten 20-second runs
of ``kernel_circle`` spread by 41% (quartile distance over median) in raw
wall time.  :class:`SpeedClock` samples the speed while the
measured code runs: a ``SIGALRM`` timer fires every ``INTERVAL_S`` and its
handler times one fixed probe.  Each stretch of wall time between two
probes is divided by the duration of the probe that opened it, which
counts the stretch in probe units, and multiplied by
``REFERENCE_PROBE_S``, the probe's duration in that machine's fast state.
The result, ``seconds``, is the time the code would take at the reference
speed.

The probe formats floats into a string.  Of the probes tried (small FFTs,
an arithmetic loop, a memory copy, float formatting), its duration
followed the slowdown of CSV formatting, a circle-256 and a torus-64
operator apply most closely, with a log-log slope of 0.96 to 1.03.

The probe is benchmark code, so a faster program lowers ``seconds`` in
proportion.  Probe time is excluded from both ``wall`` and ``seconds``.
The handler runs between Python bytecodes, so a long native call delays
the next probe but not the accounting.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 8.5e-5
_VALUES = [0.1 * i + 1e-3 for i in range(60)]


def _probe():
    """Time one fixed probe; return (duration, end time)."""
    start = time.perf_counter()
    for _ in range(2):
        ",".join(repr(v) for v in _VALUES)
    end = time.perf_counter()
    return end - start, end


class SpeedClock:
    """Context manager measuring ``wall`` and ``seconds`` (reference speed)."""

    def __enter__(self):
        self.wall = 0.0
        self.seconds = 0.0
        self._speed, self._since = _probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, *_):
        self._account(time.perf_counter())
        self._speed, self._since = _probe()

    def _account(self, now):
        stretch = now - self._since
        self.wall += stretch
        self.seconds += stretch * (REFERENCE_PROBE_S / self._speed)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._account(time.perf_counter())
        signal.signal(signal.SIGALRM, self._previous)
        return False
