"""Host speed, sampled while the measured program runs.

The measuring host changes speed by up to half, in episodes of a fraction
of a second and in phases of minutes, whatever the program does.  A fixed
pure-Python probe tracks it: :class:`HostSpeed` times the probe on a
timer signal every ``INTERVAL_S`` while a phase runs, and on request at
the edges of each phase.  :meth:`HostSpeed.phase` then gives a phase's
wall time minus the time the probes took inside it, and the mean probe
time over the phase relative to ``PROBE_REFERENCE_S``: the factor by
which the host ran slower than the reference speed.  Dividing a phase's
time by that factor scales it to the reference speed.  The program never
runs the probe, so a faster program shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Dict, List, Tuple

#: probe seconds at the host speed every reported time is scaled to: about
#: what the probe takes, sampled during a run, on a quiet host
PROBE_REFERENCE_S = 0.0001
#: seconds between two probes taken while a phase runs
INTERVAL_S = 0.025

_TEXT = bytes(range(256)) * 2


def probe() -> float:
    """Seconds for a fixed pure-Python mix of integer arithmetic, dict
    updates and bytes slicing, like the program's own: the host's speed."""
    start = time.perf_counter()
    total = 0
    for value in range(1000):
        total += value * value
    counts: Dict[int, int] = {}
    for value in range(200):
        key = value & 63
        counts[key] = counts.get(key, 0) + 1
        if _TEXT[value: value + 24].find(b"\x07") >= 0:
            total += 1
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples ``(start, end, probe_s)``, taken on a timer while the
    context is entered and whenever :meth:`sample` is called."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer tick inside a requested sample
            return
        self._busy = True
        start = time.perf_counter()
        seconds = probe()
        self.samples.append((start, time.perf_counter(), seconds))
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def phase(self, start: float, end: float) -> Tuple[float, float, int]:
        """``(seconds, host_factor, probes)`` of the phase from ``start`` to
        ``end`` (``perf_counter`` readings): its wall time without the
        probes taken inside it, the host's slowdown over it, measured by
        those probes and the last one before and first one after it, and
        how many probes that was."""
        inside = [s for s in self.samples if s[0] >= start and s[1] <= end]
        before = [s for s in self.samples if s[1] <= start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        used = before + inside + after
        stolen = sum(stop - begin for begin, stop, _ in inside)
        factor = statistics.fmean(seconds for _, _, seconds in used) / PROBE_REFERENCE_S
        return end - start - stolen, factor, len(used)
