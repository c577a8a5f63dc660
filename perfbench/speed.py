"""Contention-normalized timing for a shared machine.

On a shared host the effective speed of a core drifts by up to 2x over
seconds to minutes as other tenants load it, and process CPU time drifts
with it.  So every timed span here carries its own speed reading, taken
during the span: a SIGALRM every ``PERIOD_S`` runs a fixed pure-Python
snippet and times it.  A span's time excludes the snippet runs and is
rescaled to the reference speed:

    normalized = (wall - snippet time) * REFERENCE_SNIPPET_S / mean snippet time

``REFERENCE_SNIPPET_S`` is the snippet's time on an idle core of the
machine the bounds were tuned on (a 2-vCPU Xeon KVM guest), so a
normalized second is close to a wall second there when nothing else runs.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
REFERENCE_SNIPPET_S = 4.5e-4

_TABLE = {i: float(i) for i in range(64)}


def snippet() -> float:
    """Fixed interpreter work: dict lookups, float arithmetic, int-to-str."""
    s = 0.0
    for i in range(1500):
        s += _TABLE[i & 63] * 0.5
    for i in range(1500):
        s += _TABLE[(i * 7) & 63] * 0.25 + len(str(i))
    return s


class Sampler:
    """Samples the snippet's time on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0  # total seconds spent in the snippet

    def _handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        snippet()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.paused += elapsed

    def now(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return time.perf_counter() - self.paused

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, first: int = 0) -> float:
        """Reference / mean snippet time over samples[first:] (all if none fell there)."""
        if not self.samples:
            self._handler(None, None)
        window = self.samples[first:] or self.samples
        return REFERENCE_SNIPPET_S * len(window) / sum(window)
