"""Host speed sampled while the benchmark runs, to correct its times.

The benchmark runs on a few cores of a shared host. There the same
pure-Python loop runs up to 2.5x slower while other tenants are busy, in
stretches from a tenth of a second to minutes. CPU time equals wall time and
no steal is reported, so the process cannot see that time directly.

A ``Sampler`` interrupts the process every ``INTERVAL`` seconds and times a
short fixed loop, the probe. A part of a pass that took ``d`` seconds, of which
``p`` were probes, while the probes in it took ``m`` seconds on average, is
charged ``(d - p) * REFERENCE_PROBE / m``: its time on a reference host, on
which the probe takes ``REFERENCE_PROBE`` seconds. The reference is close to
the probe's time on an idle core of a 2-vCPU x86_64 cloud host, so charges
there read close to plain seconds. The plain median time moves with the
host's load, and the fastest time waits for a quiet stretch as long as the
part; the charge tracks the load as far as the probe slows down with the
program.

Run as a script, it times the package's import in this fresh interpreter
with probes running, and prints the figures as one JSON line.
"""

from __future__ import annotations

import bisect
import json
import signal
import sys
import time
from array import array

INTERVAL = 0.01
PROBE_LOOPS = 4000
REFERENCE_PROBE = 2.5e-4


def probe(loops: int = PROBE_LOOPS) -> int:
    s = 0
    for i in range(loops):
        s += i * i % 7
    return s


class Sampler:
    """Probe times, taken every ``INTERVAL`` seconds while the sampler is
    entered. It may be entered again; its samples accumulate."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._on_alarm(None, None)     # so that every window has a neighbour
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of probes started in [t0, t1], their mean duration).

        A window without a probe takes the mean of the probes just before
        and just after it, and no probe seconds.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi > lo:
            spent = sum(self.took[lo:hi])
            return spent, spent / (hi - lo)
        near = self.took[max(lo - 1, 0):lo + 1]
        return 0.0, sum(near) / len(near)


def charge(seconds: float, probe_seconds: float, mean_probe: float) -> float:
    """Seconds of work on the reference host."""
    return (seconds - probe_seconds) * REFERENCE_PROBE / mean_probe


def _time_import() -> None:
    with Sampler() as s:
        t0 = time.perf_counter()
        import pwmperc  # noqa: F401
        import pwmperc.cli  # noqa: F401
        t1 = time.perf_counter()
    spent, mean = s.window(t0, t1)
    print(json.dumps({"seconds": t1 - t0, "probe_seconds": spent, "mean_probe": mean}))


if __name__ == "__main__":
    sys.exit(_time_import())
