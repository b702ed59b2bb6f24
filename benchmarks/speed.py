"""Machine-speed probe, sampled while the program runs.

On a shared virtual machine the speed of the CPU drifts by tens of
percent within seconds and minutes, with the load on the host. Run
after run, the same deterministic work (`ttp-exhaustive`) then spreads
by about 30% in host seconds. To measure the program rather than its
neighbours, a timer signal interrupts the process every `INTERVAL_S`
and times a fixed pure-Python loop. The samples say how fast the
machine ran during a measured interval, and `SpeedProbe.factor()` turns
that interval's host seconds into nominal seconds: what it would have
taken on a machine where the loop takes `NOMINAL_PROBE_S`. Samples come
at equal steps of host time, so each scales one step: the factor is the
mean of `NOMINAL_PROBE_S / sample`, and a slow spell counts for as long
as it lasted, however short.

The loop runs twice per sample and only the second pass is timed, so
the caches and TLB entries the program evicted are warm again and the
sample does not depend on the program's memory footprint (BASELINE.md
checks this across workloads of 24 to 53 MB). The probe runs in the
measured process between bytecodes; it starts no thread or process and
costs about 1.5% of the interval, which the nominal figures include.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 2000
# the loop's median time on the 2-vCPU 2.1 GHz Xeon VM the baseline was
# recorded on; a constant, so that figures compare across runs
NOMINAL_PROBE_S = 150e-6


def _loop() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


def probe() -> float:
    """Host seconds of one warm pass of the loop."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples `probe()` on a timer while the `with` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def factor(self) -> float:
        """Nominal seconds per host second over the block.

        A block too short to be sampled is timed once more at its end.
        """
        samples = self.samples or [probe()]
        return statistics.fmean(NOMINAL_PROBE_S / s for s in samples)
