"""How a run's rounds and set-up probes become its figures.

On the shared 2-vCPU virtual machine the benchmark was tuned on, speed
changes in regimes that last 5 to 40 s, by up to 2x, for every kind of
work alike.  A run's median lands in whichever regime the
run happened to hit.  Its slowest rounds land in the slow regime, which
repeats within a few per cent from run to run, so the per-run figures are
taken from the slowest quarter of rounds.  Set-up probes are spread over
the run for the same reason.  Loads no NumPy: run.py imports it.
"""

from __future__ import annotations

import math
import statistics

SETUP_PROBES = 9


def slow_quarter(times) -> float:
    """Mean of the slowest quarter (at least one) of per-round times."""
    times = sorted(times)
    return statistics.fmean(times[-math.ceil(len(times) / 4):])


class SpreadProbes:
    """``probe()`` called SETUP_PROBES times over a run, spread by busy time.

    One call comes first and is discarded: it compiles the bytecode and
    fills the page cache, which a user pays once, not per run.  After that,
    ``due(share)`` makes the calls that are due once ``share`` of the run's
    busy time has passed: one at the start and one more per ninth.
    """

    def __init__(self, probe):
        self.probe = probe
        self.results: list = []
        probe()

    def due(self, share: float) -> None:
        while len(self.results) < SETUP_PROBES and len(self.results) <= share * SETUP_PROBES:
            self.results.append(self.probe())
