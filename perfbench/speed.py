"""Correction of timings for the machine's momentary speed.

On a shared host the benchmark's core runs at full speed for a while and
then, for stretches of one to several seconds, about 1.5-2x slower while
other work runs beside it (measured on a 2-vCPU Xeon VM: the same tau
search took 0.30 s or 0.59 s depending on the moment). Such stretches
cover anything from none to most of a run, so even best-of-N raw timings
spread by 20-37 % between runs of the same code.

A fixed reference loop, numpy scalar indexing and bit operations like the
work of linsys's pure-numpy kernels, slows by about the same factor at
the same moments. ``SpeedLog`` times it between operations, at most every
``PROBE_INTERVAL_S``. Each latency is multiplied by
``REFERENCE_S / local``, where ``local`` is the mean of the probes taken
just before and just after it: the result is the time the operation takes
when the reference loop takes ``REFERENCE_S``, its time at full speed on
the machine above. The fastest probe of a run cannot stand in for
``REFERENCE_S``: some runs never see full speed, and their fastest probe
was up to 25 % slow. The reference loop does not call linsys, so a change
to linsys moves the corrected times as it moves the raw ones.

Starting an interpreter slows less than the reference loop (about 1.4x
where the loop slows 1.75x), so set-up times are corrected by their own
reference instead: ``start_reference`` runs a fresh interpreter that
imports numpy and exits, before and after each set-up probe, and a set-up
time is multiplied by ``REFERENCE_START_S`` over the mean of the two.
"""

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
REFERENCE_STEPS = 4000
REFERENCE_S = 1.5e-3  # the loop's time at full speed on the machine above
REFERENCE_START_S = 0.1  # start_reference() at full speed on that machine
_WORDS = np.arange(64, dtype=np.uint64)


def reference_work():
    acc = np.uint64(0)
    for k in range(REFERENCE_STEPS):
        acc |= _WORDS[k & 63] & np.uint64(k)
    return acc


class SpeedLog:
    """Probe start times and durations, in perf_counter seconds."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.last_end = float("-inf")

    def probe(self):
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.last_end = end

    def maybe_probe(self):
        if time.perf_counter() - self.last_end >= PROBE_INTERVAL_S:
            self.probe()

    def local(self, start, end):
        """Mean of the probes from the last one before `start` through the
        first one after `end`."""
        first = max(bisect.bisect_right(self.starts, start) - 1, 0)
        last = bisect.bisect_left(self.starts, end)
        return statistics.fmean(self.durations[first:last + 1])

    def corrected(self, start, seconds):
        """`seconds` measured from `start`, rescaled to the speed at which
        the reference loop takes REFERENCE_S."""
        return seconds * REFERENCE_S / self.local(start, start + seconds)


def start_reference(cwd, timeout):
    """Seconds a fresh interpreter takes to import numpy and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   capture_output=True, timeout=timeout)
    return time.perf_counter() - start
