"""Host speed, sampled by a reference loop while a workload runs.

The benchmark runs on a few vCPUs of a shared host, and their speed
drifts by a quarter or more over seconds as other tenants come and
go: the same k-truss takes 4.5 s in one stretch of a run and 6.5 s in
the next.  A throughput averaged over one run still carries that drift.

:class:`HostSpeed` times, from a thread, a fixed pure-Python loop (dict inserts of tuple keys and small
lists, the kind of work the database does) for :data:`SAMPLE_S` of the
thread's CPU time every :data:`INTERVAL_S`.  A span of the workload is
scaled by the mean rate sampled during it over :data:`NOMINAL`, which
gives the time it would have taken at the nominal host speed.  The
reference loop is the benchmark's own code, so no change to the
program moves it, and a program that gets faster gets faster by the
same share in scaled time.

The rate is counted in the sampler's own CPU time, so time it waits
for the CPU or the interpreter lock, which depends on the workload,
does not lower it.  A single-threaded in-process workload is pinned
to one CPU with the sampler: unpinned, the two ran on different vCPUs
whose speeds differ, and scaling by probes taken beside the workload
made the spread worse, not better.  A cluster's client and servers
share all CPUs, so there the sampler is not pinned and samples them
all.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Optional, Set, Tuple

#: time between samples
INTERVAL_S = 0.1
#: the sampler thread's CPU time per sample; below the interpreter's
#: 5 ms switch interval, so a sample is rarely cut by the workload
SAMPLE_S = 0.002
#: reference chunks per CPU second at the nominal host speed: about
#: the median rate on a 2-vCPU Xeon host (Python 3.11) when it is quiet
NOMINAL = 5000.0
#: dict inserts per reference chunk
CHUNK = 500


def reference_chunk(scratch: dict) -> None:
    """One unit of reference work."""
    for i in range(CHUNK):
        scratch[(i, "v")] = [i, str(i)]
    scratch.clear()


def sample(scratch: dict) -> Tuple[float, float]:
    """``(time, rate)``: reference chunks per CPU second of the calling
    thread, over at least :data:`SAMPLE_S`."""
    start = time.thread_time()
    n = 0
    while True:
        reference_chunk(scratch)
        n += 1
        cpu = time.thread_time() - start
        if cpu >= SAMPLE_S:
            return time.perf_counter(), n / cpu


class HostSpeed:
    """Host-speed samples taken by a thread between :meth:`start` and
    :meth:`stop`, and the scaling of workload spans by them."""

    def __init__(self, pin: bool = True):
        self.pin = pin
        #: sample times (``time.perf_counter``), ascending, and rates
        self.times: List[float] = []
        self.rates: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._affinity: Optional[Set[int]] = None

    def start(self) -> "HostSpeed":
        """Pin the calling thread, and so the sampler it starts, to one
        CPU (unless ``pin`` is false), and start sampling."""
        if self.pin:
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})
        self._thread = threading.Thread(target=self._run, name="hostspeed",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling, wait for the sampler, and unpin."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self.pin:
            os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        scratch: dict = {}
        while not self._stop.wait(INTERVAL_S):
            t, rate = sample(scratch)
            self.rates.append(rate)
            self.times.append(t)

    def factor(self, start: float, end: float) -> float:
        """Share of the span ``[start, end]``'s time it would take at
        the nominal speed: the mean rate sampled in it over
        :data:`NOMINAL`.  A span with no sample in it, shorter than
        the interval, takes the samples just before and after it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        rates = self.rates[lo:hi]
        if not rates:
            raise RuntimeError("no host-speed sample near the span")
        return sum(rates) / len(rates) / NOMINAL

    def scaled(self, start: float, end: float) -> float:
        """The span's time at the nominal speed."""
        return (end - start) * self.factor(start, end)
