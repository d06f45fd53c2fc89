"""Job times scaled to a fixed host speed.

On a shared host the CPU runs the same code at speeds that differ by up
to half again, in phases lasting from under a second to minutes, so two
runs of the same code can read 30-40% apart.  The benchmark therefore
runs a fixed pure-Python reference kernel, which calls nothing in
weylg, before the first job of a pass and after every job.  A job's
CPU time divided by the mean kernel time of the probes around it says
how many kernel calls the job's work is worth; multiplied by
REFERENCE_S it gives the job's time on a host where one kernel call
takes REFERENCE_S seconds.
That is about this benchmark's 2-CPU development host in its quiet
phases.  A change that makes weylg faster lowers the scaled time; a
slower or busier host does not raise it.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

REFERENCE_S = 85e-6  # seconds of one kernel call at the fixed speed
PROBE_CALLS = 4  # kernel calls per probe

_MATRIX = [
    [(i * 7 + j * 13) % 11 - 5 + (3 if i == j else 0) for j in range(9)]
    for i in range(9)
]


def kernel():
    """Fraction-free elimination of a 9x9 integer matrix and a few
    hundred dict updates: the kind of work weylg does, not its code."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    d = {}
    for i in range(200):
        d[(i, i % 7)] = d.get((i % 13, i % 7), 0) + i
    return a[-1][-1]


def cpu_s():
    """CPU seconds of this process, all its threads.  Work moved into
    another process would not be counted: every job runs in this one."""
    return time.process_time()


def probe():
    """(cpu_s() at the probe's middle, CPU seconds of one kernel call)."""
    start = cpu_s()
    for _ in range(PROBE_CALLS):
        kernel()
    end = cpu_s()
    return (start + end) / 2, (end - start) / PROBE_CALLS


def scaled(jobs, probes):
    """Times of jobs at the fixed speed.

    jobs are (start, end) cpu_s() readings; probes come from probe(),
    one before the first job and one after every job.  A job is scaled
    by the mean kernel time of the probes within one job length of it,
    and at least the two next to it: one probe is too short to sample
    the speed over a long job, and a whole pass's mean misses the speed
    of a short one.
    """
    clocks = [clock for clock, _ in probes]
    out = []
    for j, (start, end) in enumerate(jobs):
        length = end - start
        lo = min(j, bisect_left(clocks, start - length))
        hi = max(j + 2, bisect_right(clocks, end + length))
        window = [kernel_s for _, kernel_s in probes[lo:hi]]
        out.append(length * REFERENCE_S * len(window) / sum(window))
    return out
