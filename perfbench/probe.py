"""A fixed unit of CPU work that gauges how fast the host runs right now.

The benchmark's hosts switch between a fast and a slow state, about 1.5x
apart, for seconds to tens of seconds at a time; process CPU time slows
down with wall time, so the cause is contention for the core itself.  A
run that lands in a slow state would read up to 1.5x slower with no change
to the program.  The worker therefore runs the probe before the first job
and after every job, and scales each job's wall time by NOMINAL_S over the
time of the probes that bracket it (see `scale`).

The probe imports nothing from the program, so no change to the program
can change what it measures.  Its three parts mirror the kinds of work the
program does: rational Gaussian elimination on Fraction values (the Q
path), mod-p row reduction on small numpy int64 arrays (the GF(p) path),
and a bitmask subset scan with dict lookups (the 2^n scans).  It does no
disk I/O: small-file writes on the benchmark's disks vary from one probe
to the next far more than the disk cache's share of a job does, so a disk
part made the scaled times of the disk-cache workload less steady, not
more.  The disk cache's time is scaled with the rest of a job all the
same: its reads and writes are kernel CPU work on the same core.  On five
seeds of `dc_cache`, scaling whole jobs gave a `job_s_p50` spread of 0.11,
where scaling all but the cache time gave 0.23.
"""

import math
import time
from fractions import Fraction

import numpy as np

# What the probe takes, in wall seconds, on a 2-vCPU Xeon (Sapphire Rapids)
# KVM guest with Python 3.11 in its fast state; scaled times read as wall
# seconds on such a host.
NOMINAL_S = 0.08

_P = 7
_Q_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
              for j in range(10)] for i in range(9)]
_GF_MATRIX = np.array([[(i * 1103515245 + j * 12345 + i * j * j) % 97 % _P
                        for j in range(40)] for i in range(32)],
                      dtype=np.int64)
_SUBSET_N = 16


def _rank_q(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rank_mod_p(mat) -> int:
    a = mat % _P
    rank = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[rank:, c])[0]
        if len(nz) == 0:
            continue
        r = rank + nz[0]
        a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), _P - 2, _P) % _P
        below = np.nonzero(a[:, c])[0]
        below = below[below != rank]
        a[below] = (a[below] - np.outer(a[below, c], a[rank])) % _P
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _subset_scan(n: int) -> int:
    sizes = {}
    total = 0
    for mask in range(1 << n):
        k = bin(mask).count("1")
        sizes[k] = sizes.get(k, 0) + 1
        total += sizes[k] & 7
    return total + sum(math.comb(n, k) == v for k, v in sizes.items())


def _work() -> tuple:
    q = sum(_rank_q(_Q_MATRIX) for _ in range(14))
    gf = sum(_rank_mod_p(_GF_MATRIX.copy()) for _ in range(24))
    return q, gf, _subset_scan(_SUBSET_N)


EXPECTED = _work()


def probe(clock=time.perf_counter) -> float:
    """Wall seconds of one fixed unit of work; checks its result."""
    start = clock()
    result = _work()
    seconds = clock() - start
    if result != EXPECTED:
        raise RuntimeError(f"probe computed {result}, not {EXPECTED}")
    return seconds


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds of work bracketed by probes of `before` and `after`
    seconds, restated at the probe's nominal speed."""
    return seconds * NOMINAL_S / math.sqrt(before * after)
