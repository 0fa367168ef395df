"""Order statistics and the parent-versus-change comparison rule.

Kept free of any import from the program so that the arithmetic can be
tested on its own.
"""

from __future__ import annotations

import statistics


def percentile(values, p: float) -> float:
    """The p-th percentile (0 <= p <= 100) by linear interpolation between
    closest ranks, the same rule as numpy's default."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, beyond: int = 10):
    """The highest whole percentile with at least `beyond` samples above it.

    Returns (p, value) or None when there are too few samples for any
    percentile above the median to have that many samples beyond it.
    """
    n = len(values)
    if n < 2 * beyond:
        return None
    p = int(100 * (n - beyond) / n)
    return p, percentile(values, p)


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: dict, change: dict, better: str, bound: float) -> dict:
    """Verdict for one (workload, metric) pair.

    parent and change map seed -> value; runs with the same seed form a
    pair.  The rule:

    * improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ, in the better direction,
      by more than the parent's interquartile distance;
    * unresolved: otherwise, when either side's interquartile distance is
      wider than the bound (a share of the parent's median), unless every
      change run reads better than every parent run;
    * worse: the change median is worse than the parent median by more
      than the bound;
    * unchanged: everything else.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise ValueError("no seed was run on both sides")
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p_q = quartiles(list(parent.values()))
    c_q = quartiles(list(change.values()))
    p_med, c_med = p_q[1], c_q[1]
    gain = sign * (c_med - p_med)
    scale = abs(p_med)
    spread = max(p_q[2] - p_q[0], c_q[2] - c_q[0])
    all_better = (min(change.values()) > max(parent.values()) if sign > 0
                  else max(change.values()) < min(parent.values()))
    if wins >= 0.9 * len(seeds) and gain > p_q[2] - p_q[0]:
        verdict = "improved"
    elif spread > bound * scale and not all_better:
        verdict = "unresolved"
    elif -gain > bound * scale:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return {"parent": p_q, "change": c_q, "pairs": len(seeds),
            "win_share": wins / len(seeds), "verdict": verdict}
