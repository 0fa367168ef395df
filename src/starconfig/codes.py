"""Linear codes, generalized Hamming weights and Wei duality.

The weight hierarchy is computed by three routes which must always agree:
exhaustive subset counts, shifted Tutte coefficients, and dual-matroid
rank.  The last restates the first on complements and reads the same
counts, so only the first two are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import ExactArithError, ExactMatrix, FieldSpec, kernel_basis
from .matroid import VectorMatroid
from .tutte import ShiftedCoeffs, tutte_deletion_contraction, whitney_shift


class CodeError(ExactArithError):
    pass


def form_label(spec: FieldSpec, col) -> str:
    """Human label of the linear form dual to a matrix column."""
    zero = spec.zero
    parts = []
    for i, c in enumerate(col):
        if c == zero:
            continue
        name = f"x{i + 1}"
        parts.append(name if c == spec.one else f"{spec.to_str(c)}*{name}")
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class WeightHierarchy:
    """d_0 .. d_k with d_0 = 0 and, for loopless codes, d_k = n."""

    d: tuple

    @property
    def k(self) -> int:
        return len(self.d) - 1

    def interval_index(self, a: int) -> int:
        """The unique r with d_r < a <= d_{r+1}."""
        for r in range(self.k):
            if self.d[r] < a <= self.d[r + 1]:
                return r
        raise ExactArithError(f"a={a} outside (d_0, d_k]")

    def validate(self, n: int, k: int):
        d = self.d
        if d[0] != 0:
            raise ExactArithError("d_0 must be 0")
        for r in range(1, k):
            if not d[r] < d[r + 1]:
                raise ExactArithError("hierarchy must increase strictly")
        for r in range(1, k + 1):
            if d[r] > n - k + r:
                raise ExactArithError("Singleton-type bound violated")
        if k >= 1 and d[k] != n:
            raise ExactArithError("d_k must equal n for loopless codes")

    def to_json(self) -> list:
        return list(self.d)


class LinearCode:
    """A k x n full-rank generator matrix with no zero columns."""

    def __init__(self, matrix: ExactMatrix, labels=None):
        zero = matrix.spec.zero
        for j in range(matrix.cols):
            if all(x == zero for x in matrix.column(j)):
                raise CodeError(
                    f"column {j + 1} is zero: zero columns (matroid loops) "
                    "are not allowed in a generator matrix")
        self.matrix = matrix
        self.spec = matrix.spec
        self.n = matrix.cols
        self.k = matrix.rows
        self.matroid = VectorMatroid(matrix)
        if self.matroid.full_rank != self.k:
            raise CodeError(
                f"generator matrix must have full row rank {self.k}, "
                f"got {self.matroid.full_rank}")
        if labels is not None and len(labels) != self.n:
            raise CodeError("need one label per column")
        self.labels = (tuple(labels) if labels is not None else
                       tuple(form_label(self.spec, matrix.column(j))
                             for j in range(self.n)))


# -- the three GHW routes ----------------------------------------------------

def _ghw_bruteforce_matroid(m: VectorMatroid, r: int) -> int:
    """d_r = n - max{|J| : rank(J) = k - r}, read off row k - r of the
    counts of subsets by rank and size."""
    sizes = m.rank_size_counts()[m.full_rank - r].nonzero()[0]
    if not sizes.size:
        raise ExactArithError(f"no subset of rank {m.full_rank - r}")
    return m.n - int(sizes.max())


def ghw_bruteforce(code: LinearCode, r: int) -> int:
    if not 0 <= r <= code.k:
        raise ExactArithError(f"r={r} out of range")
    return _ghw_bruteforce_matroid(code.matroid, r)


def ghw_from_tutte(coeffs: ShiftedCoeffs, code: LinearCode, r: int) -> int:
    if not 0 <= r <= code.k:
        raise ExactArithError(f"r={r} out of range")
    return code.n - coeffs.p[r] - code.k + r


def ghw_from_dual_rank(code: LinearCode, r: int) -> int:
    """d_r = min{|I| : |I| - r*(I) = r}.

    This restates the brute-force route rather than checking it: since
    |I| - r*(I) = r(M) - r([n] - I), the witnesses I are the complements
    of the subsets J of rank k - r, so the minimum |I| is n minus the
    largest |J|, which the brute-force route reads.
    """
    if not 0 <= r <= code.k:
        raise ExactArithError(f"r={r} out of range")
    return _ghw_bruteforce_matroid(code.matroid, r)


def weight_hierarchy(code: LinearCode) -> WeightHierarchy:
    """Brute-force hierarchy d_0..d_k, validated against the standard bounds."""
    h = WeightHierarchy(tuple(ghw_bruteforce(code, r)
                              for r in range(code.k + 1)))
    h.validate(code.n, code.k)
    return h


# -- Wei duality -------------------------------------------------------------

def dual_generator_matrix(code: LinearCode) -> ExactMatrix:
    """Generator of the dual code {v : G v = 0}, one row per non-pivot
    column q of RREF(G): 1 at q, minus RREF(G)'s column q at the pivots.

    With the pivot columns moved to the front, RREF(G) is (I | A) and
    this is (-A^T | I), the permutation undone.
    """
    return ExactMatrix.from_rows(
        code.spec, kernel_basis(code.matrix.entries, code.n, code.spec),
        cols=code.n)


def wei_duality_check(code: LinearCode):
    """Check {d_r(C)} = {1..n} minus {n+1-d_s(dual)}; returns
    (holds, primal_set, dual_complement_set, dual_hierarchy).

    The primal side is the brute-force route, read off the code's counts
    of subsets by rank and size.  The dual side never reads those counts:
    d_s(dual) = n - p_s - (n-k) + s, with p the Whitney shift of the
    deletion-contraction Tutte polynomial of the dual generator matrix H,
    which is worked out from H alone.
    (Reading it off the primal's T with x and y swapped would restate the
    primal.)  H has zero columns where the code has coloops, so it is not
    a LinearCode.
    """
    n, k = code.n, code.k
    primal = {ghw_bruteforce(code, r) for r in range(1, k + 1)}
    if n == k:
        dual_d = []
    else:
        shifted = whitney_shift(tutte_deletion_contraction(
            VectorMatroid(dual_generator_matrix(code))), n - k)
        dual_d = [n - shifted.p[s] - (n - k) + s
                  for s in range(1, n - k + 1)]
    removed = {n + 1 - ds for ds in dual_d}
    rhs = set(range(1, n + 1)) - removed
    return primal == rhs, sorted(primal), sorted(rhs), dual_d

