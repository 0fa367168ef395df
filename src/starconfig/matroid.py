"""Column matroid of an exact matrix: rank, closure, flats, minors, duals.

Subsets of the ground set [n] are bitmasks (element i occupies bit i).
Point queries (rank, closure, coloops) run one elimination each, through
fields.rref_join.  Exhaustive questions go through two queries instead:
rank_size_counts, the number of subsets of each rank and size, and
flats_of_rank.  Both are read off one backing, the subset-rank table r(S)
for all 2^n masks, built on first use by a span-join pass through the same
kernel (see rank_table); no other module reads the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fields import (EXHAUSTIVE_CAP, MAX_GROUND_SET, CapExceeded,
                     ExactArithError, ExactMatrix, rref_join)


# masks per numpy pass over a table; numpy copies index arrays to intp,
# so this bounds the temporaries of a pass
CHUNK = 1 << 16

# distinct subspaces (= flats) one rank-table build may key.  Each costs
# about 250-400 B of index at k = 10..17, so this bounds the index to about
# 400 MiB.  High-rank matroids, such as the duals of low-dimension codes,
# have close to 2^n flats: the dual of a random [20,3] binary code has
# 0.93 M and builds in 24 s.
FLAT_CAP = 1 << 20


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> list:
    return list(iter_bits(mask))


def subset_sizes(n: int) -> np.ndarray:
    """|S| for every mask S in [0, 2^n), as int8."""
    sizes = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        lo = 1 << i
        np.add(sizes[:lo], 1, out=sizes[lo:2 * lo])
    return sizes


@dataclass(frozen=True)
class Flat:
    """A closed subset together with its rank."""

    members: int  # bitmask
    rank: int

    def indices(self) -> list:
        return bits_of(self.members)

    @property
    def size(self) -> int:
        return bin(self.members).count("1")


class VectorMatroid:
    """Matroid of the columns of a k x n matrix, with a lazy rank table."""

    def __init__(self, matrix: ExactMatrix):
        if matrix.cols > MAX_GROUND_SET:
            raise CapExceeded(
                f"ground set of size {matrix.cols} exceeds bitmask cap "
                f"{MAX_GROUND_SET}")
        self.matrix = matrix
        self.spec = matrix.spec
        self.n = matrix.cols
        self.k = matrix.rows
        self._columns = matrix.columns()
        self._rank_table = None
        self._rank_size_counts = None
        self._flat_masks = None
        self.full_rank = self.rank((1 << self.n) - 1)

    # -- rank ----------------------------------------------------------------

    def rank(self, mask: int) -> int:
        """r(I) for the subset encoded by mask."""
        if not 0 <= mask < (1 << self.n):
            raise ExactArithError(f"subset mask {mask:#x} out of range")
        return self._rank_by_elimination(mask)

    def _rank_by_elimination(self, mask: int) -> int:
        rows, pivots = [], ()
        for j in iter_bits(mask):
            joined = rref_join(rows, pivots, self._columns[j], self.spec)
            if joined is not None:
                rows, pivots = joined
                if len(pivots) == self.k:
                    # remaining columns cannot raise the rank
                    break
        return len(pivots)

    def rank_table(self, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
        """r(S) for every mask S in [0, 2^n), as a read-only int8 array.

        Built on the first call and kept.  A call that would build it
        raises CapExceeded, before allocating anything, when n exceeds cap.
        """
        if self._rank_table is None:
            if self.n > cap:
                raise CapExceeded(f"ground set of size {self.n} exceeds "
                                  f"exhaustive cap {cap}")
            table = _span_join_ranks(self._columns, self.spec, self.k)
            table.flags.writeable = False
            self._rank_table = table
        return self._rank_table

    def rank_size_counts(self, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
        """counts[r, s], the number of subsets of rank r and size s, as a
        read-only int64 array of shape (full_rank + 1, n + 1).

        Built on the first call from the rank table, and kept; the cap is
        the rank table's, checked before anything is allocated.
        """
        if self._rank_size_counts is None:
            rank = self.rank_table(cap)
            width = self.n + 1
            counts = np.zeros((self.full_rank + 1) * width, dtype=np.int64)
            step = min(len(rank), CHUNK)
            low_sizes = subset_sizes(step.bit_length() - 1).astype(np.int16)
            for lo in range(0, len(rank), step):
                r = rank[lo:lo + step].astype(np.int16)
                key = r * width + low_sizes + bin(lo).count("1")
                counts += np.bincount(key, minlength=len(counts))
            counts = counts.reshape(self.full_rank + 1, width)
            counts.flags.writeable = False
            self._rank_size_counts = counts
        return self._rank_size_counts

    # -- closure and flats ---------------------------------------------------

    def closure(self, mask: int) -> Flat:
        """cl(I) = {j : r(I + j) = r(I)}; same rank as I."""
        base = self.rank(mask)
        members = mask
        for j in range(self.n):
            bit = 1 << j
            if not mask & bit and self.rank(mask | bit) == base:
                members |= bit
        return Flat(members, base)

    def flats_of_rank(self, s: int) -> list:
        """All flats of rank exactly s, sorted by bitmask."""
        if not 0 <= s <= self.k:
            raise ExactArithError(f"flat rank {s} out of range")
        flats = self._flats()
        ranks = self.rank_table()[flats]
        return [Flat(int(mask), s) for mask in flats[ranks == s]]

    def _flats(self) -> np.ndarray:
        """Every flat as a mask, ascending.  S is closed when adding any
        element j outside S raises the rank: one table comparison per j."""
        if self._flat_masks is None:
            rank = self.rank_table()
            closed = np.ones(len(rank), dtype=bool)
            for j in range(self.n):
                # axis 1 of the view splits the masks by bit j
                r = rank.reshape(-1, 2, 1 << j)
                c = closed.reshape(-1, 2, 1 << j)
                c[:, 0, :] &= r[:, 1, :] != r[:, 0, :]
            self._flat_masks = np.flatnonzero(closed)
        return self._flat_masks

    # -- loops, coloops, duality ---------------------------------------------

    def is_loop(self, i: int) -> bool:
        zero = self.spec.zero
        return all(x == zero for x in self._columns[i])

    def is_coloop(self, i: int) -> bool:
        full = (1 << self.n) - 1
        return self.rank(full ^ (1 << i)) == self.full_rank - 1

    def dual_rank(self, mask: int) -> int:
        """r*(I) = r([n] \\ I) + |I| - r(M)."""
        full = (1 << self.n) - 1
        return (self.rank(full ^ mask) + bin(mask).count("1")
                - self.full_rank)

    # -- minors --------------------------------------------------------------

    def delete(self, i: int) -> "VectorMatroid":
        cols = [j for j in range(self.n) if j != i]
        return VectorMatroid(self.matrix.submatrix_cols(cols))

    def contract(self, i: int) -> "VectorMatroid":
        """Contract element i; loops are contracted as deletions.

        Realized on the matrix: a change of basis sends column i to a
        standard vector, then that row and column are removed.  Zero
        columns created this way are legitimate loops and are kept.
        """
        if self.is_loop(i):
            return self.delete(i)
        spec = self.spec
        zero = spec.zero
        rows = self.matrix.entries
        piv = next(r for r in range(self.k) if rows[r][i] != zero)
        unit = spec.scale(spec.inv(rows[piv][i]), rows[piv])
        minor = []
        for r, row in enumerate(rows):
            if r != piv:
                if row[i] != zero:
                    row = spec.sub_scaled(row, row[i], unit)
                minor.append(row[:i] + row[i + 1:])
        return VectorMatroid(
            ExactMatrix.from_rows(spec, minor, cols=self.n - 1))


def _span_join_ranks(columns, spec, k: int) -> np.ndarray:
    """Subset-rank table of the given columns by a span-join pass.

    Every mask below 2^(i+1) with bit i set is S | {i} for an S below 2^i,
    and span(S + i) depends only on span(S) and i.  So ids[S] numbers the
    subspace spanned by S, and each block is one gather through the join
    of every subspace found so far with column i (each one is spanned by
    some S below 2^i); the join is computed once per (subspace, i) by
    fields.rref_join.  A subspace is keyed by its canonical RREF (rows
    sorted by pivot, packed by the field), and the keys are dropped when
    the pass ends.
    """
    n = len(columns)
    ranks = np.zeros(1 << n, dtype=np.int8)
    if n == 0 or k == 0:
        return ranks
    ids = np.zeros(1 << (n - 1), dtype=np.int32)  # the top block is not read
    empty = spec.pack(())
    keys = [empty]  # subspace id -> packed RREF, r rows of k entries
    pivots_of = [()]  # subspace id -> pivot columns of its RREF, ascending
    index = {empty: 0}
    shared = {(): ()}  # one tuple per distinct pivot set
    for i, col in enumerate(columns):
        lo = 1 << i
        join = np.arange(len(keys), dtype=np.int32)
        for f in range(len(keys)):
            pivots = pivots_of[f]
            if len(pivots) == k:
                continue
            key = keys[f]
            joined = rref_join(
                [key[j * k:(j + 1) * k] for j in range(len(pivots))],
                pivots, col, spec)
            if joined is None:
                continue  # column i lies in the subspace already
            rows, pivots = joined
            key = spec.pack(chain.from_iterable(rows))
            g = index.get(key)
            if g is None:
                if len(keys) == FLAT_CAP:
                    raise CapExceeded(f"number of flats exceeds flat cap "
                                      f"{FLAT_CAP} of the rank table")
                g = index[key] = len(keys)
                keys.append(key)
                pivots_of.append(shared.setdefault(pivots, pivots))
            join[f] = g
        rank_of = np.fromiter(map(len, pivots_of), dtype=np.int8,
                              count=len(keys))[join]
        for c in range(0, lo, CHUNK):
            part = ids[c:min(c + CHUNK, lo)]
            ranks[lo + c:lo + c + len(part)] = rank_of[part]
            if i < n - 1:
                ids[lo + c:lo + c + len(part)] = join[part]
    return ranks
