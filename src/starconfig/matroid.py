"""Column matroid of an exact matrix: rank, closure, flats, minors, duals.

Subsets of the ground set [n] are bitmasks (element i occupies bit i).
Point queries (rank, closure, coloops) run one elimination each, through
fields.rref_join.  Exhaustive questions go through two queries instead:
rank_size_counts, the number of subsets of each rank and size, and
flats_of_rank.  Both are read off one backing, the subset-rank table r(S)
for all 2^n masks, built on first use by a span-join pass over GF(p) that
joins each column to every subspace found so far in one batch of numpy
steps (see _span_join_ranks); no other module reads the table.

Over Q the table is the elementwise max of the tables of the primitive
integer columns mod a few primes.  Each prime's rank of a subset is at
most its rank over Q.  By Hadamard's inequality a nonzero r x r minor has
absolute value at most B, the product of the norms of the k longest
columns, so once the product of the primes exceeds B no minor is
divisible by all of them, and some prime keeps each subset's rank.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate, islice
from math import gcd, lcm, prod

import numpy as np

from .fields import (EXHAUSTIVE_CAP, MAX_GROUND_SET, CapExceeded,
                     ExactArithError, ExactMatrix, GF, is_prime, rref_join)


# masks per numpy pass over a table; numpy copies index arrays to intp,
# so this bounds the temporaries of a pass
CHUNK = 1 << 16

# work-array entries (k x k per subspace) of one batch of joins: 2 MiB of
# int64, which bounds the temporaries of a join step
BLOCK = 1 << 18

# distinct subspaces (= flats) one rank-table build may key.  Each costs
# about 270-320 B of index and work arrays at k = 10..17 (measured on
# random binary codes), so this bounds them to about 330 MiB.  High-rank
# matroids, such as the duals of low-dimension codes, have close to 2^n
# flats: the dual of a random [20,3] binary code has 0.93 M and builds in
# 6 s on a 2-core VM.
FLAT_CAP = 1 << 20

# Q tables are read mod the largest primes below this: k (p-1)^2 < 2^63
# for k < 128, so their work arrays are int64
Q_PRIME_BOUND = 1 << 28


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

        Built on the first call and kept: by one span-join pass over
        GF(p), or over Q by one pass mod each certifying prime (see the
        module docstring).  A call that would build it raises CapExceeded,
        before allocating anything, when n exceeds cap or the table and
        its id array (3 bytes per mask) would not fit in physical memory.
        """
        if self._rank_table is None:
            if self.n > cap:
                raise CapExceeded(f"ground set of size {self.n} exceeds "
                                  f"exhaustive cap {cap}")
            if hasattr(os, "sysconf"):  # Unix only
                memory = (os.sysconf("SC_PHYS_PAGES")
                          * os.sysconf("SC_PAGE_SIZE"))
                if 3 << self.n > memory:
                    raise CapExceeded(
                        f"rank table of a ground set of size {self.n} needs "
                        f"{3 << self.n} bytes, more than the {memory} bytes "
                        f"of physical memory")
            if self.spec.kind == "gf":
                table = _span_join_ranks(self._columns, self.spec, self.k)
            else:
                table = _rational_ranks(self._columns, self.k)
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


def _rational_ranks(columns, k: int) -> np.ndarray:
    """Subset-rank table of rational columns: the elementwise max of the
    tables of their primitive integer multiples mod the primes of
    _certifying_primes (see the module docstring)."""
    columns = [_primitive(c) for c in columns]
    norms = sorted((max(1, sum(x * x for x in c)) for c in columns),
                   reverse=True)
    table = None
    for p in _certifying_primes(prod(norms[:k])):
        ranks = _span_join_ranks([[x % p for x in c] for c in columns],
                                 GF(p), k)
        table = ranks if table is None else np.maximum(table, ranks,
                                                       out=table)
    return table


def _primitive(column) -> list:
    """The column scaled to integers with gcd 1 (a zero column stays 0)."""
    scale = lcm(*(x.denominator for x in column))
    ints = [x.numerator * (scale // x.denominator) for x in column]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


def _certifying_primes(bound_sq: int) -> list:
    """The largest primes below Q_PRIME_BOUND, descending, until the square
    of their product exceeds bound_sq (strictly: a minor of absolute value
    equal to the product would vanish mod every one of them)."""
    primes, product = [], 1
    candidate = Q_PRIME_BOUND - 1
    while product * product <= bound_sq:
        if is_prime(candidate):
            primes.append(candidate)
            product *= candidate
        candidate -= 2
    return primes


def _span_join_ranks(columns, spec, k: int) -> np.ndarray:
    """Subset-rank table of the given columns over GF(p) by a span-join
    pass.

    Every mask below 2^(i+1) with bit i set is S | {i} for an S below 2^i,
    and span(S + i) depends only on span(S) and i.  So ids[S] numbers the
    subspace spanned by S, and the masks in [2^i, 2^(i+1)) are one gather
    through the join of every subspace found so far with column i (each
    one is spanned by some S below 2^i).  A subspace is keyed by its canonical
    RREF, its rows sorted by pivot and packed as bytes of the narrowest
    unsigned type that holds p - 1; the keys are dropped when the pass
    ends.

    Column i is joined to every subspace in one batch of numpy steps per
    BLOCK work-array entries, with no elimination per subspace.  The keys
    of a block are unpacked into k x k matrices B whose row t is the basis
    row with pivot t, or zero when t is no pivot; since each pivot column
    of an RREF is a unit column, v - vB is v reduced against the subspace
    in one product.  A nonzero residual is scaled to a leading 1 at its
    first nonzero column q, and q is cleared from the other rows with one
    outer product; the new rows are packed, and only subspaces not seen
    before are keyed.  Work arrays are int64 when k (p-1)^2 < 2^63, so that
    no sum of products overflows, and Python ints (dtype object) otherwise.
    """
    n = len(columns)
    ranks = np.zeros(1 << n, dtype=np.int8)
    if n == 0 or k == 0:
        return ranks
    p = spec.modulus
    work = np.int64 if k * (p - 1) ** 2 < 1 << 63 else object
    store = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if p - 1 <= np.iinfo(t).max)
    row_bytes = k * np.dtype(store).itemsize
    per_block = max(1, BLOCK // (k * k))
    vectors = np.array(columns, dtype=work).reshape(n, k)
    ids = np.zeros(1 << (n - 1), dtype=np.int32)  # the top block is not read
    keys = [b""]  # subspace id -> packed RREF
    index = {b"": 0}
    rank_of = np.zeros(1, dtype=np.int8)  # subspace id -> its rank
    for i, v in enumerate(vectors):
        found = len(keys)
        join = np.arange(found, dtype=np.int32)
        born = [rank_of]
        for a in range(0, found, per_block):
            b = min(a + per_block, found)
            r = rank_of[a:b]
            rows = np.frombuffer(b"".join(keys[a:b]), dtype=store)
            rows = rows.reshape(-1, k).astype(work)
            basis = np.zeros((b - a, k, k), dtype=work)
            at = np.repeat(np.arange(0, (b - a) * k, k), r)
            basis.reshape(-1, k)[at + (rows != 0).argmax(axis=1)] = rows
            residual = (v - v @ basis) % p
            grow = np.flatnonzero(residual.any(axis=1))
            if not len(grow):
                continue  # column i lies in every subspace of the block
            residual, basis, r = residual[grow], basis[grow], r[grow]
            g = np.arange(len(grow))
            q = (residual != 0).argmax(axis=1)
            if p > 2:  # scale to a leading 1; over GF(2) it is 1 already
                leads = residual[g, q].tolist()
                inverse = np.array([pow(x, -1, p) for x in leads], dtype=work)
                residual = residual * inverse[:, None] % p
            basis -= basis[g, :, q][:, :, None] * residual[:, None, :]
            basis %= p
            basis[g, q] = residual
            pivot = np.diagonal(basis, axis1=1, axis2=2) != 0
            packed = basis[pivot].astype(store).tobytes()
            ends = list(accumulate((x + 1) * row_bytes for x in r.tolist()))
            pieces = [packed[s:e] for s, e in zip([0] + ends, ends)]
            old = len(index)
            join[a + grow] = np.fromiter(
                (index.setdefault(key, len(index)) for key in pieces),
                dtype=np.int32, count=len(pieces))
            if len(index) > old:
                # new ids were given in insertion order, after every old one
                new = list(islice(reversed(index), len(index) - old))[::-1]
                keys += new
                born.append(np.fromiter(map(len, new), np.int64, len(new))
                            // row_bytes)
                if len(keys) > FLAT_CAP:
                    raise CapExceeded(f"number of flats exceeds flat cap "
                                      f"{FLAT_CAP} of the rank table")
        rank_of = np.concatenate(born).astype(np.int8)
        rank_join = rank_of[join]
        lo = 1 << i
        for c in range(0, lo, CHUNK):
            part = ids[c:min(c + CHUNK, lo)]
            ranks[lo + c:lo + c + len(part)] = rank_join[part]
            if i < n - 1:
                ids[lo + c:lo + c + len(part)] = join[part]
    return ranks
