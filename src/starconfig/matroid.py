"""Column matroid of an exact matrix: rank, closure, flats and minors.

Subsets of the ground set [n] are bitmasks (element i occupies bit i).
Point queries (rank, closure, coloops) run one elimination each, through
fields.rref_join.  Exhaustive questions go through rank_size_counts, the
number of subsets of each rank and size, and flats_of_rank.  Both come
from one span-join pass over GF(p), run on first use, which keys every
subspace spanned by some of the columns (one per flat) and carries its
rank, its members and how many subsets span it at each nullity; nothing
is kept per subset (see _span_join and _subset_classes).  No query takes
a cap on the ground-set size: the work of the pass is bounded by
FLAT_CAP, and a matroid has at most MAX_GROUND_SET elements.

Over Q the pass runs on the primitive integer columns mod a few primes in
step, and a subset's rank is its largest rank mod any of them.  By
Hadamard's inequality a nonzero r x r minor has absolute value at most B,
the product of the norms of the k longest columns, so once the product of
the primes exceeds B some prime keeps every minor, and with it the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import prod

import numpy as np

from .fields import (MAX_GROUND_SET, CapExceeded, ExactArithError,
                     ExactMatrix, GF, is_prime, primitive, rref_join)


# work-array entries of one batch of joins (k x k per subspace) or count
# moves (one per nullity): 2 MiB of int64, which bounds their temporaries
BLOCK = 1 << 18

# distinct subspaces (= flats) one span-join pass may key.  Each costs an
# index of about 270-320 B, 8 B per nullity for its counts and 8 B for its
# members: 406 B at k = 10 and 360 B at k = 17 on random binary codes, so
# at n <= 24 this bounds them to about 430 MiB.  Larger n has up to n + 1
# nullities and longer keys: random binary [40,12] and [63,60] codes stop
# here at 512 and 831 MiB peak RSS, after 9 s and 42 s on a 2-core VM.
# High-rank matroids, such as the duals of low-dimension codes, have close
# to 2^n flats: the dual of a random [20,3] binary code has 0.93 M and
# builds in 6 s.
FLAT_CAP = 1 << 20

# Q passes run mod the largest primes below this: k (p-1)^2 < 2^63 for
# k < 128, so their work arrays are int64
Q_PRIME_BOUND = 1 << 28


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> list:
    return list(iter_bits(mask))


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
    """Matroid of the columns of a k x n matrix, with a lazy span-join pass."""

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
        self._rank_size_counts = None
        self._flat_masks = self._flat_ranks = None
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

    def rank_size_counts(self) -> np.ndarray:
        """counts[r, s], the number of subsets of rank r and size s, as a
        read-only int64 array of shape (full_rank + 1, n + 1).

        Built on the first call, with the flats, by the span-join pass, and
        kept.
        """
        if self._rank_size_counts is not None:
            return self._rank_size_counts
        if self.spec.kind == "gf":
            passes = [_span_join(self._columns, self.spec, self.k)]
        else:
            columns = [primitive(c) for c in self._columns]
            norms = sorted((max(1, sum(x * x for x in c)) for c in columns),
                           reverse=True)
            passes = [_span_join([[x % p for x in c] for c in columns],
                                 GF(p), self.k)
                      for p in _certifying_primes(prod(norms[:self.k]))]
        width = self.n - self.full_rank + 1
        rank, masks, by_nullity = _subset_classes(passes, width)
        counts = np.zeros((self.full_rank + 1, self.n + 1), dtype=np.int64)
        for r in range(self.full_rank + 1):  # size = rank + nullity
            counts[r, r:r + width] = by_nullity[rank == r].sum(axis=0)
        counts.flags.writeable = False
        self._flat_masks, first = np.unique(masks, return_index=True)
        self._flat_ranks = rank[first]
        self._rank_size_counts = counts
        return counts

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
        self.rank_size_counts()  # runs the pass once
        masks = self._flat_masks[self._flat_ranks == s]
        return [Flat(int(mask), s) for mask in masks]

    # -- loops and coloops ---------------------------------------------------

    def is_loop(self, i: int) -> bool:
        zero = self.spec.zero
        return all(x == zero for x in self._columns[i])

    def is_coloop(self, i: int) -> bool:
        full = (1 << self.n) - 1
        return self.rank(full ^ (1 << i)) == self.full_rank - 1

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


def _subset_classes(passes, width: int):
    """(rank, masks, counts) of the classes of subsets of the columns,
    from span-join passes run in step (one per prime; see _span_join).

    A class is a tuple of per-prime subspaces, one subspace when there is
    one pass.  rank[c] is the largest per-prime rank and counts[c, j] the
    number of subsets in class c of nullity j: nullity never decreases as
    elements are added, so j < width = n - r(M) + 1.  masks[c], the flat
    the class spans, is the AND of the member masks of the primes whose
    rank is rank[c]: a column outside the flat raises the rank over Q, so
    some prime of that rank sees it raise its own.
    """
    # one spare zero row, for the shifted-out column of the last class
    counts = np.zeros((2, width), dtype=np.int64)
    counts[0, 0] = 1  # the empty set
    tuples = np.zeros((1, len(passes)), dtype=np.int32)
    index = {tuples.tobytes(): 0}
    rank = np.zeros(1, dtype=np.int8)  # before any column: {0} alone
    ranks, members = [rank] * len(passes), [np.zeros(1, dtype=np.uint64)]
    for steps in zip(*passes):
        joins, ranks, members = zip(*steps)
        if len(steps) == 1:
            join, rank = joins[0], ranks[0]
        else:
            packed = np.stack([j[tuples[:, t]] for t, j in enumerate(joins)],
                              axis=1).tobytes()
            row = 4 * len(steps)
            join, new = _intern(index, [packed[s:s + row]
                                        for s in range(0, len(packed), row)])
            tuples = np.concatenate([tuples, np.frombuffer(
                b"".join(new), dtype=np.int32).reshape(-1, len(steps))])
            rank = np.max([r[tuples[:, t]] for t, r in enumerate(ranks)],
                          axis=0)
        # counts grows in place: realloc extends a large array by
        # remapping its pages, with no second copy (no view of it lives)
        counts.resize((len(rank) + 1, width), refcheck=False)
        _carry(counts, join, rank[join] == rank[:len(join)])
    if len(passes) == 1:
        return rank, members[0], counts[:-1]
    masks = np.full(len(tuples), ~np.uint64(0))
    for t, (r, m) in enumerate(zip(ranks, members)):
        own = tuples[:, t]  # each class's subspace mod this prime
        masks &= np.where(r[own] == rank, m[own], ~np.uint64(0))
    return rank, masks, counts[:-1]


def _carry(counts, join, shift) -> None:
    """Add column i to every subset counted so far: S in class f moves to
    class join[f], one nullity up when shift[f] (the rank did not grow),
    so counts[f, j] is added to counts[join[f], j + shift[f]], BLOCK
    entries at a time; counts[f] stays for the subsets without i.

    Only a class whose subspaces all hold column i gains counts, and it
    joins itself; across several blocks those go first, so each row is
    read before it gains.  A shifted row's last count is 0 (no nullity
    reaches width) and lands in the next row, or in the spare one.
    """
    width = counts.shape[1]
    rows = max(1, BLOCK // width)
    order = (np.arange(len(join)) if len(join) <= rows else
             np.argsort(join != np.arange(len(join)), kind="stable"))
    offsets = np.arange(width)
    flat = counts.reshape(-1)
    for a in range(0, len(order), rows):
        f = order[a:a + rows]
        at = np.add.outer(join[f] * width + shift[f], offsets)
        np.add.at(flat, at.ravel(), counts[f].ravel())


def _intern(index: dict, keys) -> tuple:
    """(got, new): the id of each key in index, where each key not seen
    before takes the next free id, and the list of those new keys."""
    old = len(index)
    got = np.fromiter((index.setdefault(key, len(index)) for key in keys),
                      dtype=np.int32, count=len(keys))
    if len(index) > FLAT_CAP:
        raise CapExceeded(f"number of flats exceeds flat cap {FLAT_CAP} of "
                          f"the span-join pass")
    # a dict keeps insertion order: the new keys are its last ones
    return got, list(islice(reversed(index), len(index) - old))[::-1]


def _span_join(columns, spec, k: int):
    """Span-join pass of the given columns over GF(p), as a generator.

    After column i it yields (join, rank_of, members): join[f] is the span
    of subspace f and column i, for each f found before column i, and
    rank_of and members give every subspace found so far its rank and, as
    a bitmask, the columns up to i in it.  Subspace 0 is {0}.  A span of
    some of the first i + 1 columns is a span found before or its join
    with column i, so each flat is found once; its columns up to i are i
    and the members of every subspace that joins to it.

    A subspace is keyed by its canonical RREF, its rows sorted by pivot
    and packed as bytes of the narrowest unsigned type that holds p - 1.
    Column i is joined to every subspace in one batch of numpy steps per
    BLOCK work-array entries.  The keys of a block are unpacked into k x k
    matrices B whose row t is the basis row with pivot t, or zero when t
    is no pivot; since each pivot column of an RREF is a unit column,
    v - vB is v reduced against the subspace.  A nonzero residual is
    scaled to a leading 1 at its first nonzero column q, q is cleared from
    the other rows with one outer product, and the new rows are packed and
    keyed.  Work arrays are int64 when k (p-1)^2 < 2^63, so that no sum of
    products overflows, and Python ints (dtype object) otherwise.
    """
    p = spec.modulus
    work = np.int64 if k * (p - 1) ** 2 < 1 << 63 else object
    store = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if p - 1 <= np.iinfo(t).max)
    row_bytes = k * np.dtype(store).itemsize
    per_block = max(1, BLOCK // max(1, k * k))
    vectors = np.array(columns, dtype=work).reshape(len(columns), k)
    keys = [b""]  # subspace id -> packed RREF
    index = {b"": 0}
    rank_of = np.zeros(1, dtype=np.int8)  # subspace id -> its rank
    members = np.zeros(1, dtype=np.uint64)
    for i, v in enumerate(vectors):
        found = len(keys)
        join = np.arange(found, dtype=np.int32)
        born = [rank_of]
        for a in range(0, found if v.any() else 0, per_block):
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
            join[a + grow], new = _intern(
                index, [packed[s:e] for s, e in zip([0] + ends, ends)])
            keys += new
            born.append(np.fromiter(map(len, new), np.int64, len(new))
                        // row_bytes)
        rank_of = np.concatenate(born).astype(np.int8)
        members = np.concatenate(
            [members, np.zeros(len(keys) - found, dtype=np.uint64)])
        np.bitwise_or.at(members, join, members[:found] | np.uint64(1 << i))
        yield join, rank_of, members
