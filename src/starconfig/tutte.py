"""Sparse bivariate polynomials and two independent Tutte engines.

Engine one is the exhaustive corank-nullity subset sum, read off the
matroid's counts of subsets by rank and size; engine two is memoized
deletion-contraction.  They must agree coefficient for coefficient, which
the test suite enforces on randomized inputs.

Deletion-contraction eliminates once, at the root: each minor is carried
down the recursion as its RREF, and deleting or contracting an element
costs at most one row step (see _dc).  Loops and coloops factor out of
T, so each minor sheds them before it is keyed, and only loop- and
coloop-free minors are keyed.  Each step removes a whole parallel class
P, of size m, at once, as Haggard, Pearce and Royle do ("Computing Tutte
polynomials", ACM TOMS 2010).  With e in P and N = M/e \\ (P - e):
T(M) = T(M \\ P) + (1 + y + ... + y^(m-1)) T(N) when deleting P keeps the
rank, and T(M) = (x + y + ... + y^(m-1)) T(N) when it drops it; this is
the single-element step applied m times.  When e has no parallel partner
but M \\ e has coloops, e and those coloops are e's series class S, of
size m, and the step removes S instead, by the dual rule:
T(M) = T(M / S) + (1 + x + ... + x^(m-1)) T(M \\ S) when S is
independent, and T(M) = (y + x + ... + x^(m-1)) T(M \\ S) when S is a
circuit.  So one minor is keyed per class, not one per element; the
series classes of a dual generator matrix are the code's parallel
classes.  Its memo and a persistent cache are keyed by one string per
such minor: the text json.dumps(canonical_matrix_key) of the minor's
matrix, written straight from the carried RREF by key_text_writer, with
no key tuple built and no json.dumps per node.
canonical_matrix_key is the tuple form of that text.  The keys, and the
gets and puts of the cache, are byte for byte those of a recursion that
builds every minor, strips its loops and coloops, and reduces what is
left.
Polynomials go into the cache and come out of it as BivarPoly; the text
they are stored as is the cache's: cli.TutteCache keeps each as the text
json.dumps(BivarPoly.to_json()) gives, in a row of one SQLite database,
and writes the rows of one deletion-contraction call in a few batches.
It also holds the BivarPoly of each row it wrote or read, until it is
closed, and answers a key it holds with no SQL and no parsing, so calls
that share one cache read each row at most once.
"""

from __future__ import annotations

import json
import re
from bisect import bisect
from contextlib import nullcontext
from dataclasses import dataclass
from math import comb

from .fields import (ExactArithError, ExactMatrix, InternalInvariantError,
                     rref, rref_join)
from .matroid import VectorMatroid


class BivarPoly:
    """Sparse polynomial in x, y with arbitrary-precision int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if c:
                    self.terms[(i, j)] = int(c)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: int = 1) -> "BivarPoly":
        return cls({(i, j): coeff})

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): 1})

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        # both operands hold nonzero ints only, and so does the sum: it
        # needs neither the constructor's copy nor its int() pass
        out = dict(self.terms)
        for key, c in other.terms.items():
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        poly = object.__new__(BivarPoly)
        poly.terms = out
        return poly

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivarPoly(out)

    def scale(self, c: int) -> "BivarPoly":
        return BivarPoly({key: c * v for key, v in self.terms.items()})

    def shift_degrees(self, dx: int, dy: int) -> "BivarPoly":
        """x^dx y^dy times self; self itself when both are 0."""
        if not (dx or dy):
            return self
        # the terms stay distinct nonzero ints, as in __add__
        poly = object.__new__(BivarPoly)
        poly.terms = {(i + dx, j + dy): c for (i, j), c in self.terms.items()}
        return poly

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def mono(i, j):
            parts = []
            if i:
                parts.append("x" if i == 1 else f"x^{i}")
            if j:
                parts.append("y" if j == 1 else f"y^{j}")
            return "*".join(parts)
        pieces = []
        for (i, j) in sorted(self.terms, key=lambda t: (-(t[0] + t[1]), -t[0])):
            c = self.terms[(i, j)]
            m = mono(i, j)
            if not m:
                pieces.append((c, str(abs(c))))
            elif abs(c) == 1:
                pieces.append((c, m))
            else:
                pieces.append((c, f"{abs(c)}*{m}"))
        out = pieces[0][1] if pieces[0][0] > 0 else "-" + pieces[0][1]
        for c, text in pieces[1:]:
            out += (" + " if c > 0 else " - ") + text
        return out

    __repr__ = __str__

    def to_json(self) -> dict:
        terms = [{"x": i, "y": j, "coeff": str(c)}
                 for (i, j), c in sorted(self.terms.items())]
        return {"terms": terms}

    @classmethod
    def from_json(cls, doc: dict) -> "BivarPoly":
        """Inverse of to_json; raises ExactArithError on a malformed doc."""
        terms = {}
        try:
            for t in doc["terms"]:
                i, j, c = t["x"], t["y"], t["coeff"]
                if not (type(i) is type(j) is int and min(i, j) >= 0
                        and isinstance(c, str)):
                    raise ValueError(f"bad term {t!r}")
                terms[(i, j)] = int(c)
        except (KeyError, TypeError, ValueError) as exc:
            raise ExactArithError(f"malformed polynomial: {exc}") from exc
        return cls(terms)


def _expand_shifted(a: int, b: int) -> BivarPoly:
    """(x-1)^a (y-1)^b, expanded with exact binomials."""
    out = {}
    for i in range(a + 1):
        ci = comb(a, i) * (-1) ** (a - i)
        for j in range(b + 1):
            out[(i, j)] = ci * comb(b, j) * (-1) ** (b - j)
    return BivarPoly(out)


def tutte_subset_sum(m: VectorMatroid) -> BivarPoly:
    """Exhaustive corank-nullity sum over all 2^n subsets, read off the
    matroid's counts of subsets by rank and size."""
    counts = m.rank_size_counts()
    poly = BivarPoly.zero()
    for r, row in enumerate(counts.tolist()):
        for size, count in enumerate(row):
            if count:
                poly = poly + _expand_shifted(m.full_rank - r,
                                              size - r).scale(count)
    return poly


def canonical_matrix_key(matrix: ExactMatrix) -> tuple:
    """Canonical key identifying a matrix up to row ops, column scaling
    and column order; equal keys imply equal Tutte polynomials.

    Built from the RREF with each nonzero column scaled so its first
    nonzero entry is one, columns sorted with multiplicity.  A column is
    read with the k - rank zero rows of the RREF below it, and its entries
    are written by str, as FieldSpec.to_str writes them.  A matrix with no
    rows lists no columns, which keeps cached keys valid; the key still
    records n.  json.dumps of the key is the memo and cache key of
    deletion-contraction, which key_text_writer writes directly.
    """
    spec, k, n = matrix.spec, matrix.rows, matrix.cols
    reduced, rank, _ = rref(matrix)
    rows = reduced.entries[:rank]
    cols = []
    if k:
        pad = (str(spec.zero),) * (k - rank)
        for col in (zip(*rows) if rows else [()] * n):
            cols.append(tuple(map(str, _scaled(spec, col))) + pad)
        cols.sort()
    return (spec.kind, spec.modulus, k, n, tuple(cols))


def _scaled(spec, col: tuple) -> tuple:
    """col scaled so that its first nonzero entry is one; a zero column,
    or one that already leads with one, is col itself."""
    for lead in col:
        if lead:  # field elements are falsy exactly when zero
            # the one of either field equals the int 1
            return col if lead == 1 else spec.scale(spec.inv(lead), col)
    return col


def key_text_writer(spec):
    """A function text(rows, k, n) returning, byte for byte,
    json.dumps(canonical_matrix_key(M)) of a k x n matrix M over spec
    whose RREF has the nonzero rows given, written straight from the rows.

    Each column is scaled and written by str as in canonical_matrix_key,
    and padded with k - rank "0" entries.  Every column has k entries, and
    the closing quote sorts below every character an entry holds (digits,
    "-" and "/"), so the column texts sort as their tuples do.  The head
    [kind, modulus is dumped once per writer.  Over GF(p) each
    column's text is kept, by pad and column tuple, for the writer's
    lifetime; over Q it is not, as hashing a tuple of Fractions costs
    more than writing it.
    """
    prefix = json.dumps([spec.kind, spec.modulus])[:-1]
    tables = {} if spec.kind == "gf" else None

    def column(col, tail: str) -> str:
        return '["' + '", "'.join(map(str, _scaled(spec, col))) + tail

    def text(rows, k: int, n: int) -> str:
        head = f"{prefix}, {k}, {n}, ["
        if not k:
            return head + "]]"
        if not rows:
            return head + ", ".join(['["' + '", "'.join(("0",) * k) + '"]']
                                    * n) + "]]"
        pad = k - len(rows)
        tail = '", "0' * pad + '"]'
        if tables is None:
            texts = [column(col, tail) for col in zip(*rows)]
        else:
            table = tables.get(pad)
            if table is None:
                table = tables[pad] = {}
            texts = []
            for col in zip(*rows):
                t = table.get(col)
                if t is None:
                    t = table[col] = column(col, tail)
                texts.append(t)
        texts.sort()
        return head + ", ".join(texts) + "]]"

    return text


# the head [kind, modulus, k, n, [ of a canonical key's text
_KEY_HEAD = re.compile(r'\["[a-z]+", (?:null|[0-9]+), [0-9]+, ([0-9]+), \[')


def poly_matches_key(poly: BivarPoly, key: str) -> bool:
    """Whether poly can be the Tutte polynomial cached under key.

    A key made by json.dumps(canonical_matrix_key(...)) records the column
    count n, the fourth number of its head; every term x^i y^j of a
    Tutte polynomial on n elements has i + j <= n, and T(2, 2) = 2^n
    counts the subsets.  n is read from the head alone, without parsing
    the columns.  The degrees are checked first, so that a poly with huge
    exponents is rejected before it is evaluated.  Keys of any other form
    record no n, and every poly matches them.
    """
    head = _KEY_HEAD.match(key)
    if head is None:
        return True
    n = int(head[1])
    return (all(i + j <= n for i, j in poly.terms)
            and poly.evaluate(2, 2) == 2 ** n)


def tutte_deletion_contraction(m: VectorMatroid, memo: dict | None = None,
                               cache=None) -> BivarPoly:
    """Deletion-contraction recursion with memoization on canonical minors.

    Every minor is first stripped of its loops and coloops, which factor
    out: T(M) = x^c y^l T(M') for M' the minor M with its l loops deleted
    and its c coloops contracted.  Every element of M' is ordinary.  Its
    first element e and e's parallel class P, of size m, give, with
    N = M' / e \\ (P - e):

        T(M') = T(M' \\ P) + (1 + y + ... + y^(m-1)) T(N)

    when deleting P keeps the rank, and otherwise, when e is a coloop of
    M' \\ (P - e), T(M') = (x + y + ... + y^(m-1)) T(N), and M' \\ P is
    never built.  For m = 1 this is T(M') = T(M' \\ e) + T(M' / e), and
    applying that step m times, to the members of P in turn, proves both
    forms (the parallel-class step of Haggard, Pearce and Royle,
    "Computing Tutte polynomials", ACM TOMS 2010).

    When P is e alone and M' \\ e has coloops, those coloops and e are e's
    series class S, of size m, and M' \\ S is M' \\ e with them
    contracted.  The step removes S at once by the dual rule:

        T(M') = T(M' / S) + (1 + x + ... + x^(m-1)) T(M' \\ S)

    when S is independent, and T(M') = (y + x + ... + x^(m-1)) T(M' \\ S)
    when S is a circuit, and M' / S is never keyed.  Applying the
    single-element step to the members of S in turn proves both: deleting
    any member leaves the rest coloops.  The deletion is visited first in
    every step.  Only M' is keyed, so minors that differ only in their
    loops and coloops share one entry.

    An optional external cache persists results across runs: get(key)
    returns the BivarPoly stored under a key string or None, put(key,
    poly) stores one, and batch() is a context manager that the whole
    recursion runs in, so that the cache may hold puts back and write them
    together; the batch exits, and the cache writes what it held, before
    this returns, an exception included.

    The matrix is brought to RREF once, here; every minor is carried down
    the recursion as its RREF (nonzero rows, pivot columns, row count), so
    no node eliminates.  The memo and the cache are keyed by the same
    string, json.dumps(canonical_matrix_key) of the matrix of each
    loop- and coloop-free minor M', written from the carried RREF by one
    key_text_writer per call, so the keys and the cache entries are those
    of a recursion that strips and keys VectorMatroid minors.
    """
    if memo is None:
        memo = {}
    reduced, rank, pivots = rref(m.matrix)
    rows, pivots, n, loops = _without_loops(reduced.entries[:rank], pivots,
                                            m.n)
    rows, pivots, k, n, coloops = _without_coloops(rows, pivots, m.k, n)
    key_text = key_text_writer(m.spec)
    with nullcontext() if cache is None else cache.batch():
        poly = _dc(m.spec, rows, pivots, k, n, memo, cache, key_text)
    return poly.shift_degrees(len(coloops), len(loops))


def _dc(spec, rows, pivots: tuple, k: int, n: int, memo: dict, cache,
        key_text) -> BivarPoly:
    """T of the k x n matrix with RREF rows (sorted by pivot) and pivots,
    which has no loop (zero column) and no coloop (pivot whose row is a
    unit vector), by one parallel-class or series-class step on column 0
    (see tutte_deletion_contraction).

    M \\ S is the deletion join with its unit rows contracted.  M / S is
    built from the rows of M / e: each column of S - e is cleared by the
    last row nonzero in it, and that row is dropped (_contracted), so
    nothing is eliminated again; a column of S - e with no nonzero row
    left shows that S is a circuit."""
    if n == 0:
        return BivarPoly.one()
    key = key_text(rows, k, n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if cache is not None:
        poly = cache.get(key)
        if poly is not None:
            memo[key] = poly
            return poly
    # e = column 0 is row 0's pivot, and ordinary.  Rows other than e's
    # are zero at e, so contracting e drops its row, and leaves as loops
    # exactly the columns nonzero in e's row alone: the rest of e's
    # parallel class P, of size m; it makes no coloop.  N = M/e \ (P - e)
    # is that contraction without its loops.  M \ P is e's row without P,
    # joined back into N's rows, which are zero on P: rref_join returns
    # None exactly when the row lies in their span, that is when deleting
    # P drops the rank.  The joined row, or a row the join reduces, may be
    # left a unit vector: a coloop, in series with P.  Deleting makes no
    # loop.
    head, *rest = [row[1:] for row in rows]
    pivots = tuple(p - 1 for p in pivots[1:])
    c_rows, c_pivots, c_n, parallels = _without_loops(rest, pivots, n - 1)
    if parallels:
        head = _without_columns([head], parallels)[0]
    joined = rref_join(c_rows, c_pivots, head, spec)
    if joined is None:
        # e is a coloop of M \ (P - e): T = (x + y + ... + y^(m-1)) T(N)
        poly = _times_class(
            _dc(spec, c_rows, c_pivots, k - 1, c_n, memo, cache, key_text),
            (1, 0), len(parallels), series=False)
    else:
        d_rows, d_pivots, d_k, d_n, coloops = _without_coloops(
            *joined, k, c_n)
        deleted = _dc(spec, d_rows, d_pivots, d_k, d_n, memo, cache,
                      key_text)
        if parallels or not coloops:
            # T = T(M \ P) + (1 + y + ... + y^(m-1)) T(N)
            poly = deleted.shift_degrees(len(coloops), 0) + _times_class(
                _dc(spec, c_rows, c_pivots, k - 1, c_n, memo, cache,
                    key_text), (0, 0), len(parallels), series=False)
        else:
            # e alone, and the coloops of M \ e are the rest of e's series
            # class S, of size m: the deleted minor is M \ S
            contracted = _contracted(c_rows, c_pivots, coloops, spec)
            if contracted is None:
                # S is a circuit: T = (y + x + ... + x^(m-1)) T(M \ S)
                poly = _times_class(deleted, (0, 1), len(coloops),
                                    series=True)
            else:
                # T = T(M / S) + (1 + x + ... + x^(m-1)) T(M \ S); the
                # columns of S - e are among the loops of M / S
                s_rows, s_pivots, s_n, loops = _without_loops(
                    *contracted, c_n)
                s_poly = _dc(spec, s_rows, s_pivots, k - 1 - len(coloops),
                             s_n, memo, cache, key_text)
                poly = s_poly.shift_degrees(
                    0, len(loops) - len(coloops)) + _times_class(
                    deleted, (0, 0), len(coloops), series=True)
    memo[key] = poly
    if cache is not None:
        cache.put(key, poly)
    return poly


def _times_class(poly: BivarPoly, lead: tuple, run: int,
                 series: bool) -> BivarPoly:
    """(x^i y^j + z + z^2 + ... + z^run) poly for lead = (i, j), with
    z = x for a series class and z = y for a parallel class: T of the minor
    a class step recurses on, times the factor of the step; poly itself for
    lead (0, 0) and run 0."""
    out = poly.shift_degrees(*lead)
    for t in range(1, run + 1):
        out = out + poly.shift_degrees(*((t, 0) if series else (0, t)))
    return out


def _contracted(rows, pivots: tuple, cols: list, spec):
    """(rows, pivots): the RREF with the columns cols contracted, or None
    when cols are dependent.

    Each column is cleared by the last row nonzero in it, and that row is
    dropped.  The rows below it are zero in the column, and the rows above
    it change only in columns right of their pivots, none of them another
    row's pivot, so the result is an RREF with no further step.  The
    columns cols are left zero.
    """
    rows, pivots = list(rows), list(pivots)
    for f in cols:
        r = next((i for i in reversed(range(len(rows))) if rows[i][f]), None)
        if r is None:  # f is a loop of the contraction so far
            return None
        row = rows.pop(r)
        del pivots[r]
        inv = spec.inv(row[f])
        for i in range(r):
            if rows[i][f]:
                rows[i] = spec.sub_scaled(rows[i], spec.mul(rows[i][f], inv),
                                          row)
    return rows, tuple(pivots)


def _without_loops(rows, pivots: tuple, n: int):
    """(rows, pivots, n, loops): the RREF without its zero columns, loops,
    ascending."""
    if not rows:
        return rows, pivots, 0, list(range(n))
    loops = [j for j, col in enumerate(zip(*rows)) if not any(col)]
    if not loops:
        return rows, pivots, n, loops
    # a loop is no pivot
    return (_without_columns(rows, loops),
            tuple(p - bisect(loops, p) for p in pivots), n - len(loops),
            loops)


def _without_coloops(rows, pivots: tuple, k: int, n: int):
    """(rows, pivots, k, n, coloops): the RREF with its unit rows, and
    their pivot columns, the coloops, ascending, contracted; every other
    row is zero in those columns."""
    coloops = [p for p, row in zip(pivots, rows) if not any(row[p + 1:])]
    if not coloops:
        return rows, pivots, k, n, coloops
    kept = [(p, row) for p, row in zip(pivots, rows) if p not in coloops]
    c = len(coloops)
    return (_without_columns([row for _, row in kept], coloops),
            tuple(p - bisect(coloops, p) for p, _ in kept), k - c, n - c,
            coloops)


def _without_columns(rows, cols: list) -> list:
    """rows without the columns cols, ascending."""
    spans = list(zip([c + 1 for c in cols], cols[1:] + [None]))
    out = []
    for row in rows:
        cut = row[:cols[0]]
        for start, stop in spans:
            cut += row[start:stop]
        out.append(cut)
    return out


@dataclass(frozen=True)
class ShiftedCoeffs:
    """Coefficients c[(r, j)] of T(x+1, y) plus p[r] = max{j : c[r,j] != 0}.

    p[r] is defined for every r in [0, k]: the y-degree-summed coefficient
    at x^r counts independent sets of rank k - r, which always exist.
    """

    c: dict
    p: tuple
    k: int

    def coeff(self, r: int, j: int) -> int:
        return self.c.get((r, j), 0)

    def to_json(self) -> dict:
        return {
            "c": [{"x": r, "y": j, "coeff": str(v)}
                  for (r, j), v in sorted(self.c.items())],
            "p": list(self.p),
            "k": self.k,
        }


def whitney_shift(t: BivarPoly, k: int) -> ShiftedCoeffs:
    """Substitute x -> x + 1 by exact binomial expansion and read off p_r.

    Raises InternalInvariantError when some x^r, r <= k, has no nonzero
    coefficient: a Tutte polynomial of rank k always has one there.
    """
    c = {}
    for (i, j), coeff in t.terms.items():
        for r in range(i + 1):
            key = (r, j)
            new = c.get(key, 0) + coeff * comb(i, r)
            if new:
                c[key] = new
            else:
                c.pop(key, None)
    p = []
    for r in range(k + 1):
        js = [j for (rr, j) in c if rr == r]
        if not js:
            raise InternalInvariantError(
                f"no nonzero shifted coefficient at x^{r}")
        p.append(max(js))
    return ShiftedCoeffs(c, tuple(p), k)
