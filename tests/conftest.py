import json
import random
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import strategies as st

from starconfig.fields import GF, QQ, ExactMatrix, rref
from starconfig.codes import LinearCode
from starconfig.matroid import VectorMatroid, iter_bits
from starconfig.tutte import BivarPoly

FIELDS = [GF(2), GF(3), GF(5)]


def random_matrix(rng: random.Random, k: int, n: int, spec):
    if spec.kind == "gf":
        rows = [[rng.randrange(spec.modulus) for _ in range(n)]
                for _ in range(k)]
    else:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return ExactMatrix.from_rows(spec, rows)


def random_code(rng: random.Random, k: int, n: int, spec) -> LinearCode:
    """Full-rank generator matrix without zero columns, by rejection."""
    while True:
        m = random_matrix(rng, k, n, spec)
        try:
            return LinearCode(m)
        except Exception:
            continue


def random_code_any(rng: random.Random, max_k=4, max_n=9,
                    fields=FIELDS) -> LinearCode:
    k = rng.randint(1, max_k)
    n = rng.randint(k, max_n)
    return random_code(rng, k, n, rng.choice(fields))


@st.composite
def matrices(draw, specs=(GF(2), GF(3), GF(5), GF(257), QQ)):
    """Small matrices over the given fields, with zero columns (loops),
    multiples of earlier columns (parallel elements), n = 0 and zero-row
    shapes all reachable."""
    spec = draw(st.sampled_from(specs))
    k = draw(st.integers(0, 4))
    n = draw(st.integers(0, 8))
    if spec.kind == "gf":
        entry = st.integers(0, spec.modulus - 1)
    else:
        entry = st.fractions(-3, 3, max_denominator=3)
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "zero", "parallel"]))
        if kind == "zero":
            col = [0] * k
        elif kind == "parallel" and cols:
            c = spec.coerce(draw(entry))
            col = [spec.mul(c, spec.coerce(x))
                   for x in draw(st.sampled_from(cols))]
        else:
            col = draw(st.lists(entry, min_size=k, max_size=k))
        cols.append(col)
    rows = [[col[i] for col in cols] for i in range(k)]
    return ExactMatrix.from_rows(spec, rows, cols=n)


# -- test-only elimination oracle ---------------------------------------------
#
# The Gauss-Jordan loop that fields.rref, column_rank and left_kernel_basis
# ran before they shared fields.rref_join with the matroid: an independent
# reference for that kernel, the span-join pass and the point ranks.

def _eliminate(rows: list, spec):
    """In-place forward + backward elimination; returns pivot column list."""
    zero = spec.zero
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(n_cols):
        # first nonzero entry in column order, no magnitude pivoting
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = spec.inv(rows[r][c])
        rows[r] = [spec.mul(inv, x) for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [spec.sub(x, spec.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return piv_cols


def oracle_rref(m: ExactMatrix):
    """(reduced, rank, pivot_cols), as fields.rref returns them."""
    rows = [list(row) for row in m.entries]
    piv_cols = _eliminate(rows, m.spec)
    # a matrix with no rows keeps its column count
    reduced = ExactMatrix(m.spec, tuple(tuple(r) for r in rows),
                          0 if rows else m.cols)
    return reduced, len(piv_cols), tuple(piv_cols)


def oracle_column_rank(m: ExactMatrix, cols) -> int:
    rows = [list(row) for row in m.submatrix_cols(list(cols)).entries]
    return len(_eliminate(rows, m.spec)) if rows else 0


def oracle_left_kernel_basis(m: ExactMatrix, cols) -> list:
    spec = m.spec
    k = m.rows
    cols = list(cols)
    sub = m.submatrix_cols(cols)
    t_rows = [[sub.entries[i][j] for i in range(k)] for j in range(len(cols))]
    piv = _eliminate(t_rows, spec)
    basis = []
    for f in (c for c in range(k) if c not in piv):
        v = [spec.zero] * k
        v[f] = spec.one
        for r, c in enumerate(piv):
            v[c] = spec.neg(t_rows[r][f])
        basis.append(tuple(v))
    return basis


# -- test-only subset-rank table ----------------------------------------------
#
# r(S) for every mask S, by one oracle elimination each, and the rank-size
# counts and flats read off it: the reference for the span-join pass, which
# keeps nothing per subset.

def oracle_rank_table(m: ExactMatrix) -> list:
    return [oracle_column_rank(m, iter_bits(sub))
            for sub in range(1 << m.cols)]


def table_counts(table: list, full_rank: int, n: int) -> np.ndarray:
    """counts[r, s] of the subsets of rank r and size s."""
    counts = np.zeros((full_rank + 1, n + 1), dtype=np.int64)
    for sub, r in enumerate(table):
        counts[r, bin(sub).count("1")] += 1
    return counts


def table_flats(table: list, n: int, s: int) -> list:
    """The masks of the flats of rank s, ascending: S is closed when adding
    any element outside S raises its rank."""
    return [sub for sub, r in enumerate(table)
            if r == s and all(table[sub | 1 << j] > r for j in range(n)
                              if not sub >> j & 1)]


def assert_matches_table(matrix: ExactMatrix, table: list | None = None):
    """rank_size_counts and every flats_of_rank of the matrix's matroid
    equal those read off its oracle table."""
    m = VectorMatroid(matrix)
    table = oracle_rank_table(matrix) if table is None else table
    counts = m.rank_size_counts()
    assert (counts == table_counts(table, m.full_rank, m.n)).all()
    for s in range(m.k + 1):
        flats = m.flats_of_rank(s)
        assert all(f.rank == s for f in flats)
        assert [f.members for f in flats] == table_flats(table, m.n, s)


# -- test-only deletion-contraction oracle ------------------------------------
#
# The recursion tutte_deletion_contraction runs, on VectorMatroid minors
# instead of a carried RREF: every node builds its minors, probes loops and
# coloops by elimination, deletes the loops and contracts the coloops, keys
# what is left by canonical_matrix_key (as it was before key_text_writer),
# and removes the parallel class of its first element in one step, or,
# when that element has no parallel partner, its series class.  An
# independent reference for the polynomial, the memo keys and the cache
# traffic.

def canonical_matrix_key(matrix: ExactMatrix) -> tuple:
    reduced, rank, _ = rref(matrix)
    spec = matrix.spec
    zero = spec.zero
    cols = []
    # a matrix with no rows lists no columns
    for j in range(reduced.cols if matrix.rows else 0):
        col = reduced.column(j)
        lead = next((x for x in col if x != zero), None)
        if lead is not None and lead != spec.one:
            inv = spec.inv(lead)
            col = tuple(spec.mul(inv, x) for x in col)
        cols.append(tuple(spec.to_str(x) for x in col))
    cols.sort()
    kind = matrix.spec.kind
    mod = matrix.spec.modulus
    return (kind, mod, matrix.rows, matrix.cols, tuple(cols))


def _stripped(m):
    """(m', c, l): m with its l loops deleted and its c coloops
    contracted, from the last element down."""
    loops = [i for i in range(m.n) if m.is_loop(i)]
    coloops = [i for i in range(m.n) if m.is_coloop(i)]
    for i in sorted(loops + coloops, reverse=True):
        m = m.delete(i) if i in loops else m.contract(i)
    return m, len(coloops), len(loops)


def _without(m, cols: list):
    """m with the elements cols deleted."""
    return VectorMatroid(m.matrix.submatrix_cols(
        [j for j in range(m.n) if j not in cols]))


def _dc(m, memo: dict, cache) -> BivarPoly:
    m, coloops, loops = _stripped(m)
    factor = BivarPoly.monomial(coloops, loops)
    if m.n == 0:
        return factor
    key = canonical_matrix_key(m.matrix)
    poly = memo.get(key)
    if poly is None and cache is not None:
        stored = cache.get(json.dumps(key))
        if stored is not None:
            poly = memo[key] = BivarPoly.from_json(stored)
    if poly is None:
        # every element of m is ordinary; the parallel class P of e = 0 is
        # e and the loops of m / e, and N = m / e \ (P - e).  When P is e
        # alone, e's series class S is e and the coloops of m \ e
        con = m.contract(0)
        parallels = [j for j in range(con.n) if con.is_loop(j)]
        deleted = m.delete(0)
        series = [] if parallels else [
            j for j in range(deleted.n) if deleted.is_coloop(j)]
        if series:
            # m \ S is m \ e with those coloops contracted
            t_rest = _dc(_stripped(deleted)[0], memo, cache)
            x_sum = BivarPoly({(i, 0): 1 for i in range(1, len(series) + 1)})
            if m.rank(1 | sum(1 << j + 1 for j in series)) == len(series):
                # S is a circuit: T(m) = (y + x + ... + x^(|S|-1)) T(m \ S)
                poly = t_rest * (BivarPoly.monomial(0, 1) + x_sum)
            else:
                # T(m) = T(m / S) + (1 + x + ... + x^(|S|-1)) T(m \ S)
                for j in reversed(series):
                    con = con.contract(j)
                poly = t_rest * (BivarPoly.one() + x_sum) + _dc(con, memo,
                                                                cache)
        else:
            rest = _without(m, [0] + [j + 1 for j in parallels])
            y_sum = BivarPoly({(0, j): 1
                               for j in range(1, len(parallels) + 1)})
            if rest.full_rank == m.full_rank:
                # T(m) = T(m \ P) + (1 + y + ... + y^(|P|-1)) T(N)
                t_rest, lead = _dc(rest, memo, cache), BivarPoly.one()
            else:
                # T(m) = (x + y + ... + y^(|P|-1)) T(N)
                t_rest, lead = BivarPoly.zero(), BivarPoly.monomial(1, 0)
            poly = t_rest + _dc(_without(con, parallels), memo, cache) * (
                lead + y_sum)
        memo[key] = poly
        if cache is not None:
            cache.put(json.dumps(key), poly.to_json())
    return poly * factor


def oracle_dc(m, memo: dict | None = None, cache=None) -> BivarPoly:
    """tutte_deletion_contraction through VectorMatroid minors."""
    return _dc(m, {} if memo is None else memo, cache)


class DictCache:
    """A TutteCache stand-in in memory that logs every get and put and
    returns what was put under a key."""

    def __init__(self):
        self.entries = {}
        self.log = []

    def batch(self):
        return nullcontext()

    def get(self, key):
        self.log.append(("get", key))
        return self.entries.get(key)

    def put(self, key, entry):
        # tutte_deletion_contraction puts a BivarPoly, oracle_dc a doc
        doc = entry.to_json() if isinstance(entry, BivarPoly) else entry
        self.log.append(("put", key, json.dumps(doc)))
        self.entries[key] = entry


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


@pytest.fixture
def e0():
    return LinearCode(ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]]),
                      ["x1", "x2", "x1+x2"])


@pytest.fixture
def b3():
    rows = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, -1, 0, 0, 1, 1],
            [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    labels = ["x1", "x2", "x3", "x1+x2", "x1-x2", "x1+x3", "x1-x3",
              "x2+x3", "x2-x3"]
    return LinearCode(ExactMatrix.from_rows(GF(5), rows), labels)
