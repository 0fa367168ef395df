import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig.fields import (GF, QQ, CapExceeded, ExactArithError,
                               ExactMatrix, column_rank, is_prime,
                               left_kernel_basis, rref, rref_join)
from starconfig import matroid
from starconfig.matroid import Flat, VectorMatroid, bits_of

from conftest import (assert_matches_table, matrices, oracle_column_rank,
                      oracle_left_kernel_basis, oracle_rank_table,
                      oracle_rref, random_matrix, table_flats)


def mask(*indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@pytest.fixture
def m_e0():
    return VectorMatroid(ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]]))


@pytest.fixture
def m_b3():
    rows = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, -1, 0, 0, 1, 1],
            [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    return VectorMatroid(ExactMatrix.from_rows(GF(5), rows))


def test_rank_examples(m_e0, m_b3):
    for i in range(3):
        for j in range(i + 1, 3):
            assert m_e0.rank(mask(i, j)) == 2
    assert m_e0.rank(0) == 0
    assert m_b3.rank(mask(0, 1, 3, 4)) == 2


def test_rank_cache_consistency(m_b3):
    table = oracle_rank_table(m_b3.matrix)
    for sub in range(1 << 9):
        assert table[sub] == m_b3._rank_by_elimination(sub)
    assert_matches_table(m_b3.matrix, table)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_table_matches_elimination(matrix):
    m = VectorMatroid(matrix)
    table = oracle_rank_table(matrix)
    for sub in range(1 << m.n):
        assert table[sub] == m._rank_by_elimination(sub)
    assert_matches_table(matrix, table)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_rref_kernel_matches_oracle(matrix, data):
    cols = data.draw(st.lists(st.integers(0, max(matrix.cols - 1, 0)),
                              unique=True, max_size=matrix.cols))
    assert rref(matrix) == oracle_rref(matrix)
    assert column_rank(matrix, cols) == oracle_column_rank(matrix, cols)
    assert (left_kernel_basis(matrix, cols)
            == oracle_left_kernel_basis(matrix, cols))
    # a fold of rref_join over the rows gives the oracle's nonzero rows;
    # the arguments it is handed stay as they were
    reduced, rank, pivots = oracle_rref(matrix)
    rows, piv = [], ()
    for row in matrix.entries:
        before = [list(r) for r in rows]
        v = list(row)
        joined = rref_join(rows, piv, v, matrix.spec)
        assert [list(r) for r in rows] == before and v == list(row)
        if joined is not None:
            rows, piv = joined
    assert piv == pivots
    assert [list(r) for r in rows] == [list(r) for r in reduced.entries[:rank]]


def closed_independent_subsets(m, s):
    """Rank-s flats as the closures of all independent s-subsets, sorted:
    the enumeration flats_of_rank used before the span-join pass."""
    seen = set()
    for combo in combinations(range(m.n), s):
        sub = mask(*combo)
        if m.rank(sub) == s:
            seen.add(m.closure(sub).members)
    if s == 0:
        seen.add(m.closure(0).members)
    return sorted(seen)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_flats_of_rank_matches_closure_enumeration(matrix):
    m = VectorMatroid(matrix)
    for s in range(m.k + 1):
        flats = m.flats_of_rank(s)
        assert all(f.rank == s for f in flats)
        assert [f.members for f in flats] == closed_independent_subsets(m, s)


def test_rank_table_is_lazy_and_capped(m_b3, monkeypatch):
    # the span-join pass runs once, on the first query that needs it; a
    # pass stopped by the flat cap keeps nothing, and the next query runs
    # it again
    passes = []
    span_join = matroid._span_join

    def counted(columns, spec, k):
        passes.append(spec.modulus)
        return span_join(columns, spec, k)

    monkeypatch.setattr(matroid, "_span_join", counted)
    assert m_b3._rank_size_counts is None and m_b3._flat_masks is None
    cap = matroid.FLAT_CAP
    monkeypatch.setattr(matroid, "FLAT_CAP", 8)
    with pytest.raises(CapExceeded, match="exceeds flat cap 8"):
        m_b3.flats_of_rank(1)
    assert m_b3._rank_size_counts is None and m_b3._flat_masks is None
    monkeypatch.setattr(matroid, "FLAT_CAP", cap)
    flats = m_b3.flats_of_rank(1)
    counts = m_b3.rank_size_counts()
    assert m_b3.rank_size_counts() is counts
    assert m_b3.flats_of_rank(1) == flats and passes == [5, 5]


def test_rank_table_over_gf_2_31_minus_1():
    # (p-1)^2 is just below 2^62.  Columns 0-2 span a subspace whose RREF
    # has p - 1 in column 3 of each row, and column 3 = (p-1)(c0 + c1 + c2)
    # lies in it: reducing it sums three products near 2^62, which
    # overflows int64, so k = 4 takes Python ints; k = 1 stays on int64
    p = (1 << 31) - 1
    planted = [[1, 0, 0, p - 1], [0, 1, 0, p - 1], [0, 0, 1, p - 1],
               [p - 1, p - 1, p - 1, 3]]
    rng = random.Random(31)
    columns = planted + [[rng.randrange(p - 9, p) for _ in range(4)]
                         for _ in range(4)]
    rows = [list(row) for row in zip(*columns)]
    assert_matches_table(ExactMatrix.from_rows(GF(p), rows))
    assert_matches_table(ExactMatrix.from_rows(GF(p), rows[3:]))


def test_rank_table_over_gf_2_61_minus_1():
    p = (1 << 61) - 1
    rng = random.Random(61)
    rows = [[rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(7)]
            for _ in range(3)]
    rows.append([sum(col) for col in zip(rows[0], rows[1])])  # rank 3
    assert_matches_table(ExactMatrix.from_rows(GF(p), rows))


def test_rank_table_over_q_with_large_entries(monkeypatch):
    # entries around 10^12 over small denominators: the Hadamard bound
    # needs several primes, and every subset's rank is still exact
    passes = []
    span_join = matroid._span_join

    def counted(columns, spec, k):
        passes.append(spec.modulus)
        return span_join(columns, spec, k)

    monkeypatch.setattr(matroid, "_span_join", counted)
    rng = random.Random(12)
    rows = [[Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 9))
             for _ in range(7)] for _ in range(3)]
    rows.append([a - 3 * b for a, b in zip(rows[0], rows[2])])
    assert_matches_table(ExactMatrix.from_rows(QQ, rows))
    assert len(passes) > 2


def test_rank_table_over_q_survives_a_prime_dividing_its_minor():
    # the only nonzero 2 x 2 minor is the first prime p, so mod p alone
    # columns 0 and 1 are parallel; the Hadamard bound asks for a second
    p = matroid._certifying_primes(1)[0]
    matrix = ExactMatrix.from_rows(QQ, [[1, 1, 0], [0, p, 0]])
    *_, (_, ranks, members) = matroid._span_join(
        [[1, 0], [1, 0], [0, 0]], GF(p), 2)
    assert ranks.max() == 1 and 0b111 in members
    m = VectorMatroid(matrix)
    assert m.rank_size_counts()[2].tolist() == [0, 0, 1, 1]
    assert [f.members for f in m.flats_of_rank(1)] == [0b101, 0b110]
    assert_matches_table(matrix)
    # (0, 1) lies in the span of columns 0 and 1 over Q but not mod p:
    # adding it changes their class and keeps its rank, one nullity up
    wider = ExactMatrix.from_rows(QQ, [[1, 1, 0, 0], [0, p, 0, 1]])
    assert VectorMatroid(wider).rank_size_counts()[2].tolist() == [
        0, 0, 3, 4, 1]
    assert_matches_table(wider)


def test_certifying_primes_exceed_the_bound_strictly():
    first = matroid._certifying_primes(1)
    assert len(first) == 1 and first[0] < matroid.Q_PRIME_BOUND
    p1 = first[0]
    # a minor of absolute value p1 may vanish mod p1: (p1)^2 > B^2 must
    # hold strictly
    assert matroid._certifying_primes(p1 * p1 - 1) == [p1]
    two = matroid._certifying_primes(p1 * p1)
    assert len(two) == 2 and two[0] == p1 > two[1]
    assert all(is_prime(q) for q in two)


@pytest.mark.parametrize("spec, rows, n", [
    (GF(7), [[0, 3, 0, 1], [0, 2, 0, 5]], 4),
    (QQ, [[0, Fraction(1, 2), 0], [0, 0, 0], [0, 1, 0]], 3),
    (GF(7), [], 3),
    (QQ, [[], [], []], 0),
    (GF((1 << 61) - 1), [[0, 0], [0, 1]], 2),
])
def test_rank_table_with_zero_columns_n_or_k_zero(spec, rows, n):
    assert_matches_table(ExactMatrix.from_rows(spec, rows, cols=n))


def test_rank_table_across_small_blocks(monkeypatch):
    rng = random.Random(16)
    matrices_by_field = [random_matrix(rng, 3, 8, spec)
                         for spec in (GF(2), GF(3), GF(257), QQ)]
    for block in (1, 20):
        monkeypatch.setattr(matroid, "BLOCK", block)
        for matrix in matrices_by_field:
            assert_matches_table(matrix)


def prefix(matrix, i):
    """The matrix of the first i columns."""
    return ExactMatrix.from_rows(matrix.spec,
                                 [row[:i] for row in matrix.entries], cols=i)


def planted_matrix(rng, spec):
    """A [4,8] matrix with a loop, a scaled copy of an earlier column and,
    over Q, entries around 10^12 that need several primes."""
    if spec.kind == "q":
        cols = [[Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 9))
                 for _ in range(4)] for _ in range(6)]
    else:
        cols = [[rng.randrange(spec.modulus) for _ in range(4)]
                for _ in range(6)]
    cols.insert(2, [0] * 4)
    cols.insert(5, [3 * x for x in cols[1]])
    return ExactMatrix.from_rows(spec, [list(row) for row in zip(*cols)])


@pytest.mark.parametrize("spec", [GF(2), GF(3), GF(257)],
                         ids=lambda spec: str(spec.modulus))
def test_span_join_members_follow_each_column(spec):
    # after column i, the pass's subspaces are the flats of the first
    # i + 1 columns, each once, with their ranks
    matrix = planted_matrix(random.Random(spec.modulus), spec)
    steps = matroid._span_join(matrix.columns(), spec, matrix.rows)
    for i, (join, ranks, members) in enumerate(steps):
        table = oracle_rank_table(prefix(matrix, i + 1))
        expected = sorted((sub, s) for s in range(matrix.rows + 1)
                          for sub in table_flats(table, i + 1, s))
        assert sorted(zip(members.tolist(), ranks.tolist())) == expected
        assert len(join) <= len(members)


@pytest.mark.parametrize("spec", [GF(2), GF(3), QQ],
                         ids=lambda spec: str(spec.modulus or "q"))
@pytest.mark.parametrize("block", [1, 1 << 18])
def test_counts_and_flats_follow_each_column(spec, block, monkeypatch):
    # every prefix of the columns, so every column's step of the counts
    # and (over Q, with several primes in step) the flats; BLOCK = 1 moves
    # one class at a time, so the classes that gain must be read first
    passes = []
    span_join = matroid._span_join

    def counted(columns, field, k):
        passes.append(field.modulus)
        return span_join(columns, field, k)

    monkeypatch.setattr(matroid, "_span_join", counted)
    monkeypatch.setattr(matroid, "BLOCK", block)
    matrix = planted_matrix(random.Random(7), spec)
    for i in range(matrix.cols + 1):
        passes.clear()
        assert_matches_table(prefix(matrix, i))
    assert len(passes) > 2 if spec.kind == "q" else len(passes) == 1


def test_counts_and_flats_at_the_bitmask_cap():
    # a [63,2] code over GF(3) whose columns lie on the four points of the
    # projective line, in parallel classes of sizes 20, 17, 15 and 11:
    # counts up to C(63, 31) and member bit 62
    points = [(1, 0), (0, 1), (1, 1), (1, 2)]
    sizes = [20, 17, 15, 11]
    labels = [t for t, size in enumerate(sizes) for _ in range(size)]
    random.Random(63).shuffle(labels)
    columns = [[c * x for x in points[t]]
               for c, t in zip([1, 2] * 32, labels)]
    m = VectorMatroid(ExactMatrix.from_rows(
        GF(3), [list(row) for row in zip(*columns)]))
    assert m.n == matroid.MAX_GROUND_SET and m.full_rank == 2
    counts = m.rank_size_counts().tolist()
    parallel = [sum(comb(size, s) for size in sizes) for s in range(64)]
    assert counts[0] == [1] + [0] * 63
    assert counts[1] == [0] + parallel[1:]
    assert counts[2] == [0] + [comb(63, s) - parallel[s]
                               for s in range(1, 64)]
    assert counts[2][31] == comb(63, 31) - parallel[31]
    classes = sorted(sum(1 << j for j, t in enumerate(labels) if t == u)
                     for u in range(4))
    assert [f.members for f in m.flats_of_rank(1)] == classes
    assert [f.members for f in m.flats_of_rank(2)] == [(1 << 63) - 1]
    assert [f.members for f in m.flats_of_rank(0)] == [0]


def point_query_counts(m):
    """counts[r, s] of the subsets of rank r and size s, by one point
    query per mask."""
    counts = np.zeros((m.full_rank + 1, m.n + 1), dtype=np.int64)
    for sub in range(1 << m.n):
        counts[m.rank(sub), bin(sub).count("1")] += 1
    return counts


@settings(max_examples=100, deadline=None)
@given(matrices(specs=(GF(2), GF(3), QQ)))
def test_rank_size_counts_match_point_queries(matrix):
    m = VectorMatroid(matrix)
    counts = m.rank_size_counts()
    assert counts.dtype == np.int64
    assert counts.shape == (m.full_rank + 1, m.n + 1)
    assert (counts == point_query_counts(m)).all()


@pytest.mark.parametrize("spec, rows, n, expected", [
    (GF(2), [], 0, [[1]]),
    (QQ, [[], []], 0, [[1]]),
    (GF(3), [], 4, [[1, 4, 6, 4, 1]]),
    (QQ, [[0, 0, 0], [0, 0, 0]], 3, [[1, 3, 3, 1]]),
])
def test_rank_size_counts_with_n_or_rank_zero(spec, rows, n, expected):
    m = VectorMatroid(ExactMatrix.from_rows(spec, rows, cols=n))
    assert m.rank_size_counts().tolist() == expected


def test_rank_size_counts_across_blocks(monkeypatch):
    # one class per count move
    monkeypatch.setattr(matroid, "BLOCK", 4)
    rng = random.Random(15)
    for spec in (GF(2), GF(3), QQ):
        m = VectorMatroid(random_matrix(rng, 3, 7, spec))
        assert (m.rank_size_counts() == point_query_counts(m)).all()


def test_rank_size_counts_are_kept_and_read_only(m_b3):
    counts = m_b3.rank_size_counts()
    assert counts.shape == (4, 10)
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0, 0] = 2
    assert m_b3.rank_size_counts() is counts


def test_rank_size_counts_are_capped(m_b3, monkeypatch):
    # the flat cap, the only cap of the pass, stops a pass with more flats
    # than it allows, at its boundary, and the stopped pass keeps nothing
    flats = sum(len(m_b3.flats_of_rank(s)) for s in range(m_b3.k + 1))
    for cap, fails in ((flats - 1, True), (flats, False)):
        m = VectorMatroid(m_b3.matrix)
        monkeypatch.setattr(matroid, "FLAT_CAP", cap)
        if fails:
            with pytest.raises(CapExceeded, match="exceeds flat cap"):
                m.rank_size_counts()
            assert m._flat_masks is None and m._rank_size_counts is None
        else:
            assert (m.rank_size_counts() == m_b3.rank_size_counts()).all()


def test_flat_cap_is_typed(m_b3, monkeypatch):
    monkeypatch.setattr(matroid, "FLAT_CAP", 8)
    with pytest.raises(CapExceeded, match="exceeds"):
        m_b3.rank_size_counts()
    assert m_b3._rank_size_counts is None


def test_ground_set_cap_is_typed():
    with pytest.raises(CapExceeded):
        VectorMatroid(ExactMatrix.from_rows(GF(2), [[1] * 64]))


def test_closure_examples(m_e0, m_b3):
    assert m_e0.closure(mask(0)).members == mask(0)
    assert m_e0.closure(0).members == 0
    assert m_b3.closure(mask(0, 1)).members == mask(0, 1, 3, 4)


def test_closure_properties(rng):
    for _ in range(20):
        spec = rng.choice([GF(2), GF(3), GF(5)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(1, 6), spec))
        for _ in range(5):
            sub = rng.randrange(1 << m.n)
            cl = m.closure(sub)
            assert sub & cl.members == sub                   # extensive
            assert m.rank(cl.members) == m.rank(sub)         # rank-preserving
            assert m.closure(cl.members).members == cl.members  # idempotent


def test_loops_coloops(m_e0):
    for i in range(3):
        assert not m_e0.is_loop(i)
        assert not m_e0.is_coloop(i)
    single = VectorMatroid(ExactMatrix.from_rows(GF(2), [[1]]))
    assert single.is_coloop(0)
    with_loop = VectorMatroid(ExactMatrix.from_rows(GF(3), [[1, 0]]))
    assert with_loop.is_loop(1)


def test_delete_contract(m_e0):
    deleted = m_e0.delete(2)
    assert deleted.n == 2
    assert deleted.full_rank == 2
    assert deleted.is_coloop(0) and deleted.is_coloop(1)

    contracted = m_e0.contract(2)
    assert contracted.n == 2
    assert contracted.full_rank == 1
    # two parallel nonzero elements
    assert contracted.rank(mask(0)) == 1
    assert contracted.rank(mask(1)) == 1
    assert contracted.rank(mask(0, 1)) == 1

    # r''(I) = r(I + e) - r(e)
    assert contracted.rank(mask(0, 1)) == m_e0.rank(mask(0, 1, 2)) \
        - m_e0.rank(mask(2))


def test_minor_rank_identities(rng):
    for _ in range(15):
        spec = rng.choice([GF(2), GF(3), GF(5)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(2, 6), spec))
        e = rng.randrange(m.n)
        if m.is_loop(e):
            continue
        deleted = m.delete(e)
        contracted = m.contract(e)
        re = m.rank(1 << e)
        for sub in range(1 << (m.n - 1)):
            # re-embed the minor's subset into the original ground set
            orig = 0
            for b in bits_of(sub):
                orig |= 1 << (b if b < e else b + 1)
            assert deleted.rank(sub) == m.rank(orig)
            assert contracted.rank(sub) == m.rank(orig | (1 << e)) - re


def test_contract_loop_is_deletion():
    m = VectorMatroid(ExactMatrix.from_rows(GF(3), [[1, 0, 2]]))
    out = m.contract(1)
    assert out.n == 2
    assert out.full_rank == 1


def test_flats_of_rank(m_e0, m_b3):
    f1 = m_e0.flats_of_rank(1)
    assert [f.members for f in f1] == [mask(0), mask(1), mask(2)]
    top = m_e0.flats_of_rank(2)
    assert [f.members for f in top] == [mask(0, 1, 2)]

    b3_rank2 = m_b3.flats_of_rank(2)
    big = sorted(f.members for f in b3_rank2 if f.size == 4)
    assert big == [mask(0, 1, 3, 4), mask(0, 2, 5, 6), mask(1, 2, 7, 8)]


def test_flats_are_closed(rng):
    for _ in range(10):
        spec = rng.choice([GF(2), GF(3), GF(5)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(1, 6), spec))
        for s in range(m.full_rank + 1):
            for f in m.flats_of_rank(s):
                assert m.closure(f.members).members == f.members
                assert m.rank(f.members) == s


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 3), st.integers(1, 6))
def test_rank_axioms(seed, k, n):
    rng = random.Random(seed)
    spec = rng.choice([GF(2), GF(3), GF(5)])
    m = VectorMatroid(random_matrix(rng, k, n, spec))
    for sub in range(1 << n):
        r = m.rank(sub)
        assert 0 <= r <= bin(sub).count("1")
        for j in range(n):
            if not sub & (1 << j):
                grown = m.rank(sub | (1 << j))
                assert r <= grown <= r + 1


def test_mask_out_of_range(m_e0):
    with pytest.raises(ExactArithError):
        m_e0.rank(1 << 5)
