import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig import fields, matroid, tutte
from starconfig.fields import GF, QQ, ExactMatrix
from starconfig.matroid import VectorMatroid
from starconfig.tutte import (BivarPoly, canonical_matrix_key,
                              key_text_writer, tutte_deletion_contraction,
                              tutte_subset_sum, whitney_shift)

from conftest import (DictCache, matrices, oracle_dc, random_code,
                      random_matrix)

DC_FIELDS = (GF(2), GF(3), GF(257), GF(2**61 - 1), QQ)


def poly(terms):
    return BivarPoly(terms)


@pytest.fixture
def m_e0():
    return VectorMatroid(ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]]))


@pytest.fixture
def m_b3():
    rows = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, -1, 0, 0, 1, 1],
            [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    return VectorMatroid(ExactMatrix.from_rows(GF(5), rows))


def test_subset_sum_small(m_e0):
    assert tutte_subset_sum(m_e0) == poly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    coloop = VectorMatroid(ExactMatrix.from_rows(GF(2), [[1]]))
    assert tutte_subset_sum(coloop) == poly({(1, 0): 1})
    loop = VectorMatroid(ExactMatrix.from_rows(GF(2), [[0]]))
    assert tutte_subset_sum(loop) == poly({(0, 1): 1})


def test_deletion_contraction_small(m_e0):
    assert tutte_deletion_contraction(m_e0) == \
        poly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    u12 = VectorMatroid(ExactMatrix.from_rows(GF(3), [[1, 2]]))
    assert tutte_deletion_contraction(u12) == poly({(1, 0): 1, (0, 1): 1})
    ident = VectorMatroid(ExactMatrix.from_rows(
        GF(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert tutte_deletion_contraction(ident) == poly({(3, 0): 1})


def test_deletion_contraction_never_reads_the_table(m_b3, monkeypatch):
    expected = tutte_subset_sum(VectorMatroid(m_b3.matrix))

    def refuse(*args):
        raise AssertionError("deletion-contraction ran a span-join pass")

    monkeypatch.setattr(matroid, "_span_join", refuse)
    assert tutte_deletion_contraction(m_b3) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 8))
def test_engine_equivalence(seed, k, n):
    rng = random.Random(seed)
    spec = rng.choice([GF(2), GF(3), GF(5)])
    m = VectorMatroid(random_matrix(rng, k, n, spec))
    assert tutte_subset_sum(m) == tutte_deletion_contraction(m)


def assert_dc_matches_oracle(matrix):
    """Same polynomial, memo keys (the text of the oracle's keys) and cache
    traffic (cold, then warm through the same cache) as the recursion
    through VectorMatroid minors, and no keyed minor with a loop or a
    coloop; returns the oracle's memo keys."""
    memo, cache = {}, DictCache()
    o_memo, o_cache = {}, DictCache()
    poly = tutte_deletion_contraction(VectorMatroid(matrix), memo, cache)
    assert poly == oracle_dc(VectorMatroid(matrix), o_memo, o_cache)
    assert list(memo) == [json.dumps(key) for key in o_memo]
    assert tutte_deletion_contraction(VectorMatroid(matrix), {}, cache) == \
        oracle_dc(VectorMatroid(matrix), {}, o_cache) == poly
    assert cache.log == o_cache.log
    for key in memo:
        assert_loop_and_coloop_free(matrix.spec, json.loads(key))
    return list(o_memo)


def assert_loop_and_coloop_free(spec, key):
    """The key's columns hold no zero column and no pivot of a unit row:
    the matrix they form, with the key's row count, has no loop and no
    coloop."""
    _, _, k, n, cols = key
    assert len(cols) == n and n > 0 and k > 0
    m = VectorMatroid(ExactMatrix.from_rows(
        spec, [[spec.parse(col[i]) for col in cols] for i in range(k)]))
    assert not any(m.is_loop(e) or m.is_coloop(e) for e in range(n))


@settings(max_examples=200, deadline=None)
@given(matrices(DC_FIELDS))
def test_carried_rref_matches_oracle(matrix):
    assert_dc_matches_oracle(matrix)


@pytest.mark.parametrize("spec", DC_FIELDS,
                         ids=lambda spec: str(spec.modulus or "q"))
def test_carried_rref_matches_oracle_on_degenerate_minors(spec):
    c = spec.coerce

    def matrix(rows, cols=None):
        return ExactMatrix.from_rows(
            spec, [[c(x) for x in row] for row in rows], cols)

    # 4 x 7 of rank 2: a loop (column 2), a parallel pair (0 and 5) and a
    # scaled copy (4 = 3 * 1), so every minor has more rows than its rank
    deficient = matrix([[1, 0, 0, 2, 0, 1, 1],
                        [0, 1, 0, 1, 3, 0, 4],
                        [1, 1, 0, 3, 3, 1, 5],
                        [2, 0, 0, 4, 0, 2, 2]])
    m = VectorMatroid(deficient)
    assert m.full_rank == 2
    keys = assert_dc_matches_oracle(deficient)
    # key = (kind, modulus, rows, n, columns); the loop is deleted before
    # the root is keyed, and each contraction drops one row and one rank.
    # A rank-1 minor without coloops is a parallel class, which one more
    # contraction turns into loops alone: no 2-row minor is keyed
    assert {key[2] for key in keys} == {3, 4}
    loops = sum(m.is_loop(e) for e in range(m.n))  # 2 over GF(3), else 1
    assert keys[-1][2:4] == (4, m.n - loops)  # the root, keyed last
    # 2 x 5 of full rank, with a parallel pair: contracting twice leaves
    # zero-row minors, all loops, and none is keyed
    keys = assert_dc_matches_oracle(matrix([[1, 0, 1, 1, 2],
                                            [0, 1, 1, 2, 0]]))
    assert {key[2] for key in keys} == {1, 2}
    assert assert_dc_matches_oracle(matrix([], cols=3)) == []


@st.composite
def planted(draw, spec):
    """A matrix with planted loops, coloops and parallel classes, columns
    shuffled: a random core, zero columns, unit columns in rows of their
    own, and scaled copies of core columns."""
    if spec.kind == "gf":
        entry = st.integers(0, spec.modulus - 1).map(spec.coerce)
        unit = st.integers(1, spec.modulus - 1).map(spec.coerce)
    else:
        entry = st.fractions(-3, 3, max_denominator=3).map(spec.coerce)
        unit = entry.filter(bool)
    k = draw(st.integers(0, 3))
    core = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=1, max_size=4))
    loops = draw(st.integers(0, 2))
    coloops = draw(st.integers(0, 2))
    parallel = [spec.scale(draw(unit), draw(st.sampled_from(core)))
                for _ in range(draw(st.integers(0, 3)))]
    zero = spec.zero
    cols = [list(col) + [zero] * coloops for col in core + parallel]
    cols += [[zero] * (k + coloops) for _ in range(loops)]
    for i in range(coloops):
        col = [zero] * (k + coloops)
        col[k + i] = draw(unit)
        cols.append(col)
    cols = draw(st.permutations(cols))
    return ExactMatrix.from_rows(
        spec, [[col[i] for col in cols] for i in range(k + coloops)],
        cols=len(cols))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DC_FIELDS).flatmap(planted))
def test_planted_loops_coloops_and_parallels_match_subset_sum(matrix):
    m = VectorMatroid(matrix)
    assert tutte_deletion_contraction(m) == tutte_subset_sum(m)


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_one_parallel_class_is_u1m(m):
    # U_{1,m}: deleting the class leaves rank 0, and N is empty
    spec = GF(3)
    matrix = ExactMatrix.from_rows(spec, [[1 + j % 2 for j in range(m)]])
    memo = {}
    t = tutte_deletion_contraction(VectorMatroid(matrix), memo)
    assert t == poly({(1, 0): 1, **{(0, j): 1 for j in range(1, m)}})
    assert len(memo) == (m > 1)  # U_{1,1} is a coloop, stripped at the root


def test_two_parallel_pairs_take_the_rank_drop_branch():
    # {a, a'} and {b, b'} in rank 2: deleting {a, a'} leaves rank 1, so
    # T = (x + y) T(U_{1,2}) = (x + y)^2, and M \ {a, a'} is never keyed
    matrix = ExactMatrix.from_rows(GF(5), [[1, 2, 0, 0], [0, 0, 1, 3]])
    memo = {}
    t = tutte_deletion_contraction(VectorMatroid(matrix), memo)
    x_plus_y = poly({(1, 0): 1, (0, 1): 1})
    assert t == x_plus_y * x_plus_y
    assert [tuple(json.loads(key)[2:4]) for key in memo] == [(1, 2), (2, 4)]


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_a_parallel_class_inside_u2n(m, n):
    # n points in general position in rank 2, the first repeated m times,
    # scaled
    spec = GF(257)
    cols = [(1, 3 * m)] + [(1, t) for t in range(n - 1)]
    cols += [(c, 3 * m * c % 257) for c in range(2, m + 1)]
    matroid = VectorMatroid(ExactMatrix.from_rows(spec, list(zip(*cols))))
    assert tutte_deletion_contraction(matroid) == tutte_subset_sum(matroid)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_a_circuit_series_class_keys_one_minor(m):
    # U_{m-1,m} is one series class, a circuit: deleting it leaves the
    # empty matroid, so the root is the only keyed minor.  Contracting one
    # element at a time keys m - 1 minors, U_{j-1,j} for j = m down to 2
    spec = GF(3)
    rows = [[int(i == j) for j in range(m - 1)] + [2] for i in range(m - 1)]
    matrix = ExactMatrix.from_rows(spec, rows)
    memo = {}
    t = tutte_deletion_contraction(VectorMatroid(matrix), memo)
    assert t == poly({(0, 1): 1, **{(i, 0): 1 for i in range(1, m)}})
    assert len(memo) == 1
    assert assert_dc_matches_oracle(matrix) == [
        canonical_matrix_key(matrix)]


@st.composite
def planted_series(draw, spec, circuit: bool):
    """A matrix with a planted series class S of size m >= 2, columns
    shuffled.  An independent S subdivides a column j of a random core:
    each of m - 1 new rows is nonzero at j and at one new column alone.  A
    circuit S is a block of its own: m - 1 scaled unit columns in m - 1 new
    rows and a column nonzero in all of them."""
    if spec.kind == "gf":
        entry = st.integers(0, spec.modulus - 1).map(spec.coerce)
        unit = st.integers(1, spec.modulus - 1).map(spec.coerce)
    else:
        entry = st.fractions(-3, 3, max_denominator=3).map(spec.coerce)
        unit = entry.filter(bool)
    k = draw(st.integers(1, 3))
    core = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=1, max_size=4))
    m = draw(st.integers(2, 4))
    zero = spec.zero
    j = draw(st.integers(0, len(core) - 1))
    cols = [col + [draw(unit) if i == j and not circuit else zero
                   for _ in range(m - 1)] for i, col in enumerate(core)]
    for t in range(m - 1):
        col = [zero] * (k + m - 1)
        col[k + t] = draw(unit)
        cols.append(col)
    if circuit:
        cols.append([zero] * k + [draw(unit) for _ in range(m - 1)])
    cols = draw(st.permutations(cols))
    return ExactMatrix.from_rows(
        spec, [[col[i] for col in cols] for i in range(k + m - 1)])


@pytest.mark.parametrize("circuit", [False, True],
                         ids=["independent", "circuit"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_planted_series_class_matches_oracle_and_subset_sum(circuit, data):
    spec = data.draw(st.sampled_from(DC_FIELDS))
    matrix = data.draw(planted_series(spec, circuit))
    assert_dc_matches_oracle(matrix)
    m = VectorMatroid(matrix)
    assert tutte_deletion_contraction(m) == tutte_subset_sum(m)


def test_parallel_class_step_pins_the_keyed_minors():
    # one keyed minor per parallel class, not one per element: peeling a
    # class one element at a time keys 136 minors of this code
    m = VectorMatroid(random_code(random.Random(1), 4, 18, GF(2)).matrix)
    memo = {}
    t = tutte_deletion_contraction(m, memo)
    assert len(memo) == 45
    assert t == tutte_subset_sum(VectorMatroid(m.matrix))


def test_deletion_contraction_eliminates_once(m_b3, monkeypatch):
    calls = {"rref": 0, "rank": 0}
    rref, rank = fields.rref, VectorMatroid._rank_by_elimination

    def counted_rref(matrix):
        calls["rref"] += 1
        return rref(matrix)

    def counted_rank(self, mask):
        calls["rank"] += 1
        return rank(self, mask)

    monkeypatch.setattr(fields, "rref", counted_rref)
    monkeypatch.setattr(tutte, "rref", counted_rref)
    monkeypatch.setattr(VectorMatroid, "_rank_by_elimination", counted_rank)
    poly = tutte_deletion_contraction(m_b3)
    assert calls == {"rref": 1, "rank": 0}
    assert poly == oracle_dc(VectorMatroid(m_b3.matrix))


def test_deletion_contraction_dumps_no_key_per_node(m_b3, monkeypatch):
    # keys are written as text: json.dumps runs at most once per (k, n),
    # for the head of a key, never per node (DictCache dumps only its dict
    # docs)
    heads = []
    dumps = json.dumps

    def counted_dumps(obj, *args, **kwargs):
        if not isinstance(obj, dict):
            heads.append(obj)
        return dumps(obj, *args, **kwargs)

    memo, cache = {}, DictCache()
    monkeypatch.setattr(json, "dumps", counted_dumps)
    tutte_deletion_contraction(m_b3, memo, cache)
    shapes = {tuple(json.loads(key)[2:4]) for key in memo}
    assert len(memo) > len(shapes)
    assert len(heads) <= len(shapes)


def test_deletion_contraction_any_ordinary_element(rng):
    # the identity T = T(del e) + T(con e) holds for every ordinary e
    for _ in range(10):
        spec = rng.choice([GF(2), GF(3), GF(5)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(2, 7), spec))
        t = tutte_subset_sum(m)
        for e in range(m.n):
            if m.is_loop(e) or m.is_coloop(e):
                continue
            t_del = tutte_subset_sum(m.delete(e))
            t_con = tutte_subset_sum(m.contract(e))
            assert t == t_del + t_con


def test_evaluation_facts(m_e0, rng):
    t = tutte_subset_sum(m_e0)
    assert t.evaluate(1, 1) == 3   # bases
    assert t.evaluate(2, 1) == 7   # independent sets
    assert t.evaluate(2, 2) == 8   # all subsets
    for _ in range(10):
        spec = rng.choice([GF(2), GF(3), GF(5)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(1, 7), spec))
        t = tutte_subset_sum(m)
        bases = independent = spanning = 0
        for sub in range(1 << m.n):
            r = m.rank(sub)
            size = bin(sub).count("1")
            if r == size:
                independent += 1
                if r == m.full_rank:
                    bases += 1
            if r == m.full_rank:
                spanning += 1
        assert t.evaluate(1, 1) == bases
        assert t.evaluate(2, 1) == independent
        assert t.evaluate(1, 2) == spanning
        assert t.evaluate(2, 2) == 1 << m.n


def test_whitney_shift_e0(m_e0):
    shifted = whitney_shift(tutte_subset_sum(m_e0), 2)
    assert shifted.c == {(2, 0): 1, (1, 0): 3, (0, 1): 1, (0, 0): 2}
    assert shifted.p == (1, 0, 0)


def test_whitney_shift_constant():
    shifted = whitney_shift(BivarPoly({(0, 0): 1}), 0)
    assert shifted.c == {(0, 0): 1}
    assert shifted.p == (0,)


def test_whitney_shift_b3(m_b3):
    shifted = whitney_shift(tutte_subset_sum(m_b3), 3)
    expected = {(0, 6): 1, (0, 5): 3, (0, 4): 6, (0, 3): 10, (0, 2): 15,
                (0, 1): 18, (0, 0): 15, (1, 2): 3, (1, 1): 10, (1, 0): 23,
                (2, 0): 9, (3, 0): 1}
    assert shifted.c == expected
    assert shifted.p == (6, 2, 0, 0)


def test_shift_positivity_and_leading_one(rng):
    for _ in range(15):
        spec = rng.choice([GF(2), GF(3), GF(5)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(1, 7), spec))
        if any(m.is_loop(i) for i in range(m.n)):
            continue
        shifted = whitney_shift(tutte_subset_sum(m), m.full_rank)
        assert all(c >= 0 for c in shifted.c.values())
        assert shifted.coeff(m.full_rank, 0) == 1
        assert shifted.p[m.full_rank] == 0


def test_shift_matches_direct_evaluation(rng):
    for _ in range(10):
        spec = rng.choice([GF(2), GF(3)])
        m = VectorMatroid(random_matrix(rng, rng.randint(1, 3),
                                        rng.randint(1, 6), spec))
        t = tutte_subset_sum(m)
        shifted = whitney_shift(t, m.full_rank)
        for x, y in [(0, 0), (1, 1), (2, 3), (-1, 2)]:
            direct = t.evaluate(x + 1, y)
            via = sum(c * x**r * y**j for (r, j), c in shifted.c.items())
            assert direct == via


def test_memoization_key_row_op_invariant(rng):
    # row operations preserve the key; the key only ever collides between
    # matrices whose matroids agree up to relabeling, so equal keys are
    # safe to share a memo slot
    spec = GF(5)
    m = random_matrix(rng, 3, 6, spec)
    rows = [list(r) for r in m.entries]
    rows[1] = [spec.add(x, y) for x, y in zip(rows[1], rows[0])]
    rows[2] = [spec.mul(2, x) for x in rows[2]]
    transformed = ExactMatrix.from_rows(spec, rows)
    assert canonical_matrix_key(m) == canonical_matrix_key(transformed)


def test_memoization_key_collisions_share_tutte(rng):
    # sampled matrices with equal keys must have equal Tutte polynomials
    seen = {}
    for _ in range(60):
        spec = rng.choice([GF(2), GF(3)])
        m = random_matrix(rng, 2, 4, spec)
        key = canonical_matrix_key(m)
        t = tutte_subset_sum(VectorMatroid(m))
        if key in seen:
            assert seen[key] == t
        seen[key] = t


def key_cases():
    """(name, matrix) pairs: e0, b3, seeded random matrices over GF(2),
    GF(3), GF(257) and Q (zero entries, rational entries, rank-deficient
    rows), and every contract(e) minor of each."""
    rng = random.Random(2016)
    b3 = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
          [0, 1, 0, 1, -1, 0, 0, 1, 1],
          [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    cases = [("e0", ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]])),
             ("b3", ExactMatrix.from_rows(GF(5), b3))]
    for name, spec in (("gf2", GF(2)), ("gf3", GF(3)), ("gf257", GF(257)),
                       ("q", QQ)):
        for t in range(4):
            k = rng.randint(1, 4)
            n = rng.randint(k, 7)
            if spec.kind == "q":
                entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                entry = lambda: rng.choice([0, rng.randrange(spec.modulus)])
            rows = [[entry() for _ in range(n)] for _ in range(k)]
            cases.append((f"{name}-{t}", ExactMatrix.from_rows(spec, rows)))
    out = []
    for name, matrix in cases:
        out.append((name, matrix))
        m = VectorMatroid(matrix)
        out.extend((f"{name}/{e}", m.contract(e).matrix) for e in range(m.n))
    return out


def test_canonical_keys_match_recorded():
    """Disk-cache entries are addressed by json.dumps of the canonical key,
    so the keys must not change: tests/data/canonical_keys.json holds them
    as computed by the elimination before fields.rref_join."""
    data = Path(__file__).parent / "data" / "canonical_keys.json"
    recorded = json.loads(data.read_text())
    keys = {name: json.dumps(canonical_matrix_key(matrix))
            for name, matrix in key_cases()}
    assert keys == recorded


def writer_text(writer, matrix):
    reduced, rank, _ = fields.rref(matrix)
    return writer(reduced.entries[:rank], matrix.rows, matrix.cols)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DC_FIELDS).flatmap(
    lambda spec: st.lists(matrices((spec,)), min_size=1, max_size=6)))
def test_key_text_is_json_dump_of_key(batch):
    # one writer, and so one column table, across matrices of any k
    writer = key_text_writer(batch[0].spec)
    for matrix in batch:
        assert writer_text(writer, matrix) == \
            json.dumps(canonical_matrix_key(matrix))


def test_key_text_sorts_columns_as_tuples():
    """An entry that is a prefix of another ("1" of "10", "-1" of "-1/2")
    sorts first in the text, as in the tuple; and the writer gives the
    recorded text of every key case."""
    gf257 = ExactMatrix.from_rows(GF(257), [[1, 0, 1, 1, 1],
                                            [0, 1, 10, 1, 100]])
    q = ExactMatrix.from_rows(QQ, [[1, 0, 1, 1],
                                   [0, 1, Fraction(-1, 2), -1]])
    for matrix in (gf257, q):
        text = writer_text(key_text_writer(matrix.spec), matrix)
        assert text == json.dumps(canonical_matrix_key(matrix))
    assert '["1", "1"], ["1", "10"], ["1", "100"]' in \
        writer_text(key_text_writer(GF(257)), gf257)
    assert '["1", "-1"], ["1", "-1/2"], ["1", "0"]' in \
        writer_text(key_text_writer(QQ), q)
    data = Path(__file__).parent / "data" / "canonical_keys.json"
    recorded = json.loads(data.read_text())
    writers = {}
    for name, matrix in key_cases():
        writer = writers.setdefault(matrix.spec, key_text_writer(matrix.spec))
        assert writer_text(writer, matrix) == recorded[name]


@pytest.mark.parametrize("spec", DC_FIELDS,
                         ids=lambda spec: str(spec.modulus or "q"))
def test_zero_row_keys_list_no_columns(spec):
    """rref keeps the n columns of a matrix with no rows, and the key of
    such a matrix still records n and lists no columns."""
    matrix = ExactMatrix.from_rows(spec, [], cols=6)
    text = json.dumps([spec.kind, spec.modulus, 0, 6, []])
    assert json.dumps(canonical_matrix_key(matrix)) == text
    assert writer_text(key_text_writer(spec), matrix) == text


polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.integers(-3, 3), max_size=8).map(BivarPoly)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_poly_sum(p, q):
    summed = dict(p.terms)
    for key, c in q.terms.items():
        summed[key] = summed.get(key, 0) + c
    total = p + q
    assert total.terms == BivarPoly(summed).terms
    assert all(type(c) is int and c for c in total.terms.values())
    assert total == BivarPoly(summed)
    assert hash(total) == hash(BivarPoly(summed))
    assert p + p.scale(-1) == BivarPoly.zero()
    assert (p + p.scale(-1)).terms == {}


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(0, 3), st.integers(0, 3))
def test_shift_degrees(p, dx, dy):
    shifted = p.shift_degrees(dx, dy)
    assert shifted.terms == (p * BivarPoly.monomial(dx, dy)).terms
    assert all(type(c) is int and c for c in shifted.terms.values())
    assert p.shift_degrees(0, 0) is p


def test_poly_json_roundtrip(m_b3):
    t = tutte_subset_sum(m_b3)
    doc = t.to_json()
    json.dumps(doc)  # serializable
    assert BivarPoly.from_json(doc) == t
    assert all(isinstance(term["coeff"], str) for term in doc["terms"])


def test_poly_str():
    assert str(BivarPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})) == "x^2 + x + y"
    assert str(BivarPoly({})) == "0"
