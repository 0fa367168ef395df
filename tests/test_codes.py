import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig import codes
from starconfig.codes import (CodeError, LinearCode, WeightHierarchy,
                              _ghw_bruteforce_matroid,
                              dual_generator_matrix, form_label,
                              ghw_bruteforce, ghw_from_dual_rank,
                              ghw_from_tutte, minimal_support_subcode_count,
                              subcode_from_flat, weight_hierarchy,
                              wei_duality_check)
from starconfig.fields import GF, QQ, ExactArithError, ExactMatrix
from starconfig.matroid import VectorMatroid
from starconfig.tutte import (tutte_deletion_contraction, tutte_subset_sum,
                              whitney_shift)

from conftest import (FIELDS, oracle_rank_table, oracle_rref, random_code,
                      random_code_any)


def mask(*indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def shifted(code):
    return whitney_shift(tutte_subset_sum(code.matroid), code.k)


def test_rejects_zero_column():
    with pytest.raises(CodeError) as exc:
        LinearCode(ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 0, 1]]))
    assert "column 2" in str(exc.value)
    assert "loops" in str(exc.value)


def test_rejects_rank_deficiency():
    with pytest.raises(CodeError):
        LinearCode(ExactMatrix.from_rows(GF(3), [[1, 2, 1], [2, 1, 2]]))


def test_auto_labels(e0):
    assert e0.labels == ("x1", "x2", "x1+x2")
    unlabeled = LinearCode(ExactMatrix.from_rows(
        GF(2), [[1, 0, 1], [0, 1, 1]]))
    assert unlabeled.labels == ("x1", "x2", "x1 + x2")


def test_form_label_scalars():
    f5 = GF(5)
    assert form_label(f5, (1, 3, 0)) == "x1 + 3*x2"
    assert form_label(f5, (0, 0)) == "0"


def test_hierarchy_e0(e0):
    h = weight_hierarchy(e0)
    assert h.d == (0, 2, 3)
    assert h.interval_index(1) == 0
    assert h.interval_index(2) == 0
    assert h.interval_index(3) == 1
    with pytest.raises(ExactArithError):
        h.interval_index(4)


def test_hierarchy_b3(b3):
    assert weight_hierarchy(b3).d == (0, 5, 8, 9)


def test_hierarchy_mds_vandermonde():
    code = LinearCode(ExactMatrix.from_rows(GF(5), [[1, 1, 1, 1],
                                                    [1, 2, 3, 4]]))
    assert weight_hierarchy(code).d == (0, 3, 4)


def test_hierarchy_identity_code():
    code = LinearCode(ExactMatrix.from_rows(
        GF(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert weight_hierarchy(code).d == (0, 1, 2, 3)


def test_hierarchy_validation():
    with pytest.raises(ExactArithError):
        WeightHierarchy((1, 2)).validate(2, 1)
    with pytest.raises(ExactArithError):
        WeightHierarchy((0, 2, 2)).validate(3, 2)
    with pytest.raises(ExactArithError):
        WeightHierarchy((0, 3)).validate(4, 1)   # d_k != n
    with pytest.raises(ExactArithError):
        WeightHierarchy((0, 4, 5, 6)).validate(5, 3)  # Singleton bound


def test_three_routes_agree_examples(e0, b3):
    for code in (e0, b3):
        coeffs = shifted(code)
        for r in range(code.k + 1):
            brute = ghw_bruteforce(code, r)
            assert ghw_from_tutte(coeffs, code, r) == brute
            assert ghw_from_dual_rank(code, r) == brute


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_three_routes_agree_random(seed):
    rng = random.Random(seed)
    code = random_code_any(rng, max_k=3, max_n=7)
    coeffs = shifted(code)
    for r in range(code.k + 1):
        brute = ghw_bruteforce(code, r)
        assert ghw_from_tutte(coeffs, code, r) == brute
        assert ghw_from_dual_rank(code, r) == brute


def test_ghw_range_checks(e0):
    coeffs = shifted(e0)
    for fn in (lambda r: ghw_bruteforce(e0, r),
               lambda r: ghw_from_tutte(coeffs, e0, r),
               lambda r: ghw_from_dual_rank(e0, r)):
        with pytest.raises(ExactArithError):
            fn(-1)
        with pytest.raises(ExactArithError):
            fn(e0.k + 1)


def test_dual_rank_route_is_the_dual_witness_minimum(e0, b3, monkeypatch):
    # d_r = min{|I| : |I| - r*(I) = r}, with r* the column ranks of the
    # dual generator matrix by the test eliminator, for every r; the route
    # equals brute force and reads its counts without calling
    # ghw_bruteforce, so no traced frame nests inside another
    rng = random.Random(19)
    sample = [e0, b3] + [random_code_any(rng, max_k=4, max_n=8,
                                         fields=FIELDS + [QQ])
                         for _ in range(24)]
    brute = [[ghw_bruteforce(code, r) for r in range(code.k + 1)]
             for code in sample]

    def refuse(*args):
        raise AssertionError("the dual-rank route called ghw_bruteforce")

    monkeypatch.setattr(codes, "ghw_bruteforce", refuse)
    for code, want in zip(sample, brute):
        dual_ranks = oracle_rank_table(dual_generator_matrix(code))
        witness = [min(bin(i).count("1") for i, rank in enumerate(dual_ranks)
                       if bin(i).count("1") - rank == r)
                   for r in range(code.k + 1)]
        got = [ghw_from_dual_rank(code, r) for r in range(code.k + 1)]
        assert got == witness == want


def test_dual_generator_e0(e0):
    h = dual_generator_matrix(e0)
    assert h.rows == 1 and h.cols == 3
    assert h.entries[0] == (1, 1, 1)
    # dual codewords annihilate the primal generator rows
    spec = e0.spec
    for row in e0.matrix.entries:
        acc = spec.zero
        for a, b in zip(h.entries[0], row):
            acc = spec.add(acc, spec.mul(a, b))
        assert acc == spec.zero


def test_dual_generator_orthogonality_random(rng):
    for _ in range(15):
        code = random_code_any(rng, max_k=3, max_n=7)
        if code.n == code.k:
            continue
        h = dual_generator_matrix(code)
        assert h.rows == code.n - code.k
        assert VectorMatroid(h).full_rank == code.n - code.k
        spec = code.spec
        for drow in h.entries:
            for grow in code.matrix.entries:
                acc = spec.zero
                for a, b in zip(drow, grow):
                    acc = spec.add(acc, spec.mul(a, b))
                assert acc == spec.zero


def test_dual_generator_is_the_systematic_form(rng):
    # one row per non-pivot column q of RREF(G): 1 at q, minus RREF(G)'s
    # column q at the pivots, built from the test-only elimination
    for _ in range(30):
        code = random_code_any(rng, max_k=4, max_n=8, fields=FIELDS + [QQ])
        spec = code.spec
        reduced, _, pivots = oracle_rref(code.matrix)
        rows = []
        for q in (j for j in range(code.n) if j not in pivots):
            v = [spec.zero] * code.n
            v[q] = spec.one
            for i, p in enumerate(pivots):
                v[p] = spec.neg(reduced.entries[i][q])
            rows.append(tuple(v))
        h = dual_generator_matrix(code)
        assert h.entries == tuple(rows) and h.cols == code.n


def test_wei_duality_e0(e0):
    holds, primal, rhs, dual_d = wei_duality_check(e0)
    assert holds
    assert primal == rhs == [2, 3]
    assert dual_d == [3]


def test_wei_duality_b3(b3):
    holds, primal, rhs, dual_d = wei_duality_check(b3)
    assert holds
    assert primal == rhs == [5, 8, 9]
    assert len(dual_d) == 6


def test_wei_duality_identity_code():
    code = LinearCode(ExactMatrix.from_rows(GF(2), [[1, 0], [0, 1]]))
    holds, primal, rhs, dual_d = wei_duality_check(code)
    assert holds
    assert primal == rhs == [1, 2]
    assert dual_d == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_wei_duality_random(seed):
    rng = random.Random(seed)
    code = random_code_any(rng, max_k=3, max_n=7)
    holds, _, _, _ = wei_duality_check(code)
    assert holds


@st.composite
def codes_with_parallel_classes(draw):
    """A code over GF(2), GF(3), GF(5) or Q whose columns, shuffled, are
    the unit vectors, up to three random nonzero columns and one to four
    scaled copies of those: each planted parallel class of the code is a
    series class of its dual matroid, of size 2 or more."""
    spec = draw(st.sampled_from(FIELDS + [QQ]))
    if spec.kind == "gf":
        entry = st.integers(0, spec.modulus - 1).map(spec.coerce)
    else:
        entry = st.fractions(-3, 3, max_denominator=3).map(spec.coerce)
    unit = entry.filter(bool)
    k = draw(st.integers(1, 3))
    base = [[spec.one if i == j else spec.zero for i in range(k)]
            for j in range(k)]
    base += draw(st.lists(st.lists(entry, min_size=k, max_size=k).filter(
        any), max_size=3))
    copies = [spec.scale(draw(unit), draw(st.sampled_from(base)))
              for _ in range(draw(st.integers(1, 4)))]
    cols = draw(st.permutations(base + copies))
    return LinearCode(ExactMatrix.from_rows(
        spec, [[col[i] for col in cols] for i in range(k)]))


@settings(max_examples=80, deadline=None)
@given(codes_with_parallel_classes())
def test_tutte_duality_through_the_dual_generator(code):
    # T(H) by deletion-contraction on the dual generator matrix H is the
    # code's T by subset sum with x and y swapped
    t = tutte_subset_sum(code.matroid)
    dual = tutte_deletion_contraction(
        VectorMatroid(dual_generator_matrix(code)))
    assert dual.terms == {(j, i): c for (i, j), c in t.terms.items()}


def dual_hierarchy_by_rank_table(code):
    """d_1..d_{n-k} of the dual code from the rank-size counts of the
    dual matroid, the route wei_duality_check took before."""
    if code.n == code.k:
        return []
    dual = VectorMatroid(dual_generator_matrix(code))
    return [_ghw_bruteforce_matroid(dual, s)
            for s in range(1, code.n - code.k + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_dual_hierarchy_matches_dual_rank_table(seed):
    rng = random.Random(seed)
    code = random_code_any(rng, max_k=4, max_n=9, fields=FIELDS + [QQ])
    holds, _, _, dual_d = wei_duality_check(code)
    assert holds
    assert dual_d == dual_hierarchy_by_rank_table(code)


@pytest.mark.parametrize("spec", FIELDS + [QQ],
                         ids=lambda spec: str(spec.modulus or "q"))
def test_dual_hierarchy_with_coloop_and_square_code(spec):
    # column 3 is a coloop, so the dual generator has a zero column there
    code = LinearCode(ExactMatrix.from_rows(
        spec, [[1, 0, 1, 0, 1], [0, 1, 1, 0, 2], [0, 0, 0, 1, 0]]))
    h = dual_generator_matrix(code)
    assert all(x == spec.zero for x in h.column(3))
    holds, _, _, dual_d = wei_duality_check(code)
    assert holds
    assert dual_d == dual_hierarchy_by_rank_table(code)
    square = LinearCode(ExactMatrix.from_rows(
        spec, [[1, 0, 0], [1, 1, 0], [0, 2, 1]]))
    assert wei_duality_check(square) == (True, [1, 2, 3], [1, 2, 3], [])


def test_subcode_from_flat_e0(e0):
    f = [f for f in e0.matroid.flats_of_rank(1) if f.members == mask(2)][0]
    sub = subcode_from_flat(e0, f)
    assert sub.basis == ((1, 1, 0),)
    assert sub.support == mask(0, 1)
    assert sub.support_size == 2
    assert sub.dim == 1


def test_subcode_from_flat_b3(b3):
    f = [f for f in b3.matroid.flats_of_rank(2)
         if f.members == mask(0, 1, 3, 4)][0]
    sub = subcode_from_flat(b3, f)
    assert sub.dim == 1
    assert sub.support == mask(2, 5, 6, 7, 8)
    assert sub.support_size == 5


def test_subcode_support_misses_flat(rng):
    # a subcode built from a flat vanishes exactly on the flat's columns
    for _ in range(10):
        code = random_code_any(rng, max_k=3, max_n=7)
        for s in range(code.k):
            for f in code.matroid.flats_of_rank(s):
                sub = subcode_from_flat(code, f)
                assert sub.support & f.members == 0
                assert sub.dim == code.k - s


def test_subcode_from_nonflat_rejected(e0):
    from starconfig.matroid import Flat
    with pytest.raises(ExactArithError):
        subcode_from_flat(e0, Flat(mask(0, 1), 2))  # closure adds column 3
    full = e0.matroid.flats_of_rank(2)[0]
    with pytest.raises(ExactArithError):
        subcode_from_flat(e0, full)


def test_minimal_support_counts(e0, b3):
    assert minimal_support_subcode_count(e0, shifted(e0), 1) == 3
    assert minimal_support_subcode_count(e0, shifted(e0), 2) == 1
    c_b3 = shifted(b3)
    assert minimal_support_subcode_count(b3, c_b3, 1) == 3
    # every single column is a rank-1 flat, so nine minimal 2-dim subcodes
    assert minimal_support_subcode_count(b3, c_b3, 2) == 9
    assert minimal_support_subcode_count(b3, c_b3, 3) == 1
    with pytest.raises(ExactArithError):
        minimal_support_subcode_count(e0, shifted(e0), 0)


def test_minimal_support_count_matches_enumeration(rng):
    # c_{r, p_r} equals the number of corank-r subsets of maximal size
    # that are flats, i.e. supports of minimal r-dimensional subcodes
    for _ in range(8):
        code = random_code_any(rng, max_k=3, max_n=6, fields=FIELDS)
        coeffs = shifted(code)
        m = code.matroid
        for r in range(1, code.k + 1):
            d_r = ghw_bruteforce(code, r)
            count = sum(1 for f in m.flats_of_rank(code.k - r)
                        if f.size == code.n - d_r)
            assert minimal_support_subcode_count(code, coeffs, r) == count


def greene_code(spec, k, n, seed):
    """A random [n, k] code over spec with a parallel pair (its column
    n - 2 is -1 times column 0) and a coloop (column n - 1)."""
    rng = random.Random(seed)
    base = random_code(rng, k - 1, n - 2, spec).matrix.entries
    rows = [list(row) + [spec.neg(row[0]), 0] for row in base]
    rows.append([0] * (n - 1) + [1])
    return LinearCode(ExactMatrix.from_rows(spec, rows))


def codeword_weights(code) -> list:
    """The weight of every codeword, by enumerating the messages."""
    p = code.spec.modulus
    cols = code.matrix.columns()
    return [sum(1 for col in cols
                if sum(a * b for a, b in zip(message, col)) % p)
            for message in product(range(p), repeat=code.k)]


@pytest.mark.parametrize("p, k, n, seed", [
    (2, 4, 9, 1), (2, 10, 14, 2), (3, 3, 8, 3), (3, 6, 11, 4),
    (5, 3, 7, 5), (5, 4, 9, 6), (7, 3, 8, 7), (7, 4, 6, 8),
])
def test_greene_identity(p, k, n, seed):
    # W_C(x, y) = y^(n-k) (x-y)^k T((x + (q-1) y) / (x - y), x / y), with T
    # from either engine, and d_1 is the least nonzero weight (Greene,
    # Stud. Appl. Math. 1976); the q^k <= 4096 codewords are enumerated
    code = greene_code(GF(p), k, n, seed)
    assert code.k == k and p ** k <= 4096
    weights = codeword_weights(code)
    engines = (tutte_subset_sum(code.matroid),
               tutte_deletion_contraction(code.matroid))
    for x, y in [(2, 1), (3, -1), (5, 2), (-4, 3), (7, 11)]:
        enumerator = sum(x ** (n - w) * y ** w for w in weights)
        tx, ty = Fraction(x + (p - 1) * y, x - y), Fraction(x, y)
        for t in engines:
            value = sum(c * tx ** i * ty ** j for (i, j), c in t.terms.items())
            assert y ** (n - k) * (x - y) ** k * value == enumerator
    assert weight_hierarchy(code).d[1] == min(w for w in weights if w)
