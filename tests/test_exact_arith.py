import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig.fields import (GF, QQ, ExactArithError, ExactMatrix,
                               FieldSpec, is_prime, primitive, rref)

from conftest import random_matrix
from crosscheck import field_add, left_kernel_basis


def column_rank(m: ExactMatrix, cols) -> int:
    """Rank of the submatrix on the selected columns; 0 for the empty set."""
    return rref(m.submatrix_cols(cols))[1]


def test_field_spec_validation():
    GF(2)
    GF(7)
    with pytest.raises(ExactArithError):
        FieldSpec("gf", 4)
    with pytest.raises(ExactArithError):
        FieldSpec("gf", 1)
    with pytest.raises(ExactArithError):
        FieldSpec("gf", None)
    with pytest.raises(ExactArithError):
        FieldSpec("weird")
    with pytest.raises(ExactArithError):
        FieldSpec("q", 5)
    with pytest.raises(ExactArithError):
        FieldSpec("gf", 1 << 65)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, (1 << 61) - 1}
    for p in primes:
        assert is_prime(p)
    for c in (0, 1, 4, 9, 91, 1 << 20):
        assert not is_prime(c)


def test_gf_arithmetic_canonical():
    f5 = GF(5)
    assert f5.coerce(-1) == 4
    assert field_add(f5, 3, 4) == 2
    assert f5.mul(f5.inv(3), 3) == 1
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == f5.div(1, 2)


def test_denominator_divisible_by_p_has_no_value():
    with pytest.raises(ExactArithError, match="denominator"):
        GF(5).coerce(Fraction(1, 10))
    with pytest.raises(ExactArithError, match="denominator"):
        ExactMatrix.from_rows(GF(5), [[Fraction(1, 10)]])
    with pytest.raises(ExactArithError, match="denominator"):
        GF(5).parse("1/5")
    assert GF(5).coerce(Fraction(10, 5)) == 2  # 10/5 reduces to 2


@pytest.mark.parametrize("spec", [GF(5), QQ], ids=["gf5", "q"])
def test_coerce_takes_only_exact_scalars(spec):
    # GF(5) would truncate 1.9 to 1, and Q would take 0.1 as the binary
    # fraction nearest it
    for x in (1.9, 0.1, 2.0, np.float64(3.0), np.float32(0.5)):
        with pytest.raises(ExactArithError, match="not an exact scalar"):
            ExactMatrix.from_rows(spec, [[1, x]])
        with pytest.raises(ExactArithError, match="not an exact scalar"):
            spec.coerce(x)
    # ints, numpy ints and Fractions stay exact; a numpy int becomes a
    # Python int, which cannot wrap around
    big = np.int64(2**62)
    m = ExactMatrix.from_rows(spec, [[np.int64(7), True, Fraction(3, 2), big]])
    assert m.entries == ((spec.coerce(7), spec.one,
                          spec.coerce(Fraction(3, 2)), spec.coerce(2**62)),)
    assert {type(x) for x in m.entries[0]} == {type(spec.one)}
    assert spec.mul(m.entries[0][3], m.entries[0][3]) == spec.coerce(2**124)


def test_rational_arithmetic_canonical():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_rref_already_echelon():
    m = ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]])
    reduced, rank, pivots = rref(m)
    assert rank == 2
    assert pivots == (0, 1)
    assert reduced == m


def test_rref_zero_matrix():
    m = ExactMatrix.from_rows(GF(3), [[0, 0, 0], [0, 0, 0]])
    _, rank, pivots = rref(m)
    assert rank == 0
    assert pivots == ()


def test_rref_of_zero_rows_keeps_the_columns():
    m = ExactMatrix.from_rows(GF(5), [], cols=6)
    reduced, rank, pivots = rref(m)
    assert (reduced.rows, reduced.cols, rank, pivots) == (0, 6, 0, ())
    assert reduced == m


def test_rref_b3_rank():
    rows = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, -1, 0, 0, 1, 1],
            [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    m = ExactMatrix.from_rows(GF(5), rows)
    _, rank, _ = rref(m)
    assert rank == 3


def test_column_rank_examples():
    e0 = ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]])
    assert column_rank(e0, [0, 1, 2]) == 2
    assert column_rank(e0, []) == 0
    rows = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, -1, 0, 0, 1, 1],
            [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    b3 = ExactMatrix.from_rows(GF(5), rows)
    assert column_rank(b3, [0, 1, 3, 4]) == 2


def test_column_rank_out_of_range():
    m = ExactMatrix.from_rows(GF(2), [[1, 0], [0, 1]])
    with pytest.raises(ExactArithError):
        column_rank(m, [5])


def test_left_kernel_examples():
    e0 = ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]])
    assert left_kernel_basis(e0, [0, 1]) == []
    assert left_kernel_basis(e0, [2]) == [(1, 1)]
    assert left_kernel_basis(e0, []) == [(1, 0), (0, 1)]


def test_primitive_rows():
    assert primitive([4, -6, 0]) == [2, -3, 0]
    assert primitive([0, 0]) == [0, 0] and primitive([]) == []
    assert primitive([Fraction(1, 2), Fraction(-3, 4)]) == [2, -3]
    assert primitive([Fraction(6), Fraction(-4)]) == [3, -2]
    assert primitive([Fraction(0), Fraction(0)]) == [0, 0]


def test_rref_idempotent_random(rng):
    for _ in range(30):
        spec = rng.choice([GF(2), GF(3), GF(5), QQ])
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6), spec)
        reduced, rank, pivots = rref(m)
        again, rank2, pivots2 = rref(reduced)
        assert again == reduced
        assert (rank, pivots) == (rank2, pivots2)


def test_kernel_dimension_law(rng):
    for _ in range(40):
        spec = rng.choice([GF(2), GF(3), GF(5), QQ])
        k, n = rng.randint(1, 4), rng.randint(1, 6)
        m = random_matrix(rng, k, n, spec)
        cols = [j for j in range(n) if rng.random() < 0.5]
        assert len(left_kernel_basis(m, cols)) + column_rank(m, cols) == k
        # basis vectors really annihilate the chosen columns
        for v in left_kernel_basis(m, cols):
            for j in cols:
                col = m.column(j)
                acc = spec.zero
                for vi, gij in zip(v, col):
                    acc = field_add(spec, acc, spec.mul(vi, gij))
                assert acc == spec.zero


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 6))
def test_rank_monotone_submodular(seed, k, n):
    rng = random.Random(seed)
    spec = rng.choice([GF(2), GF(3), GF(5)])
    m = random_matrix(rng, k, n, spec)
    subsets = [sorted(rng.sample(range(n), rng.randint(0, n)))
               for _ in range(4)]
    for i_set in subsets:
        for j_set in subsets:
            union = sorted(set(i_set) | set(j_set))
            inter = sorted(set(i_set) & set(j_set))
            ri, rj = column_rank(m, i_set), column_rank(m, j_set)
            assert column_rank(m, union) + column_rank(m, inter) <= ri + rj
            if set(i_set) <= set(j_set):
                assert ri <= rj


def test_rank_agrees_rationals_vs_large_prime(rng):
    # randomized consistency: rank over Q matches rank over a large prime
    big = GF((1 << 31) - 1)
    for _ in range(20):
        k, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        mq = ExactMatrix.from_rows(QQ, rows)
        mp = ExactMatrix.from_rows(big, rows)
        _, rank_q, _ = rref(mq)
        _, rank_p, _ = rref(mp)
        assert rank_q == rank_p
