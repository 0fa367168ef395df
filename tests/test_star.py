import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig.codes import (LinearCode, WeightHierarchy, ghw_from_tutte,
                              weight_hierarchy)
from starconfig.fields import GF, ExactArithError, ExactMatrix
from starconfig.star import (binomial_identity_check, degree_from_primes,
                             degree_from_tutte, full_profile,
                             minimal_primes_low_height, mu_of_ideal)
from starconfig.tutte import (tutte_deletion_contraction, tutte_subset_sum,
                              whitney_shift)

from conftest import random_code, random_code_any


def mask(*indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def invariants(code):
    coeffs = whitney_shift(tutte_subset_sum(code.matroid), code.k)
    return coeffs, weight_hierarchy(code)


def heights(code):
    """k - r for each a = 1..n, as full_profile reports it."""
    return [p.height for p in full_profile(code, *invariants(code))]


def test_heights_e0(e0):
    assert heights(e0) == [2, 2, 1]
    # a outside (d_0, d_k] lies in no height interval
    _, h = invariants(e0)
    with pytest.raises(ExactArithError):
        h.interval_index(0)
    with pytest.raises(ExactArithError):
        h.interval_index(4)


def test_heights_b3(b3):
    assert heights(b3) == [3, 3, 3, 3, 3, 2, 2, 2, 1]


def test_degrees_e0(e0):
    coeffs, h = invariants(e0)
    assert [degree_from_tutte(e0, coeffs, h, a) for a in (1, 2, 3)] \
        == [1, 3, 3]


def test_degrees_b3(b3):
    coeffs, h = invariants(b3)
    degrees = [degree_from_tutte(b3, coeffs, h, a) for a in range(1, 10)]
    assert degrees == [1, 4, 10, 20, 35, 3, 13, 36, 9]


def test_mu_e0(e0):
    coeffs, _ = invariants(e0)
    assert [mu_of_ideal(e0, coeffs, a) for a in (1, 2, 3)] == [2, 3, 1]


def test_mu_b3(b3):
    coeffs, _ = invariants(b3)
    mus = [mu_of_ideal(b3, coeffs, a) for a in range(1, 10)]
    assert mus == [3, 6, 10, 15, 21, 25, 23, 9, 1]


def test_primes_e0(e0):
    _, h = invariants(e0)
    # a below d_1: the ideal is a power of the irrelevant maximal ideal
    p1 = minimal_primes_low_height(e0, h, 1)
    assert len(p1) == 1
    assert p1[0].flat.members == mask(0, 1, 2)
    assert (p1[0].nu, p1[0].exponent) == (3, 1)
    # a = 3: every single column gives a height-1 prime with exponent 1
    p3 = minimal_primes_low_height(e0, h, 3)
    assert sorted(p.flat.members for p in p3) == [mask(0), mask(1), mask(2)]
    assert all(p.exponent == 1 and p.nu == 1 for p in p3)


def test_primes_b3(b3):
    _, h = invariants(b3)
    big = [mask(0, 1, 3, 4), mask(0, 2, 5, 6), mask(1, 2, 7, 8)]

    p6 = minimal_primes_low_height(b3, h, 6)
    assert sorted(p.flat.members for p in p6) == big
    assert all(p.nu == 4 and p.exponent == 1 for p in p6)

    p7 = minimal_primes_low_height(b3, h, 7)
    by_size = {4: [], 3: []}
    for p in p7:
        by_size[p.flat.size].append(p)
    assert sorted(p.flat.members for p in by_size[4]) == big
    assert all(p.exponent == 2 for p in by_size[4])
    assert len(by_size[3]) == 4
    assert all(p.exponent == 1 for p in by_size[3])
    assert degree_from_primes(b3, h, p7, 7) == 13

    p9 = minimal_primes_low_height(b3, h, 9)
    assert sorted(p.flat.members for p in p9) == [1 << i for i in range(9)]
    assert all(p.nu == 1 and p.exponent == 1 for p in p9)


def test_degree_from_primes_rejects_irrelevant_case(e0):
    _, h = invariants(e0)
    primes = minimal_primes_low_height(e0, h, 1)
    with pytest.raises(ExactArithError):
        degree_from_primes(e0, h, primes, 1)


def test_identity_code_profiles():
    k = 4
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    code = LinearCode(ExactMatrix.from_rows(GF(3), rows))
    coeffs, h = invariants(code)
    assert h.d == (0, 1, 2, 3, 4)
    assert heights(code) == [k - a + 1 for a in range(1, k + 1)]
    for a in range(1, k + 1):
        assert degree_from_tutte(code, coeffs, h, a) == comb(k, a - 1)
        # squarefree monomials of degree a generate the a-fold product
        assert mu_of_ideal(code, coeffs, a) == comb(k, a)


def test_exponent_law(rng):
    for _ in range(10):
        code = random_code_any(rng, max_k=3, max_n=7)
        _, h = invariants(code)
        for a in range(1, code.n + 1):
            for p in minimal_primes_low_height(code, h, a):
                assert p.exponent == a - code.n + p.nu
                assert p.exponent >= 1


def test_primes_monotone_within_interval(rng):
    # inside one height interval the set of minimal-prime flats only grows
    for _ in range(10):
        code = random_code_any(rng, max_k=3, max_n=7)
        _, h = invariants(code)
        for a in range(1, code.n):
            if h.interval_index(a) != h.interval_index(a + 1):
                continue
            now = {p.flat.members
                   for p in minimal_primes_low_height(code, h, a)}
            nxt = {p.flat.members
                   for p in minimal_primes_low_height(code, h, a + 1)}
            assert now <= nxt


def test_prime_count_at_interval_start(rng):
    # at a = d_r + 1 the primes are exactly the minimal-support subcodes,
    # and there are c_{r, p_r} of those
    for _ in range(10):
        code = random_code_any(rng, max_k=3, max_n=7)
        coeffs, h = invariants(code)
        for r in range(1, code.k + 1):
            a = h.d[r] + 1
            if a > code.n:
                continue
            primes = minimal_primes_low_height(code, h, a)
            assert len(primes) == coeffs.coeff(r, coeffs.p[r])


def test_binomial_identity():
    assert binomial_identity_check(5, 3, 2)
    assert binomial_identity_check(2, 1, 1)
    assert binomial_identity_check(9, 8, 3)
    with pytest.raises(ExactArithError):
        binomial_identity_check(3, 3, 1)   # need alpha > beta
    with pytest.raises(ExactArithError):
        binomial_identity_check(5, 2, 3)   # need beta >= gamma
    with pytest.raises(ExactArithError):
        binomial_identity_check(5, 3, 0)   # need gamma >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
def test_binomial_identity_random(alpha, beta, gamma):
    if not alpha > beta >= gamma >= 1:
        return
    assert binomial_identity_check(alpha, beta, gamma)


def test_full_profile_examples(e0, b3):
    for code in (e0, b3):
        coeffs, h = invariants(code)
        profiles = full_profile(code, coeffs, h)
        assert [p.a for p in profiles] == list(range(1, code.n + 1))
        for p in profiles:
            assert p.height == code.k - p.r
            assert p.j == p.a - h.d[p.r]
            assert p.irrelevant_power == (p.r == 0)
            doc = p.to_json()
            assert doc["degree"] == str(p.degree)
            assert "unknown" in doc["residual"]
            for rec in doc["primes"]:
                assert min(rec["flat"]) >= 1  # 1-indexed columns


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_full_profile_cross_checks_random(seed):
    # full_profile raises if the two degree routes ever disagree
    rng = random.Random(seed)
    code = random_code_any(rng, max_k=3, max_n=7)
    coeffs, h = invariants(code)
    full_profile(code, coeffs, h)


@pytest.mark.parametrize("k, spec", [(3, GF(2)), (2, GF(3))])
def test_queries_past_24_columns_need_no_earlier_query(k, spec):
    # the library caps no ground-set size: on a fresh [30,k] code each
    # exhaustive query runs the span-join pass itself, with the results of
    # a code whose pass ran first
    code = random_code(random.Random(30), k, 30, spec)

    def fresh():
        return LinearCode(code.matrix)

    shifted = whitney_shift(tutte_deletion_contraction(fresh().matroid), k)
    hierarchy = weight_hierarchy(fresh())
    assert hierarchy == WeightHierarchy(tuple(
        ghw_from_tutte(shifted, code, r) for r in range(k + 1)))
    profiles = full_profile(fresh(), shifted, hierarchy)
    assert [p.a for p in profiles] == list(range(1, 31))
    flats = fresh().matroid.flats_of_rank(1)
    assert sum(f.size for f in flats) == 30  # the parallel classes
    assert tutte_subset_sum(fresh().matroid) == tutte_deletion_contraction(
        fresh().matroid)
    assert (full_profile(code, shifted, weight_hierarchy(code)) == profiles
            and code.matroid.flats_of_rank(1) == flats)
