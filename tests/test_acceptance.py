"""Acceptance gate: nine criteria, one printed pass/fail line each.

Every comparison is exact (integer / finite-field arithmetic throughout);
the only tolerances are wall-clock budgets.
"""

import random
import time
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from starconfig.codes import (LinearCode, ghw_bruteforce, ghw_from_dual_rank,
                              ghw_from_tutte, weight_hierarchy,
                              wei_duality_check)
from starconfig.fields import GF, ExactMatrix
from starconfig.hilbert import (GradedIdealEngine, _echelon_mod_p,
                                _afold_from_columns, colon_dim_from_engine,
                                default_windows, fit_graded_quotient,
                                fit_hilbert_polynomial, ideal_engine,
                                monomials, mu_oracle, ring_dim)
from starconfig.star import (full_profile, minimal_primes_low_height,
                             mu_of_ideal)
from starconfig.tutte import (BivarPoly, tutte_deletion_contraction,
                              tutte_subset_sum, whitney_shift)

from conftest import deleted_engine, random_code
from crosscheck import is_coloop, poly_from_dict

SEED = 0xACCE97
FIELDS = [GF(2), GF(3), GF(5)]


def _report(num: int, desc: str, ok: bool, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def codes200():
    rng = random.Random(SEED)
    out = []
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(k, 12)
        out.append(random_code(rng, k, n, rng.choice(FIELDS)))
    return out


@pytest.fixture(scope="module")
def codes50():
    rng = random.Random(SEED + 1)
    out = []
    for _ in range(50):
        k = rng.randint(1, 4)
        n = rng.randint(k, 9)
        out.append(random_code(rng, k, n, rng.choice(FIELDS)))
    return out


@pytest.fixture(scope="module")
def profiles50(codes50):
    out = []
    for code in codes50:
        shifted = whitney_shift(tutte_subset_sum(code.matroid), code.k)
        hierarchy = weight_hierarchy(code)
        out.append((code, shifted, hierarchy,
                    full_profile(code, shifted, hierarchy)))
    return out


def test_criterion_1_example_reproduction():
    t0 = time.monotonic()
    code = LinearCode(ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]]),
                      ["x1", "x2", "x1+x2"])
    tutte = tutte_subset_sum(code.matroid)
    shifted = whitney_shift(tutte, code.k)
    hierarchy = weight_hierarchy(code)
    profiles = full_profile(code, shifted, hierarchy)
    primes3 = minimal_primes_low_height(code, hierarchy, 3)
    elapsed = time.monotonic() - t0
    ok = (tutte == BivarPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
          and shifted.c == {(2, 0): 1, (1, 0): 3, (0, 1): 1, (0, 0): 2}
          and hierarchy.d == (0, 2, 3)
          and [p.height for p in profiles] == [2, 2, 1]
          and profiles[2].mu == 1
          and sorted(p.flat.members for p in primes3) == [1, 2, 4]
          and all(p.exponent == 1 for p in primes3)
          and elapsed < 1.0)
    _report(1, "small example: Tutte, shift, weights, heights, mu, primes",
            ok, elapsed)


def test_criterion_2_b3_reproduction(b3):
    t0 = time.monotonic()
    shifted = whitney_shift(tutte_subset_sum(b3.matroid), b3.k)
    hierarchy = weight_hierarchy(b3)
    profiles = full_profile(b3, shifted, hierarchy)
    expected_shift = {(0, 6): 1, (0, 5): 3, (0, 4): 6, (0, 3): 10,
                      (0, 2): 15, (0, 1): 18, (0, 0): 15, (1, 2): 3,
                      (1, 1): 10, (1, 0): 23, (2, 0): 9, (3, 0): 1}
    ok = (shifted.c == expected_shift
          and hierarchy.d == (0, 5, 8, 9)
          and [p.height for p in profiles] == [3] * 5 + [2] * 3 + [1]
          and [p.degree for p in profiles]
          == [1, 4, 10, 20, 35, 3, 13, 36, 9]
          and [p.mu for p in profiles] == [3, 6, 10, 15, 21, 25, 23, 9, 1])
    # independent Hilbert oracle, over its own default windows
    for p in profiles:
        fit = fit_hilbert_polynomial(b3, p.a)
        ok &= (fit.degree_invariant == p.degree
               and fit.implied_height == p.height
               and mu_oracle(b3, p.a) == p.mu)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(2, "rank-3 root-system code over GF(5) with Hilbert oracle",
            ok, elapsed)


def test_criterion_3_engine_equivalence(codes200):
    t0 = time.monotonic()
    ok = all(tutte_subset_sum(c.matroid)
             == tutte_deletion_contraction(c.matroid) for c in codes200)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _report(3, "subset-sum vs deletion-contraction on 200 random matrices",
            ok, elapsed)


def test_criterion_4_ghw_routes_and_duality(codes200):
    t0 = time.monotonic()
    ok = True
    for code in codes200:
        shifted = whitney_shift(tutte_subset_sum(code.matroid), code.k)
        # weight_hierarchy validates monotonicity and d_r <= n-k+r
        hierarchy = weight_hierarchy(code)
        for r in range(code.k + 1):
            d = hierarchy.d[r]
            ok &= (ghw_bruteforce(code, r) == d
                   and ghw_from_tutte(shifted, code, r) == d
                   and ghw_from_dual_rank(code, r) == d)
        holds, _, _, _ = wei_duality_check(code)
        ok &= holds
    elapsed = time.monotonic() - t0
    _report(4, "triple-route weight hierarchy + Wei duality on 200 codes",
            ok, elapsed)


def test_criterion_5_degree_oracle(profiles50):
    t0 = time.monotonic()
    ok = True
    for code, shifted, hierarchy, profiles in profiles50:
        # full_profile already cross-checked the coefficient-sum and
        # prime-sum degree routes; compare both against the Hilbert fit
        for p in profiles:
            fit = fit_hilbert_polynomial(code, p.a)
            ok &= (fit.degree_invariant == p.degree
                   and fit.implied_height == p.height)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    _report(5, "Tutte degree = prime-sum degree = Hilbert degree, 50 codes",
            ok, elapsed)


def test_criterion_6_mu_oracle(profiles50):
    t0 = time.monotonic()
    ok = True
    for code, shifted, _, profiles in profiles50:
        for p in profiles:
            ok &= (mu_of_ideal(code, shifted, p.a)
                   == mu_oracle(code, p.a) == p.mu)
    elapsed = time.monotonic() - t0
    _report(6, "mu coefficient formula = generator-span rank, 50 codes",
            ok, elapsed)


def test_criterion_7_binomial_identity():
    from starconfig.star import binomial_identity_check
    t0 = time.monotonic()
    ok = all(binomial_identity_check(alpha, beta, gamma)
             for alpha in range(2, 15)
             for beta in range(1, alpha)
             for gamma in range(1, beta + 1))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(7, "alternating binomial identity, exhaustive to alpha = 14",
            ok, elapsed)


def test_criterion_8_proved_colon_slices(codes50):
    t0 = time.monotonic()
    ok = True
    # degree-(a-1) colon equality on a random subsample
    for code in codes50[:15]:
        for a in range(2, code.n + 1):
            engine = ideal_engine(code, a)
            for ell in range(code.n):
                lhs = colon_dim_from_engine(engine, code.matrix.column(ell),
                                            a - 1)
                rhs = deleted_engine(code, ell, a - 1).ideal_dim(a - 1)
                ok &= lhs == rhs
    # full coloop equality in every sampled degree
    code = LinearCode(ExactMatrix.from_rows(
        GF(3), [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]))
    ell = 3
    ok &= is_coloop(code.matroid, ell)
    for a in range(2, code.n + 1):
        engine = ideal_engine(code, a)
        deleted = deleted_engine(code, ell, a - 1)
        for t in range(a - 1, a + 4):
            lhs = colon_dim_from_engine(engine, code.matrix.column(ell), t)
            ok &= lhs == deleted.ideal_dim(t)
    elapsed = time.monotonic() - t0
    _report(8, "proved colon slices (t = a-1 always; coloop everywhere)",
            ok, elapsed)


# -- criterion 9 helpers -----------------------------------------------------

def _linear_prime_power_engine(spec, k, forms, power):
    """Engine for (the power of) the ideal generated by the given
    independent linear forms (each a length-k coefficient vector)."""
    gens = [_afold_from_columns(spec, k, list(combo), power)
            for combo in combinations_with_replacement(forms, power)]
    return GradedIdealEngine(spec, k, {power: np.concatenate(gens)})


def _intersect_row_spaces(mats, p):
    """Echelon basis of the intersection of the row spaces (Zassenhaus)."""
    acc = mats[0]
    for other in mats[1:]:
        m = acc.shape[1]
        top = np.hstack([acc, acc])
        bot = np.hstack([other, np.zeros_like(other)])
        ech = _echelon_mod_p(np.vstack([top, bot]), p)
        zero_left = ~ech[:, :m].any(axis=1)
        acc = _echelon_mod_p(ech[zero_left][:, m:], p)
    return acc


def test_criterion_9_prime_power_degrees():
    t0 = time.monotonic()
    spec = GF(7)
    ok = True
    # powers of a monomial linear prime: degree C(c+i-1, c)
    for k in range(2, 6):
        for c in range(1, min(3, k - 1) + 1):
            for i in range(1, 5):
                gens = {i: [poly_from_dict(spec, k, i, {m: 1})
                            for mono in monomials(c, i)
                            for m in [tuple(mono) + (0,) * (k - c)]]}
                engine = GradedIdealEngine(spec, k, gens)
                lo, his = default_windows(i, k)
                fit = fit_graded_quotient(k, engine.quotient_dim, i, lo, his)
                ok &= (fit.implied_height == c
                       and fit.degree_invariant == comb(c + i - 1, c))
    # degree additivity over three distinct height-2 linear primes in
    # four variables (pairwise sums have full height)
    spec5 = GF(5)
    k = 4
    prime_forms = [
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(0, 0, 1, 0), (0, 0, 0, 1)],
        [(1, 0, 1, 0), (0, 1, 0, 1)],
    ]
    for powers in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)]:
        for count in (2, 3):
            engines = [
                _linear_prime_power_engine(spec5, k, forms, i)
                for forms, i in zip(prime_forms[:count], powers[:count])]
            top = max(powers[:count])

            def hf(t):
                bases = [e.basis(t) for e in engines]
                if any(len(b) == 0 for b in bases):
                    return ring_dim(k, t)
                inter = _intersect_row_spaces(bases, spec5.modulus)
                return ring_dim(k, t) - len(inter)

            lo, his = default_windows(top, k)
            fit = fit_graded_quotient(k, hf, top, lo, his)
            expected = sum(comb(2 + i - 1, 2) for i in powers[:count])
            ok &= (fit.implied_height == 2
                   and fit.degree_invariant == expected)
    elapsed = time.monotonic() - t0
    _report(9, "linear prime power degrees and intersection additivity",
            ok, elapsed)
