import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig import hilbert, matroid, tutte
from starconfig.codes import LinearCode, weight_hierarchy
from starconfig.fields import (GF, QQ, CapExceeded, ExactArithError,
                               ExactMatrix)
from starconfig.hilbert import (_NUMPY_P_CAP, DensePoly, GradedIdealEngine,
                                PersistentHF, WindowError, _echelon_int,
                                _echelon_mod_p, _interpolate,
                                _linear_multiplication_rows, _mult_map,
                                _sub_mul_mod_p, afold_generators,
                                colon_dim_from_engine, colon_dim_reference,
                                colon_dims, colon_graded_dim,
                                conjecture_report,
                                deleted_generators, deleted_ideal_engine,
                                default_windows, fit_graded_quotient,
                                fit_hilbert_polynomial, graded_dim_ideal,
                                ideal_engine, macaulay_bound,
                                monomial_index, monomials, mu_oracle,
                                render_conjecture_matrix, ring_dim)
from starconfig.matroid import VectorMatroid
from starconfig.star import (degree_from_tutte, height_of_ideal, mu_of_ideal)
from starconfig.tutte import tutte_subset_sum, whitney_shift

from conftest import FIELDS, random_code, random_code_any

P_BELOW = (1 << 31) - 1   # largest prime below the numpy cap
P_ABOVE = (1 << 31) + 11  # smallest prime above it
ORACLE_FIELDS = [GF(2), GF(5), GF(7), GF(P_BELOW), QQ]


def echelon_oracle(rows, spec):
    """Row echelon form by FieldSpec arithmetic (Fractions over Q), kept as
    the reference for the integer kernel; nonzero rows sorted by pivot."""
    zero = spec.zero
    out = []
    for row in rows:
        if len(out) == len(row):
            break  # the rows found span every column
        v = [spec.coerce(x) for x in row]
        for piv, basis_row in out:
            c = v[piv]
            if c != zero:  # basis_row is zero before piv
                v[piv:] = [spec.sub(x, spec.mul(c, y))
                           for x, y in zip(v[piv:], basis_row[piv:])]
        piv = next((i for i, x in enumerate(v) if x != zero), None)
        if piv is not None:
            inv = spec.inv(v[piv])
            out.append((piv, [spec.mul(inv, x) for x in v]))
    out.sort()
    return [r for _, r in out]


def product_oracle(spec, k, columns) -> dict:
    """The exponent-tuple -> coefficient table of the nonzero terms of a
    product of linear forms, on FieldSpec arithmetic, as the products were
    expanded before they moved to native ints and Fractions."""
    acc = {(0,) * k: spec.one}
    zero = spec.zero
    for col in columns:
        nxt = {}
        for exps, c in acc.items():
            for i in range(k):
                ci = col[i]
                if ci == zero:
                    continue
                bumped = list(exps)
                bumped[i] += 1
                key = tuple(bumped)
                prev = nxt.get(key, zero)
                val = spec.add(prev, spec.mul(c, ci))
                if val == zero:
                    nxt.pop(key, None)
                else:
                    nxt[key] = val
        acc = nxt
    return acc


def assert_rref(rows, p):
    """rows (numpy) are nonzero RREF rows mod p: each pivot 1, its column
    otherwise zero, pivots strictly increasing; returns the pivots."""
    rows = np.asarray(rows)
    assert rows.dtype == np.int64
    assert ((0 <= rows) & (rows < p)).all()
    pivots = [int(np.flatnonzero(r)[0]) for r in rows]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert rows[i, c] == 1
        assert np.flatnonzero(rows[:, c]).tolist() == [i]
    return pivots


@st.composite
def row_lists(draw):
    """Rational rows with zero rows, duplicates and negated or scaled
    copies mixed in, in any order."""
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-4, 4),
                      st.fractions(-3, 3, max_denominator=6))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=6))
    for row in list(rows):
        kind = draw(st.sampled_from(["none", "zero", "dup", "neg", "half"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "dup":
            rows.append(list(row))
        elif kind == "neg":
            rows.append([-x for x in row])
        elif kind == "half":
            rows.append([Fraction(x) / 2 for x in row])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(row_lists(), st.sampled_from([None, 2, 7, P_ABOVE]))
def test_int_kernel_matches_fraction_oracle(rows, p):
    spec = QQ if p is None else GF(p)
    if p is not None:
        rows = [[Fraction(x).numerator for x in row] for row in rows]
    got = _echelon_int(rows, p)
    want = echelon_oracle(rows, spec)
    assert len(got) == len(want)
    # same row space: the oracle's rows add nothing to the kernel's
    assert len(echelon_oracle(got + want, spec)) == len(want)
    pivots = [next(i for i, x in enumerate(r) if x) for r in got]
    assert pivots == sorted(set(pivots))
    for row, piv in zip(got, pivots):
        assert all(type(x) is int for x in row)
        if p is None:
            assert row[piv] > 0 and gcd(*row) == 1
        else:
            assert row[piv] == 1 and all(0 <= x < p for x in row)


def test_monomials_graded_lex():
    assert monomials(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(2, 0) == ((0, 0),)
    assert len(monomials(3, 5)) == ring_dim(3, 5) == 21
    idx = monomial_index(2, 3)
    assert idx[(2, 1)] == 1


def test_ring_dim():
    assert ring_dim(2, 2) == 3
    assert ring_dim(3, 0) == 1
    assert ring_dim(3, -1) == 0
    assert ring_dim(1, 7) == 1


@st.composite
def column_lists(draw):
    """A field, k, and columns of length k over it, zeros included."""
    spec = draw(st.sampled_from(ORACLE_FIELDS + [GF(P_ABOVE)]))
    k = draw(st.integers(1, 4))
    if spec.kind == "q":
        entry = st.one_of(st.just(0), st.integers(-4, 4),
                          st.fractions(-3, 3, max_denominator=6))
    else:
        entry = st.one_of(st.just(0), st.integers(0, spec.modulus - 1))
    columns = draw(st.lists(st.lists(entry, min_size=k, max_size=k)
                            .map(lambda c: tuple(map(spec.coerce, c))),
                            max_size=5))
    return spec, k, columns


@settings(max_examples=200, deadline=None)
@given(column_lists())
def test_afold_product_matches_fieldspec_oracle(case):
    # the one a-fold product of a columns, coefficient by coefficient, each
    # of the field's own type
    spec, k, columns = case
    a = len(columns)
    gens = hilbert._afold_from_columns(spec, k, columns, a)
    assert len(gens) == 1
    want = product_oracle(spec, k, columns)
    got = {m: c for m, c in zip(monomials(k, a), gens[0].coeffs) if c}
    assert got == want
    assert {type(c) for c in gens[0].coeffs} == {type(spec.one)}


def test_afold_generators_e0(e0):
    gens1 = afold_generators(e0, 1)
    assert [g.coeffs for g in gens1] == [(1, 0), (0, 1), (1, 1)]
    gens3 = afold_generators(e0, 3)
    assert len(gens3) == 1
    # x1 * x2 * (x1 + x2) = x1^2 x2 + x1 x2^2 over GF(2)
    assert gens3[0].coeffs == (0, 1, 1, 0)
    with pytest.raises(ExactArithError):
        afold_generators(e0, 0)
    with pytest.raises(ExactArithError):
        afold_generators(e0, 4)


def test_dense_poly_validation():
    with pytest.raises(ExactArithError):
        DensePoly(GF(2), 2, 2, (1, 0))  # needs length 3
    p = DensePoly.from_dict(GF(3), 2, 2, {(2, 0): 4, (1, 1): 0})
    assert p.coeffs == (1, 0, 0)
    assert not p.is_zero()
    assert DensePoly.from_dict(QQ, 2, 1, {}).is_zero()


def test_graded_dims_e0(e0):
    gens = afold_generators(e0, 2)
    assert graded_dim_ideal(gens, 0) == 0
    assert graded_dim_ideal(gens, 1) == 0
    assert graded_dim_ideal(gens, 2) == 3  # all of R_2
    engine = GradedIdealEngine(e0.spec, e0.k, gens)
    for t in range(6):
        assert engine.ideal_dim(t) == graded_dim_ideal(gens, t)
        assert engine.quotient_dim(t) == ring_dim(2, t) - engine.ideal_dim(t)


def test_graded_dims_b3_a5(b3):
    # I_5 has finite colength 35 = 1 + 3 + 6 + 10 + 15, so degree 5 is full
    engine = ideal_engine(b3, 5)
    assert engine.ideal_dim(4) == 0
    assert engine.ideal_dim(5) == 21


def test_engine_matches_reference_random(rng):
    for fields in (FIELDS, [QQ]):
        for _ in range(6):
            code = random_code_any(rng, max_k=3, max_n=5, fields=fields)
            a = rng.randint(1, code.n)
            gens = afold_generators(code, a)
            engine = GradedIdealEngine(code.spec, code.k, gens)
            for t in range(a + 3):
                assert engine.ideal_dim(t) == graded_dim_ideal(gens, t)


@pytest.mark.parametrize("spec", [QQ, GF(P_ABOVE)], ids=["Q", "GF(2^31+11)"])
def test_engine_matches_fieldspec_oracle(rng, monkeypatch, spec):
    # the pure-Python kernel serves Q and primes at or above the numpy cap;
    # the reference is graded_dim_ideal's rows through the FieldSpec oracle
    for _ in range(4):
        k = rng.randint(2, 3)
        code = random_code(rng, k, rng.randint(k, 5), spec)
        a = rng.randint(1, code.n)
        gens = afold_generators(code, a)
        with monkeypatch.context() as patch:
            patch.setattr(hilbert, "_echelon_int",
                          lambda rows, p=None: echelon_oracle(rows, spec))
            want = [graded_dim_ideal(gens, t) for t in range(a + 3)]
        engine = GradedIdealEngine(code.spec, code.k, gens)
        assert not engine._gf
        assert [engine.ideal_dim(t) for t in range(a + 3)] == want


def test_numpy_engine_at_prime_below_2_31(rng):
    # residues below 2^31 keep every int64 product below 2^62
    assert P_BELOW < _NUMPY_P_CAP <= P_ABOVE
    spec = GF(P_BELOW)
    for _ in range(4):
        code = random_code(rng, 3, rng.randint(3, 5), spec)
        a = rng.randint(1, code.n)
        gens = afold_generators(code, a)
        fast = GradedIdealEngine(spec, code.k, gens)
        slow = GradedIdealEngine(spec, code.k, gens)
        slow._gf = False
        assert fast._gf
        for t in range(a + 3):
            assert fast.ideal_dim(t) == slow.ideal_dim(t)
            both = [list(map(int, r)) for r in fast.basis(t)] + slow.basis(t)
            assert len(_echelon_int(both, P_BELOW)) == slow.ideal_dim(t)
    full = [[rng.randrange(P_BELOW) for _ in range(6)] for _ in range(4)]
    rows = full + [[(x + y) % P_BELOW for x, y in zip(*full[:2])]]
    assert len(_echelon_mod_p(np.array(rows, dtype=np.int64), P_BELOW)) \
        == len(_echelon_int(rows, P_BELOW)) == 4


@st.composite
def int64_matrices(draw):
    """Matrices with int64 entries of any sign and size, with zeros and a
    repeated row mixed in."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.integers(-2**63, 2**63 - 1))
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n_cols)


@settings(max_examples=300, deadline=None)
@given(int64_matrices(), st.sampled_from([2, 5, 7, P_BELOW]))
def test_mod_p_kernel_returns_rref(mat, p):
    rows = mat.tolist()
    got = _echelon_mod_p(mat, p)
    assert_rref(got, p)
    want = _echelon_int(rows, p)
    assert len(got) == len(want)
    # same row space: the input rows add nothing to the kernel's
    assert len(_echelon_int(got.tolist() + rows, p)) == len(want)


@pytest.mark.parametrize("p", [2, 7, P_BELOW])
def test_sub_mul_mod_p_is_exact(rng, p):
    # at p = 2^31 - 1 each chunk holds one product of two residues; near
    # p - 1 two such products overflow int64
    def residue():
        return p - 1 - rng.randrange(min(p, 1000))
    x = [[residue() for _ in range(9)] for _ in range(4)]
    y = [[residue() for _ in range(5)] for _ in range(9)]
    acc = [[residue() for _ in range(5)] for _ in range(4)]
    want = [[(acc[i][j] - sum(x[i][s] * y[s][j] for s in range(9))) % p
             for j in range(5)] for i in range(4)]
    got = _sub_mul_mod_p(*(np.array(m, dtype=np.int64) for m in (acc, x, y)),
                         p)
    assert got.tolist() == want


def test_x0_shift_keeps_monomial_order():
    # the engine pads the degree-(t-1) basis with zero columns for its x_0
    # multiples: x_0 maps the degree-d monomials, in order, onto the first
    # ring_dim(k, d) monomials of degree d+1
    for k in range(1, 5):
        for d in range(6):
            assert _mult_map(k, d, 0) == tuple(range(ring_dim(k, d)))


@st.composite
def small_codes(draw):
    """Random [n <= 6, k <= 3] codes over ORACLE_FIELDS; over Q at most
    [4, 3], since the Fraction oracle takes 8 s on one [5, 3] code."""
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 4 if spec.kind == "q" and k == 3 else 6))
    return random_code(random.Random(draw(st.integers(0, 2**32))), k, n, spec)


@settings(max_examples=20, deadline=None)
@given(small_codes(), st.data())
def test_engine_and_colon_match_from_scratch_oracle(code, data):
    # every rank of the references goes through the FieldSpec oracle, so
    # neither the cached bases nor the numpy and integer kernels are shared
    spec, k = code.spec, code.k
    p = spec.modulus

    def oracle_rank_rows(rows, p=None):
        return echelon_oracle(rows, spec)

    def oracle_rank_array(mat, p):
        return np.array(echelon_oracle(mat.tolist(), spec),
                        dtype=np.int64).reshape(-1, mat.shape[1])

    ell = data.draw(st.integers(0, code.n - 1))
    col = code.matrix.column(ell)
    for a in range(1, code.n + 1):
        gens = afold_generators(code, a)
        engine = GradedIdealEngine(spec, k, gens)
        ts = range(a - 1, a + k + 4)
        dims = [engine.ideal_dim(t) for t in ts]
        colons = [colon_dim_from_engine(engine, col, t) for t in ts]
        if engine._gf:
            for t in ts:
                pivots = assert_rref(engine.basis(t), p)
                assert engine._pivots[t].tolist() == pivots
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hilbert, "_echelon_int", oracle_rank_rows)
            patch.setattr(hilbert, "_echelon_mod_p", oracle_rank_array)
            assert dims == [graded_dim_ideal(gens, t) for t in ts]
            assert colons == [colon_dim_reference(spec, k, gens, col, t)
                              for t in ts]


def _counted_kernels(monkeypatch):
    calls = []
    for name in ("_echelon_mod_p", "_echelon_int"):
        kernel = getattr(hilbert, name)

        def counted(*args, kernel=kernel, name=name, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(hilbert, name, counted)
    return calls


@pytest.mark.parametrize("numpy_kernel", [True, False],
                         ids=["mod-p", "int"])
def test_full_degree_needs_no_elimination(b3, monkeypatch, numpy_kernel):
    calls = _counted_kernels(monkeypatch)
    engine = ideal_engine(b3, 2)
    engine._gf = numpy_kernel
    lo, his = default_windows(2, b3.k)
    full = next(t for t in range(lo, his[0] + 1)
                if engine.quotient_dim(t) == 0)
    assert calls
    calls.clear()
    for t in range(full + 1, full + 4):
        assert engine.quotient_dim(t) == 0
        if numpy_kernel:
            assert (engine.basis(t) == np.eye(ring_dim(3, t))).all()
        else:
            assert engine.basis(t) == np.eye(ring_dim(3, t), dtype=int).tolist()
    col = b3.matrix.column(3)
    extra = _linear_multiplication_rows(b3.spec, 3, col, full - 1)
    assert engine.rank_with_extra_rows(full, extra) == ring_dim(3, full)
    assert colon_dim_from_engine(engine, col, full) == ring_dim(3, full)
    assert calls == []


def macaulay_bound_oracle(h, d):
    """h^<d> from the d-binomial expansion, each top found by a search
    over every candidate, as Macaulay's theorem defines it."""
    if h == 0:
        return 0
    top = max(x for x in range(d, h + d + 1) if comb(x, d) <= h)
    return comb(top + 1, d + 1) + (
        macaulay_bound_oracle(h - comb(top, d), d - 1) if d > 1 else 0)


def test_macaulay_bound_known_values():
    for d in range(1, 8):
        for h in range(d + 1):
            assert macaulay_bound(h, d) == h  # C(d, d) + C(d-1, d-1) + ...
        assert macaulay_bound(comb(d + 2, 2), d) == comb(d + 3, 2)
        for k in range(1, 6):  # a full ring piece grows as the ring does
            assert macaulay_bound(ring_dim(k, d), d) == ring_dim(k, d + 1)
        for h in range(60):
            assert macaulay_bound(h, d) == macaulay_bound_oracle(h, d)
    assert macaulay_bound(5, 2) == 7  # 5 = C(3, 2) + C(2, 1)


def test_mixed_degree_ideal_persists_from_its_largest_degree():
    # (x^2, y^5) in K[x, y]: H = 1, 2, 2, 2, 2, 1, 0, and H(3) = H(2)^<2>
    # already, so persistence from the smallest generator degree is wrong
    spec = GF(5)
    gens = [DensePoly.from_dict(spec, 2, 2, {(2, 0): 1}),
            DensePoly.from_dict(spec, 2, 5, {(0, 5): 1})]
    want = [1, 2, 2, 2, 2, 1, 0, 0, 0, 0]
    for numpy_kernel in (True, False):
        engine = GradedIdealEngine(spec, 2, gens)
        engine._gf = numpy_kernel
        assert engine.max_degree == 5
        assert [engine.quotient_dim(t) for t in range(10)] == want
        assert engine._hilbert.settled == 7
    exact = GradedIdealEngine(spec, 2, gens)
    assert PersistentHF(2)(5, exact._eliminated_quotient_dim) == 2


SETTLED_FIELDS = [GF(2), GF(3), GF(5), GF(P_ABOVE), QQ]


@pytest.mark.parametrize("spec", SETTLED_FIELDS,
                         ids=["GF(2)", "GF(3)", "GF(5)", "GF(2^31+11)", "Q"])
def test_settled_dims_match_from_scratch(rng, spec):
    settled = 0
    for _ in range(3 if spec.kind == "q" else 4):
        k = rng.randint(2, 3)
        code = random_code(rng, k, rng.randint(k + 1, 5), spec)
        for a in range(1, code.n + 1):
            gens = afold_generators(code, a)
            engine = GradedIdealEngine(spec, k, gens)
            ts = range(a + k + 5)
            got = [engine.ideal_dim(t) for t in ts]
            assert got == [graded_dim_ideal(gens, t) for t in ts]
            if engine._hilbert.settled is not None:
                settled += engine._hilbert.settled < a + k + 4
            if a >= 2:
                col = code.matrix.column(rng.randrange(code.n))
                colon_dim = colon_dims(engine, col)
                assert [colon_dim(t) for t in range(a - 1, a + k + 4)] == [
                    colon_dim_reference(spec, k, gens, col, t)
                    for t in range(a - 1, a + k + 4)]
    assert settled  # some dimensions were derived, not eliminated


def test_no_degree_past_the_settled_one_is_eliminated(rng, monkeypatch):
    for fields in (FIELDS, [QQ]):
        for _ in range(4):
            code = random_code(rng, 3, rng.randint(4, 5),
                               rng.choice(fields))
            for a in range(2, code.n + 1):
                engine = ideal_engine(code, a)
                lo, his = default_windows(a, code.k)
                for t in range(lo, his[-1]):
                    engine.quotient_dim(t)
                settled = engine._hilbert.settled
                assert settled is not None and max(engine._basis) <= settled
                col = code.matrix.column(0)
                colon_dim = colon_dims(engine, col)
                colon_calls = []

                def counted(engine, col, t):
                    colon_calls.append(t)
                    return colon_dim_from_engine(engine, col, t)
                with monkeypatch.context() as patch:
                    patch.setattr(hilbert, "colon_dim_from_engine", counted)
                    for t in range(a - 1, his[-1]):
                        colon_dim(t)
                # the colon cells stop where H of I_a + ell settles
                top = max(colon_calls)
                assert colon_calls == list(range(a - 1, top + 1))
                assert max(engine._basis) <= max(settled, top + 1)
                with monkeypatch.context() as patch:
                    calls = _counted_kernels(patch)
                    for t in range(his[-1], his[-1] + 4):
                        engine.quotient_dim(t)
                        colon_dim(t)
                assert calls == []


def test_engine_is_freed_without_the_cycle_collector(b3):
    # a reference cycle through the engine's bases held them until the
    # cycle collector ran, which raised the peak memory of a long run
    gc.disable()
    try:
        engine = ideal_engine(b3, 3)
        colon_dim = colon_dims(engine, b3.matrix.column(0))
        for t in range(2, 12):
            colon_dim(t)
        freed = weakref.ref(engine)
        del engine, colon_dim
        assert freed() is None
    finally:
        gc.enable()


def lagrange_oracle(points):
    """Lagrange interpolation on Fractions, the reference for the Newton
    form; ascending coefficients with trailing zeros trimmed."""
    coeffs = [Fraction(0)] * len(points)
    for i, (ti, vi) in enumerate(points):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, (tj, _) in enumerate(points):
            if j != i:
                denom *= ti - tj
                basis = [a - tj * b for a, b in zip([Fraction(0)] + basis,
                                                   basis + [Fraction(0)])]
        coeffs = [c + Fraction(vi) / denom * b for c, b in zip(coeffs, basis)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@settings(max_examples=200, deadline=None)
@given(st.integers(-20, 40), st.lists(st.integers(-10**6, 10**6),
                                      min_size=1, max_size=7))
def test_interpolate_matches_lagrange(t0, values):
    points = [(t0 + i, v) for i, v in enumerate(values)]
    got = _interpolate(t0, values)
    assert got == lagrange_oracle(points)
    assert all(sum(c * t**i for i, c in enumerate(got)) == v
               for t, v in points)


def test_ideal_dims_monotone_in_a(rng):
    # I_{a+1} is contained in I_a degree by degree
    for fields in (FIELDS, [QQ]):
        for _ in range(6):
            code = random_code_any(rng, max_k=3, max_n=5, fields=fields)
            for a in range(1, code.n):
                e_lo = ideal_engine(code, a)
                e_hi = ideal_engine(code, a + 1)
                for t in range(code.n + 2):
                    assert e_hi.ideal_dim(t) <= e_lo.ideal_dim(t)


def test_fit_e0_a2(e0):
    fit = fit_hilbert_polynomial(e0, 2)
    assert fit.poly == ()        # finite length
    assert fit.dim_proj == -1
    assert fit.implied_height == 2
    assert fit.degree_invariant == 3  # K-length 1 + 2
    doc = fit.to_json()
    assert doc["degree"] == "3"


def test_fit_b3_a6(b3):
    fit = fit_hilbert_polynomial(b3, 6)
    assert fit.poly == (Fraction(3),)  # constant Hilbert polynomial
    assert fit.dim_proj == 0
    assert fit.implied_height == 2
    assert fit.degree_invariant == 3


def test_fit_b3_a9(b3):
    fit = fit_hilbert_polynomial(b3, 9)
    assert fit.poly == (Fraction(-27), Fraction(9))  # 9t - 27
    assert fit.implied_height == 1
    assert fit.degree_invariant == 9
    assert fit.hp_at(10) == 63


def test_oracle_matches_tutte_examples(e0, b3):
    for code in (e0, b3):
        coeffs = whitney_shift(tutte_subset_sum(code.matroid), code.k)
        h = weight_hierarchy(code)
        for a in range(1, code.n + 1):
            fit = fit_hilbert_polynomial(code, a)
            assert fit.implied_height == height_of_ideal(code, h, a)
            assert fit.degree_invariant == \
                degree_from_tutte(code, coeffs, h, a)
            assert mu_oracle(code, a) == mu_of_ideal(code, coeffs, a)


def test_mu_oracle_values(e0, b3):
    assert [mu_oracle(e0, a) for a in (1, 2, 3)] == [2, 3, 1]
    assert mu_oracle(b3, 7) == 23


def test_power_of_variable_ideal_degree():
    # <x1..xc>^i has height c and degree C(c+i-1, c)
    spec = GF(5)
    k, c, i = 3, 2, 2
    gens = [DensePoly.from_dict(spec, k, i, {m: 1})
            for m in monomials(c, i)
            for m in [tuple(m) + (0,) * (k - c)]]
    engine = GradedIdealEngine(spec, k, gens)
    lo, his = default_windows(i, k)
    fit = fit_graded_quotient(k, engine.quotient_dim, i, lo, his)
    assert fit.implied_height == c
    assert fit.degree_invariant == comb(c + i - 1, c)


def test_window_error():
    # strictly growing Hilbert function in one variable can never stabilize
    with pytest.raises(WindowError):
        fit_graded_quotient(1, lambda t: 2**t, 0, 0, [6])


def test_explicit_window(e0):
    fit = fit_hilbert_polynomial(e0, 2, window=(1, 8))
    assert fit.degree_invariant == 3
    with pytest.raises(ExactArithError):
        fit_hilbert_polynomial(e0, 2, window=(2, 3))  # span below k+1


def test_colon_e0_example(e0):
    # I_3 : (x1+x2) = <x1 x2>, whose degree-t piece has dimension t-1
    assert colon_graded_dim(e0, 2, 3, 1) == 0
    for t in range(2, 6):
        assert colon_graded_dim(e0, 2, 3, t) == t - 1
    with pytest.raises(ExactArithError):
        colon_graded_dim(e0, 2, 1, 2)   # a must be >= 2
    with pytest.raises(ExactArithError):
        colon_graded_dim(e0, 5, 3, 2)   # column out of range


def test_colon_equals_deleted_at_generation_degree(rng):
    # proved slice: (I_a : ell)_{a-1} always matches the deleted ideal
    for _ in range(6):
        code = random_code_any(rng, max_k=3, max_n=5)
        for a in range(2, code.n + 1):
            for ell in range(code.n):
                lhs = colon_graded_dim(code, ell, a, a - 1)
                rhs = deleted_ideal_engine(code, ell, a - 1).ideal_dim(a - 1)
                assert lhs == rhs


def test_colon_coloop_full_equality():
    # with a coloop column the colon ideal equals the deleted ideal in
    # every degree
    code = LinearCode(ExactMatrix.from_rows(
        GF(3), [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]))
    ell = 3
    assert code.matroid.is_coloop(ell)
    for a in range(2, code.n + 1):
        deleted = deleted_ideal_engine(code, ell, a - 1)
        for t in range(a - 1, a + 4):
            assert colon_graded_dim(code, ell, a, t) == deleted.ideal_dim(t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(ORACLE_FIELDS))
def test_deleted_generators_picked_from_afold_list(seed, spec):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    code = random_code(rng, k, rng.randint(k, 6), spec)
    for a in range(1, code.n + 1):
        gens = afold_generators(code, a)
        for ell in range(code.n):
            rest = [code.matrix.column(j) for j in range(code.n) if j != ell]
            picked = deleted_generators(code, ell, a, gens)
            assert picked == deleted_generators(code, ell, a)
            if a < code.n:
                assert picked == hilbert._afold_from_columns(
                    spec, code.k, rest, a)
            else:
                assert picked == []


def test_conjecture_report_expands_each_afold_list_once(b3, monkeypatch):
    expanded = []
    afold = hilbert._afold_from_columns

    def counted(spec, k, columns, a):
        expanded.append((len(columns), a))
        return afold(spec, k, columns, a)

    monkeypatch.setattr(hilbert, "_afold_from_columns", counted)
    conjecture_report(b3, 4)
    assert sorted(expanded) == [(b3.n, a) for a in range(1, b3.n + 1)]


def test_conjecture_report_automatic_cells_follow_parallel_classes():
    code = LinearCode(ExactMatrix.from_rows(
        GF(5), [[1, 2, 3, 1], [1, 2, 0, 1]]))
    # columns 1 and 4 are equal and column 2 is twice column 1: each of
    # the three divides every a-fold product once a > n - 3; column 3 is
    # parallel to nothing, so it does only at a = n
    report = conjecture_report(code, 5)
    automatic = {e["a"]: [c["ell"] for c in e["columns"] if c["automatic"]]
                 for e in report["entries"]}
    assert automatic == {2: [1, 2, 4], 3: [1, 2, 4], 4: [1, 2, 3, 4]}
    for entry in report["entries"]:
        for cell in entry["columns"]:
            assert (set(cell["cells"].values()) == {"auto"}) \
                == cell["automatic"]


def test_conjecture_report_e0(e0):
    report = conjecture_report(e0, 6)
    assert report["field"] == "GF(2)"
    assert report["char_zero_hypothesis"] is False
    assert "characteristic" in report["note"]
    by_a = {e["a"]: e for e in report["entries"]}
    assert set(by_a) == {2, 3}
    # a=2: no column is automatic and every observed degree agrees
    for cell in by_a[2]["columns"]:
        assert not cell["automatic"]
        assert set(cell["cells"].values()) == {"="}
    # a=3=n: every column divides every generator
    for cell in by_a[3]["columns"]:
        assert cell["automatic"]
        assert set(cell["cells"].values()) == {"auto"}
    assert by_a[2]["linear_resolution_consistent"]
    assert by_a[3]["linear_resolution_consistent"]

    rendered = render_conjecture_matrix(report)
    lines = rendered.splitlines()
    assert lines[0].startswith(" ")
    assert any(line.startswith("a=2") and "=" in line for line in lines)
    assert any(line.startswith("a=3") and "auto" in line for line in lines)
    assert "!=" not in rendered


def test_conjecture_report_degree_hypothesis(b3):
    report = conjecture_report(b3, 6)
    by_a = {e["a"]: e for e in report["entries"]}
    cells = [c for c in by_a[7]["columns"] if not c["automatic"]]
    assert cells
    for cell in cells:
        # a=7 sits at j=2 inside its interval: the proved hypothesis holds
        assert cell["degree_hypothesis"] == "j>=2 (proved)"
        assert cell["degrees_equal"] is True


def test_afold_products_are_capped_before_expanding(b3, monkeypatch):
    # b3 has n = 9: C(9, 2) = 36 products fit a cap of 36, C(9, 3) = 84 do
    # not, and neither do the C(8, 3) = 56 that avoid one column; a capped
    # call expands none of its products (conjecture_report runs a = 2 in
    # full before a = 3 is capped)
    expanded = []
    product_coeffs = hilbert._product_coeffs

    def counted(spec, k, columns):
        expanded.append(len(columns))
        return product_coeffs(spec, k, columns)

    monkeypatch.setattr(hilbert, "_product_coeffs", counted)
    monkeypatch.setattr(hilbert, "PRODUCT_CAP", 36)
    assert len(afold_generators(b3, 2)) == 36 and len(expanded) == 36
    expanded.clear()
    for capped, count in ((lambda: afold_generators(b3, 3), 84),
                          (lambda: deleted_generators(b3, 0, 3), 56),
                          (lambda: fit_hilbert_polynomial(b3, 6), 84),
                          (lambda: conjecture_report(b3, b3.n + 2), 84)):
        with pytest.raises(CapExceeded, match=f"^{count} "):
            capped()
    assert expanded and max(expanded) <= 2


def test_conjecture_report_computes_each_value_once(monkeypatch):
    # hierarchy (0, 2, 4, 6): cells with j = 1 at a = 3 and a = 5; every
    # matroid fact comes from the code's one span-join pass, with no Tutte
    # polynomial, no deletion and no per-column coloop elimination
    code = LinearCode(ExactMatrix.from_rows(GF(2), [[0, 0, 0, 1, 0, 1],
                                                    [1, 0, 0, 0, 1, 1],
                                                    [1, 1, 1, 0, 0, 1]]))
    tallies = Counter()
    colon_calls = []
    colon_dim = hilbert.colon_dim_from_engine

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tallies[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_colon_dim(engine, col, t):
        colon_calls.append((engine, col, t))
        return colon_dim(engine, col, t)

    monkeypatch.setattr(tutte, "tutte_subset_sum",
                        counted("subset_sum", tutte.tutte_subset_sum))
    monkeypatch.setattr(VectorMatroid, "delete",
                        counted("delete", VectorMatroid.delete))
    monkeypatch.setattr(VectorMatroid, "is_coloop",
                        counted("is_coloop", VectorMatroid.is_coloop))
    monkeypatch.setattr(matroid, "_span_join",
                        counted("pass", matroid._span_join))
    monkeypatch.setattr(hilbert, "colon_dim_from_engine", counted_colon_dim)
    report = conjecture_report(code, code.n + 2)
    j1 = [c for e in report["entries"] for c in e["columns"]
          if c.get("degree_hypothesis", "").startswith("j=1")]
    assert len(j1) > code.n
    assert tallies == {"pass": 1}
    # columns 2 and 3 are equal, and each has cells of its own
    columns = code.matrix.columns()
    counts = Counter(colon_calls)
    assert counts and all(calls <= columns.count(col)
                          for (_, col, _), calls in counts.items())


def tutte_degree_hypothesis(code, ell, r, j):
    """The j = 1 rule read off Tutte polynomials, as the report once did:
    the top shifted coefficient p_r of M against that of M \\ ell, each by
    subset sum."""
    if j >= 2:
        return "j>=2 (proved)"
    deleted = code.matroid.delete(ell)
    if deleted.full_rank < code.k:
        return "deleted column is a coloop (proved separately)"
    p_r = whitney_shift(tutte_subset_sum(code.matroid), code.k).p[r]
    if whitney_shift(tutte_subset_sum(deleted), code.k).p[r] == p_r:
        return "j=1 with matching top coefficients (proved)"
    return "j=1 with shifted top coefficient (open)"


def planted_code(rng, spec):
    """A random code with scaled copies of its columns and, half the time,
    a coloop in a new last row."""
    k = rng.randint(1, 3)
    base = random_code(rng, k, rng.randint(k, 4), spec)
    cols = base.matrix.columns()
    for _ in range(rng.randint(0, 2)):
        c = spec.coerce(rng.randrange(1, spec.modulus) if spec.kind == "gf"
                        else rng.choice([1, 2, -1, 3]))
        cols.append([spec.mul(c, x) for x in rng.choice(cols)])
    rows = [[col[i] for col in cols] for i in range(k)]
    if rng.random() < 0.5:
        rows = [row + [0] for row in rows] + [[0] * len(cols) + [1]]
    return LinearCode(ExactMatrix.from_rows(spec, rows))


def test_degree_hypothesis_matches_the_tutte_rule():
    rng = random.Random(14)
    seen = Counter()
    for spec in (GF(2), GF(3), QQ):
        for _ in range(8):
            code = planted_code(rng, spec)
            hierarchy = weight_hierarchy(code)
            report = conjecture_report(code, code.n)
            for entry in report["entries"]:
                r = hierarchy.interval_index(entry["a"])
                j = entry["a"] - hierarchy.d[r]
                for cell in entry["columns"]:
                    ell = cell["ell"] - 1
                    assert cell["coloop"] is code.matroid.is_coloop(ell)
                    if "degree_hypothesis" in cell:
                        expected = tutte_degree_hypothesis(code, ell, r, j)
                        assert cell["degree_hypothesis"] == expected
                        seen[expected] += 1
    # the codes reach every branch of the rule
    assert len(seen) == 4
