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
                               ExactMatrix, InternalInvariantError,
                               exact_dtype, primitive)
from starconfig.hilbert import (GradedIdealEngine,
                                PersistentHF, WindowError, _echelon_int,
                                _echelon_mod_p, _interpolate,
                                _linear_multiplication_rows, _mult_map,
                                _sub_mul_mod_p, afold_generators,
                                colon_dim_from_engine, colon_dims,
                                conjecture_report, deleted_generators,
                                default_windows, fit_graded_quotient,
                                fit_hilbert_polynomial, ideal_engine,
                                macaulay_bound,
                                monomial_index, monomials, mu_oracle,
                                oracle_forms, regularity_certificate,
                                render_conjecture_matrix, ring_dim)
from starconfig.matroid import VectorMatroid
from starconfig.star import degree_from_tutte, full_profile, mu_of_ideal
from starconfig.tutte import tutte_subset_sum, whitney_shift

from conftest import FIELDS, deleted_engine, random_code, random_code_any
from crosscheck import (_generator_multiples, colon_dim_reference,
                        field_add, graded_dim_ideal, is_coloop,
                        poly_from_dict)

P_BELOW = (1 << 31) - 1   # largest prime below 2^31
P_ABOVE = (1 << 31) + 11  # smallest prime above it
P_61 = (1 << 61) - 1      # every array over it holds Python ints
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
                v[piv:] = [field_add(spec, x, spec.neg(spec.mul(c, y)))
                           for x, y in zip(v[piv:], basis_row[piv:])]
        piv = next((i for i, x in enumerate(v) if x != zero), None)
        if piv is not None:
            inv = spec.inv(v[piv])
            out.append((piv, [spec.mul(inv, x) for x in v]))
    out.sort()
    return [r for _, r in out]


def patch_oracle_kernels(patch, spec):
    """Route both kernels of the Hilbert module through echelon_oracle."""
    def oracle_rank_array(mat, p):
        rows = np.asarray(mat).tolist()
        return np.array(echelon_oracle(rows, spec),
                        dtype=exact_dtype(p, 1)).reshape(-1, len(rows[0]))
    patch.setattr(hilbert, "_echelon_int",
                  lambda rows: echelon_oracle(rows, spec))
    patch.setattr(hilbert, "_echelon_mod_p", oracle_rank_array)


def product_oracle(spec, k, columns) -> dict:
    """The exponent-tuple -> coefficient table of the nonzero terms of a
    product of linear forms, on FieldSpec arithmetic."""
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
                val = field_add(spec, prev, spec.mul(c, ci))
                if val == zero:
                    nxt.pop(key, None)
                else:
                    nxt[key] = val
        acc = nxt
    return acc


def assert_rref(rows, p):
    """rows (numpy) are nonzero RREF rows mod p, in the dtype of the mod-p
    kernel: each pivot 1, its column otherwise zero, pivots strictly
    increasing; returns the pivots."""
    rows = np.asarray(rows)
    assert rows.dtype == exact_dtype(p, 1)
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
@given(row_lists())
def test_int_kernel_matches_fraction_oracle(rows):
    # the integer kernel is the Q kernel; GF(p) rows go through the mod-p
    # kernel (test_mod_p_kernel_returns_rref)
    got = _echelon_int(rows)
    want = echelon_oracle(rows, QQ)
    assert len(got) == len(want)
    # same row space: the oracle's rows add nothing to the kernel's
    assert len(echelon_oracle(got + want, QQ)) == len(want)
    pivots = [next(i for i, x in enumerate(r) if x) for r in got]
    assert pivots == sorted(set(pivots))
    for row, piv in zip(got, pivots):
        assert all(type(x) is int for x in row)
        assert row[piv] > 0 and gcd(*row) == 1


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
    # a Python int; over Q the columns are first made primitive integer
    # columns, as oracle_forms makes them
    spec, k, columns = case
    if spec.kind == "q":
        columns = [primitive(col) for col in columns]
    a = len(columns)
    gens = hilbert._afold_from_columns(spec, k, columns, a)
    assert gens.shape == (1, ring_dim(k, a))
    want = product_oracle(spec, k, [tuple(map(spec.coerce, col))
                                    for col in columns])
    row = gens[0].tolist()
    got = {m: c for m, c in zip(monomials(k, a), row) if c}
    assert got == want
    assert {type(c) for c in row} == {int}


def test_afold_generators_e0(e0):
    gens1 = afold_generators(e0, 1)
    assert gens1.tolist() == [[1, 0], [0, 1], [1, 1]]
    gens3 = afold_generators(e0, 3)
    # x1 * x2 * (x1 + x2) = x1^2 x2 + x1 x2^2 over GF(2)
    assert gens3.tolist() == [[0, 1, 1, 0]]
    with pytest.raises(ExactArithError):
        afold_generators(e0, 0)
    with pytest.raises(ExactArithError):
        afold_generators(e0, 4)


def test_afold_generators_over_q_are_python_ints(rng):
    # each form is scaled to a primitive integer column first, so no
    # Fraction reaches a generator, whatever the code's entries are
    for _ in range(4):
        code = random_code(rng, 3, rng.randint(3, 5), QQ)
        scaled = LinearCode(ExactMatrix.from_rows(QQ, [
            [x * Fraction((-1) ** j * (2 * j + 1), j + 2)
             for j, x in enumerate(row)]
            for row in code.matrix.entries]))
        for j, form in enumerate(oracle_forms(scaled)):
            assert {type(x) for x in form} == {int} and gcd(*form) == 1
            col = scaled.matrix.column(j)
            i = next(i for i, x in enumerate(form) if x)
            assert [col[i] / form[i] * x for x in form] == list(col)
        for a in range(1, scaled.n + 1):
            gens = afold_generators(scaled, a)
            assert gens.shape == (comb(scaled.n, a), ring_dim(3, a))
            assert {type(x) for x in gens.flat} == {int}


def test_generator_row_validation():
    # in 2 variables a degree-2 row has 3 coefficients and a degree-1 row
    # 2; a block of the wrong shape is refused even when its entries would
    # fill rows of the right width (2 x 3 read as 3 x 2)
    for spec in (GF(2), QQ):
        for gens in ({2: [[1, 0]]}, {2: [1, 0, 0]},
                     {1: np.ones((2, 3), dtype=int)}):
            with pytest.raises(ExactArithError, match="coefficients"):
                GradedIdealEngine(spec, 2, gens)
    # rows of unequal lengths name the shape over every field, as numpy's
    # own ValueError did not over GF(p)
    for spec in (GF(5), QQ):
        for gens in ({2: [[1, 0, 0], [1, 0]]}, {2: [[1, 0], [1, 0, 0]]}):
            with pytest.raises(ExactArithError, match="shape"):
                GradedIdealEngine(spec, 2, gens)
    # rows are reduced mod p and zero rows dropped, once
    engine = GradedIdealEngine(GF(3), 2, {2: [[3, 0, 6], [4, 0, -3]],
                                          1: [[0, 3]]})
    assert engine.by_degree[2].tolist() == [[1, 0, 0]]
    assert engine.min_degree == engine.max_degree == 2
    p = poly_from_dict(GF(3), 2, 2, {(2, 0): 4, (1, 1): 0})
    assert p == [1, 0, 0]
    assert not any(poly_from_dict(QQ, 2, 1, {}))


def test_graded_dims_e0(e0):
    gens = {2: afold_generators(e0, 2)}
    want = [graded_dim_ideal(e0.spec, e0.k, gens, t) for t in range(6)]
    assert want[:3] == [0, 0, 3]  # all of R_2
    engine = GradedIdealEngine(e0.spec, e0.k, gens)
    for t in range(6):
        assert engine.ideal_dim(t) == want[t]
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
            gens = {a: afold_generators(code, a)}
            engine = GradedIdealEngine(code.spec, code.k, gens)
            for t in range(a + 3):
                assert engine.ideal_dim(t) == graded_dim_ideal(
                    code.spec, code.k, gens, t)


@pytest.mark.parametrize("spec", [QQ, GF(P_ABOVE)], ids=["Q", "GF(2^31+11)"])
def test_engine_matches_fieldspec_oracle(rng, monkeypatch, spec):
    # Q goes through the integer kernel, and GF(2^31 + 11) through the
    # mod-p kernel with its products summed over Python ints; the reference
    # is graded_dim_ideal's rows through the FieldSpec oracle
    for _ in range(4):
        k = rng.randint(2, 3)
        code = random_code(rng, k, rng.randint(k, 5), spec)
        a = rng.randint(1, code.n)
        gens = {a: afold_generators(code, a)}
        with monkeypatch.context() as patch:
            patch_oracle_kernels(patch, spec)
            want = [graded_dim_ideal(spec, code.k, gens, t)
                    for t in range(a + 3)]
        engine = GradedIdealEngine(code.spec, code.k, gens)
        assert [engine.ideal_dim(t) for t in range(a + 3)] == want


def test_numpy_engine_at_prime_below_2_31(rng):
    # residues below 2^31 keep one int64 product below 2^62, so the bases
    # are int64; the integer kernel runs on the same entries over Q, where
    # every rank is at least the rank mod p
    spec = GF(P_BELOW)
    assert exact_dtype(P_BELOW, 1) is np.int64
    for _ in range(4):
        code = random_code(rng, 3, rng.randint(3, 5), spec)
        lifted = LinearCode(ExactMatrix.from_rows(QQ, code.matrix.entries))
        a = rng.randint(1, code.n)
        gens = {a: afold_generators(code, a)}
        fast = GradedIdealEngine(spec, code.k, gens)
        slow = ideal_engine(lifted, a)
        for t in range(a + 3):
            rows = _generator_multiples(spec, code.k, gens, t)
            want = echelon_oracle(rows, spec)
            basis = fast.basis(t)
            assert_rref(basis, P_BELOW)
            assert fast.ideal_dim(t) == len(want)
            assert len(echelon_oracle(basis.tolist() + want, spec)) \
                == len(want)
            assert fast.ideal_dim(t) <= slow.ideal_dim(t) == len(
                echelon_oracle(_generator_multiples(
                    QQ, code.k, slow.by_degree, t), QQ))
    full = [[rng.randrange(P_BELOW) for _ in range(6)] for _ in range(4)]
    rows = full + [[(x + y) % P_BELOW for x, y in zip(*full[:2])]]
    assert len(_echelon_mod_p(np.array(rows, dtype=np.int64), P_BELOW)) \
        == len(echelon_oracle(rows, spec)) == 4


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
@given(int64_matrices(), st.sampled_from([2, 5, 7, P_BELOW, P_ABOVE, P_61]))
def test_mod_p_kernel_returns_rref(mat, p):
    rows = mat.tolist()
    got = _echelon_mod_p(mat, p)
    assert_rref(got, p)
    want = echelon_oracle(rows, GF(p))
    assert len(got) == len(want)
    # same row space: the input rows add nothing to the kernel's
    assert len(echelon_oracle(got.tolist() + rows, GF(p))) == len(want)


@pytest.mark.parametrize("p", [2, 7, P_BELOW, P_61])
def test_sub_mul_mod_p_is_exact(rng, p):
    # at p = 2^31 - 1 the arrays are int64, but near p - 1 two products of
    # residues overflow it, so the product is taken over Python ints; at
    # p = 2^61 - 1 the arrays hold Python ints themselves
    def residue():
        return p - 1 - rng.randrange(min(p, 1000))
    x = [[residue() for _ in range(9)] for _ in range(4)]
    y = [[residue() for _ in range(5)] for _ in range(9)]
    acc = [[residue() for _ in range(5)] for _ in range(4)]
    want = [[(acc[i][j] - sum(x[i][s] * y[s][j] for s in range(9))) % p
             for j in range(5)] for i in range(4)]
    dtype = exact_dtype(p, 1)
    got = _sub_mul_mod_p(*(np.array(m, dtype=dtype) for m in (acc, x, y)),
                         p)
    assert got.dtype == dtype
    assert got.tolist() == want


def test_exact_dtype_boundary():
    # int64 exactly when terms (p - 1)^2 <= 2^63 - 1
    assert exact_dtype(2, 2**63 - 1) is np.int64
    assert exact_dtype(2, 2**63) is object
    assert 2 * (P_BELOW - 1) ** 2 < 2**63 < 3 * (P_BELOW - 1) ** 2
    assert exact_dtype(P_BELOW, 2) is np.int64
    assert exact_dtype(P_BELOW, 3) is object
    assert exact_dtype(P_ABOVE, 1) is np.int64
    assert exact_dtype(P_ABOVE, 2) is object
    assert exact_dtype(P_61, 1) is object


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
    ell = data.draw(st.integers(0, code.n - 1))
    col = oracle_forms(code)[ell]
    for a in range(1, code.n + 1):
        gens = {a: afold_generators(code, a)}
        engine = GradedIdealEngine(spec, k, gens)
        ts = range(a - 1, a + k + 4)
        dims = [engine.ideal_dim(t) for t in ts]
        colons = [colon_dim_from_engine(engine, col, t) for t in ts]
        if spec.kind == "gf":
            for t in ts:
                pivots = assert_rref(engine.basis(t), p)
                assert engine._pivots[t].tolist() == pivots
        with pytest.MonkeyPatch.context() as patch:
            patch_oracle_kernels(patch, spec)
            assert dims == [graded_dim_ideal(spec, k, gens, t) for t in ts]
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
    # b3 over GF(5) runs the mod-p kernel; the same matrix over Q, the
    # integer kernel
    code = b3 if numpy_kernel else LinearCode(
        ExactMatrix.from_rows(QQ, b3.matrix.entries))
    calls = _counted_kernels(monkeypatch)
    engine = ideal_engine(code, 2)
    lo, his = default_windows(2, code.k)
    full = next(t for t in range(lo, his[0] + 1)
                if engine.quotient_dim(t) == 0)
    assert calls
    assert set(calls) == {"_echelon_mod_p" if numpy_kernel
                          else "_echelon_int"}
    calls.clear()
    for t in range(full + 1, full + 4):
        assert engine.quotient_dim(t) == 0
        assert (engine.basis(t) == np.eye(ring_dim(3, t), dtype=int)).all()
    col = oracle_forms(code)[3]
    extra = _linear_multiplication_rows(3, col, full - 1,
                                        range(ring_dim(3, full - 1)))
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
    want = [1, 2, 2, 2, 2, 1, 0, 0, 0, 0]
    for spec in (GF(5), QQ):  # the mod-p and the integer kernel
        gens = {2: [poly_from_dict(spec, 2, 2, {(2, 0): 1})],
                5: [poly_from_dict(spec, 2, 5, {(0, 5): 1})]}
        engine = GradedIdealEngine(spec, 2, gens)
        assert engine.max_degree == 5
        assert [engine.quotient_dim(t) for t in range(10)] == want
        assert engine._hilbert.settled == 7
        exact = GradedIdealEngine(spec, 2, gens)
        assert PersistentHF(2, 2)(5, exact._eliminated_quotient_dim) == 2


def test_certified_degrees_follow_the_hilbert_polynomial():
    # once certify(2) holds, H is a polynomial of degree <= k-1 from 2 on,
    # read off the k degrees before each; none of these values meets
    # Macaulay's bound, so Gotzmann never settles them first
    for k, poly in ((2, lambda t: 9), (3, lambda t: t + 8),
                    (4, lambda t: t * t + 9)):
        calls, tried = [], []
        hf = PersistentHF(2, k)

        def exact(t):
            calls.append(t)
            return poly(t)

        def certify(m):
            tried.append(m)
            return True
        assert [hf(t, exact, certify) for t in range(2, 14)] == [
            poly(t) for t in range(2, 14)]
        assert hf.certified and tried == [2]
        assert hf.settled == max(calls) == 2 + k - 1


SETTLED_FIELDS = [GF(2), GF(3), GF(5), GF(P_ABOVE), GF(P_61), QQ]


@pytest.mark.parametrize("spec", SETTLED_FIELDS,
                         ids=["GF(2)", "GF(3)", "GF(5)", "GF(2^31+11)",
                              "GF(2^61-1)", "Q"])
def test_settled_dims_match_from_scratch(rng, spec):
    settled = 0
    for _ in range(3 if spec.kind == "q" else 4):
        k = rng.randint(2, 3)
        code = random_code(rng, k, rng.randint(k + 1, 5), spec)
        for a in range(1, code.n + 1):
            gens = {a: afold_generators(code, a)}
            engine = GradedIdealEngine(spec, k, gens)
            ts = range(a + k + 5)
            got = [engine.ideal_dim(t) for t in ts]
            assert got == [graded_dim_ideal(spec, k, gens, t) for t in ts]
            if engine._hilbert.settled is not None:
                settled += engine._hilbert.settled < a + k + 4
            if a >= 2:
                col = oracle_forms(code)[rng.randrange(code.n)]
                colon_dim = colon_dims(engine, col)
                assert [colon_dim(t) for t in range(a - 1, a + k + 4)] == [
                    colon_dim_reference(spec, k, gens, col, t)
                    for t in range(a - 1, a + k + 4)]
    assert settled  # some dimensions were derived, not eliminated


def test_no_degree_past_the_settled_one_is_eliminated(rng, monkeypatch):
    # settled is the last eliminated degree, whether Gotzmann persistence
    # or, over Q, the regularity certificate settled the engine
    certified = Counter()
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
                certified[code.spec.kind, engine._hilbert.certified] += 1
                col = oracle_forms(code)[0]
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
    # both routes ran over Q, and only Gotzmann over GF(p)
    assert certified["q", True] and certified["q", False]
    assert not certified["gf", True]


# Ideals generated in degree 2 that are not 2-regular: complete
# intersections of quadrics, with reg = 2 + 2 - 1 and 2 + 2 + 2 - 2.
PLANTED_NOT_REGULAR = [
    (2, {2: [poly_from_dict(QQ, 2, 2, {(2, 0): 1}),
             poly_from_dict(QQ, 2, 2, {(0, 2): 1})]}),
    (3, {2: [poly_from_dict(QQ, 3, 2, {(2, 0, 0): 1}),
             poly_from_dict(QQ, 3, 2, {(0, 2, 0): 1}),
             poly_from_dict(QQ, 3, 2, {(0, 0, 2): 1})]}),
]


def _check_certified_codes(rng) -> int:
    """Every engine of seeded Q codes with k = 2..4, against from-scratch
    elimination over [a-1, a+k+5]; returns how many the regularity
    certificate settled."""
    certified = 0
    for k, n in ((2, 4), (3, 4), (3, 5), (4, 4)):
        code = random_code(rng, k, n, QQ)
        for a in range(1, n + 1):
            gens = {a: afold_generators(code, a)}
            engine = GradedIdealEngine(QQ, k, gens)
            ts = range(a - 1, a + k + 6)
            assert [engine.ideal_dim(t) for t in ts] == [
                graded_dim_ideal(QQ, k, gens, t) for t in ts]
            certified += engine._hilbert.certified
    return certified


def _check_planted_not_regular():
    """The planted ideals are never certified, and their dimensions match
    from-scratch elimination."""
    for k, gens in PLANTED_NOT_REGULAR:
        engine = GradedIdealEngine(QQ, k, gens)
        assert not regularity_certificate(engine, 2)
        ts = range(1, 2 + k + 6)
        assert [engine.ideal_dim(t) for t in ts] == [
            graded_dim_ideal(QQ, k, gens, t) for t in ts]
        assert not engine._hilbert.certified


def test_restriction_is_the_quotient_by_the_form(rng):
    # R/(J + (h)) and the restricted engine's quotient agree in degrees m
    # and m+1, the two the certificate reads.  The product of the forms
    # the certificate tries vanishes modulo each of them, and modulo no
    # form that differs from them, such as x_0 - x_1 - x_2
    ideals = [(k, gens) for k, gens in PLANTED_NOT_REGULAR]
    for k in (2, 3):
        forms = [hilbert.certificate_form(k, c)
                 for c in hilbert.CERTIFICATE_STEPS]
        ideals.append((k, {3: hilbert._afold_from_columns(QQ, k, forms, 3)}))
    for k in (2, 3, 3):
        code = random_code(rng, k, k + 2, QQ)
        a = rng.randint(2, code.n - 1)
        ideals.append((k, {a: afold_generators(code, a)}))
    for k, gens in ideals:
        engine = GradedIdealEngine(QQ, k, gens)
        m = engine.max_degree
        for c in hilbert.CERTIFICATE_STEPS:
            with_h = {**gens, 1: [hilbert.certificate_form(k, c)]}
            restricted = hilbert._restricted(engine, c, m)
            assert restricted.k == k - 1
            for t in (m, m + 1):
                assert restricted.quotient_dim(t) == ring_dim(k, t) - (
                    graded_dim_ideal(QQ, k, with_h, t))


def test_regularity_certificate_settles_q_engines(rng):
    assert _check_certified_codes(rng)


# Star configurations where the first form is a zero divisor: the lines
# x_2 = 0 and x_0 + x_1 = 0 meet at (1, -1, 0), where x_0 + x_1 + x_2
# vanishes, and x_2 = 0 and x_0 + 2 x_1 = 0 meet at (2, -1, 0), where
# x_0 + 2 x_1 + 4 x_2 vanishes.  Each needs the c it is listed with.
LATER_FORM_CODES = [
    (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]),
    (3, [[1, 0, 0], [0, 0, 1], [1, 1, 0], [1, 2, 0]]),
]


@pytest.mark.parametrize("c, columns", LATER_FORM_CODES,
                         ids=["c=2", "c=3"])
def test_a_later_form_certifies_where_the_first_fails(monkeypatch, c,
                                                      columns):
    gens = {3: hilbert._afold_from_columns(QQ, 3, columns, 3)}
    ts = range(2, 3 + 3 + 6)
    want = [graded_dim_ideal(QQ, 3, gens, t) for t in ts]
    steps = hilbert.CERTIFICATE_STEPS
    assert steps.index(c) > 0
    for tried, certified in ((steps[:steps.index(c)], False),
                             (steps, True)):
        monkeypatch.setattr(hilbert, "CERTIFICATE_STEPS", tried)
        engine = GradedIdealEngine(QQ, 3, gens)
        assert regularity_certificate(engine, 3) is certified
        engine = GradedIdealEngine(QQ, 3, gens)
        assert [engine.ideal_dim(t) for t in ts] == want
        assert engine._hilbert.certified is certified


def test_planted_not_regular_ideals_are_never_certified(monkeypatch):
    tried = []

    def recorded(engine, m):
        tried.append(m)
        return regularity_certificate(engine, m)
    monkeypatch.setattr(hilbert, "regularity_certificate", recorded)
    _check_planted_not_regular()
    assert tried == [2, 2]  # each engine tried the certificate once


def test_certificate_without_the_colon_check_is_caught(rng, monkeypatch):
    # (J : h)_m = J_m holds whenever the colon is read as J_m
    monkeypatch.setattr(hilbert, "colon_dim_from_engine",
                        lambda engine, col, t: len(engine.basis(t)))
    k, gens = PLANTED_NOT_REGULAR[0]
    assert regularity_certificate(GradedIdealEngine(QQ, k, gens), 2)
    with pytest.raises(AssertionError):
        _check_planted_not_regular()


@pytest.mark.parametrize("spec", [GF(2), GF(5), GF(7)],
                         ids=["GF(2)", "GF(5)", "GF(7)"])
def test_no_certificate_is_tried_over_gf(rng, monkeypatch, spec):
    tried = []
    monkeypatch.setattr(hilbert, "regularity_certificate",
                        lambda engine, m: tried.append(m))
    for _ in range(3):
        k = rng.randint(2, 3)
        code = random_code(rng, k, k + 1, spec)
        for a in range(1, code.n + 1):
            engine = ideal_engine(code, a)
            for t in range(a - 1, a + k + 6):
                engine.quotient_dim(t)
    for k, gens in PLANTED_NOT_REGULAR:
        engine = GradedIdealEngine(spec, k, gens)
        for t in range(1, 2 + k + 6):
            engine.quotient_dim(t)
    assert tried == []


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
    assert sum(c * 10**i for i, c in enumerate(fit.poly)) == 63


def test_oracle_matches_tutte_examples(e0, b3):
    for code in (e0, b3):
        coeffs = whitney_shift(tutte_subset_sum(code.matroid), code.k)
        h = weight_hierarchy(code)
        for a, p in enumerate(full_profile(code, coeffs, h), 1):
            fit = fit_hilbert_polynomial(code, a)
            assert fit.implied_height == p.height
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
    gens = {i: [poly_from_dict(spec, k, i, {m: 1})
                for m in monomials(c, i)
                for m in [tuple(m) + (0,) * (k - c)]]}
    engine = GradedIdealEngine(spec, k, gens)
    lo, his = default_windows(i, k)
    fit = fit_graded_quotient(k, engine.quotient_dim, i, lo, his)
    assert fit.implied_height == c
    assert fit.degree_invariant == comb(c + i - 1, c)


def test_window_error():
    # strictly growing Hilbert function in one variable can never stabilize
    with pytest.raises(WindowError):
        fit_graded_quotient(1, lambda t: 2**t, 0, 0, [6])


def test_colon_e0_example(e0):
    # I_3 : (x1+x2) = <x1 x2>, whose degree-t piece has dimension t-1
    engine, col = ideal_engine(e0, 3), e0.matrix.column(2)
    assert colon_dim_from_engine(engine, col, 1) == 0
    for t in range(2, 6):
        assert colon_dim_from_engine(engine, col, t) == t - 1


def test_colon_equals_deleted_at_generation_degree(rng):
    # proved slice: (I_a : ell)_{a-1} always matches the deleted ideal
    for _ in range(6):
        code = random_code_any(rng, max_k=3, max_n=5)
        for a in range(2, code.n + 1):
            engine = ideal_engine(code, a)
            for ell in range(code.n):
                lhs = colon_dim_from_engine(engine, code.matrix.column(ell),
                                            a - 1)
                rhs = deleted_engine(code, ell, a - 1).ideal_dim(a - 1)
                assert lhs == rhs


def test_colon_coloop_full_equality():
    # with a coloop column the colon ideal equals the deleted ideal in
    # every degree
    code = LinearCode(ExactMatrix.from_rows(
        GF(3), [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]))
    ell = 3
    assert is_coloop(code.matroid, ell)
    for a in range(2, code.n + 1):
        engine = ideal_engine(code, a)
        deleted = deleted_engine(code, ell, a - 1)
        for t in range(a - 1, a + 4):
            assert colon_dim_from_engine(engine, code.matrix.column(ell),
                                         t) == deleted.ideal_dim(t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(ORACLE_FIELDS))
def test_deleted_generators_picked_from_afold_list(seed, spec):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    code = random_code(rng, k, rng.randint(k, 6), spec)
    forms = oracle_forms(code)
    for a in range(1, code.n + 1):
        gens = afold_generators(code, a)
        for ell in range(code.n):
            rest = [forms[j] for j in range(code.n) if j != ell]
            picked = deleted_generators(code, ell, a, gens)
            assert picked.dtype == gens.dtype
            if a < code.n:
                assert picked.tolist() == hilbert._afold_from_columns(
                    spec, code.k, rest, a).tolist()
            else:
                assert picked.shape == (0, ring_dim(code.k, a))


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


@pytest.mark.parametrize("hypothesis, raises", [
    ("j>=2 (proved)", True),
    ("deleted column is a coloop (proved separately)", True),
    ("j=1 with shifted top coefficient (open)", False),
])
def test_unequal_degrees_fail_only_under_a_proved_hypothesis(hypothesis,
                                                             raises):
    cell = {"ell": 1, "coloop": False, "cells": {2: "=", 3: "!="},
            "colon_degree": "4", "deleted_degree": "5",
            "degrees_equal": False, "degree_hypothesis": hypothesis}
    if raises:
        with pytest.raises(InternalInvariantError,
                           match="^a=3, ell=1: colon degree 4 != deleted"):
            hilbert._check_proved(3, cell)
    else:
        hilbert._check_proved(3, cell)  # t = 3 >= a is an open cell


def test_afold_products_are_capped_before_expanding(b3, monkeypatch):
    # b3 has n = 9: C(9, 2) = 36 products fit a cap of 36, C(9, 3) = 84 do
    # not; a capped call expands none of its products (conjecture_report
    # runs a = 2 in full before a = 3 is capped)
    expanded = []
    product_coeffs = hilbert._product_coeffs

    def counted(p, k, columns):
        expanded.append(len(columns))
        return product_coeffs(p, k, columns)

    monkeypatch.setattr(hilbert, "_product_coeffs", counted)
    monkeypatch.setattr(hilbert, "PRODUCT_CAP", 36)
    assert len(afold_generators(b3, 2)) == 36 and len(expanded) == 36
    expanded.clear()
    for capped, count in ((lambda: afold_generators(b3, 3), 84),
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
                    assert cell["coloop"] is is_coloop(code.matroid, ell)
                    if "degree_hypothesis" in cell:
                        expected = tutte_degree_hypothesis(code, ell, r, j)
                        assert cell["degree_hypothesis"] == expected
                        seen[expected] += 1
    # the codes reach every branch of the rule
    assert len(seen) == 4
