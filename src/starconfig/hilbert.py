"""Independent Hilbert-function verification engine.

Builds the actual a-fold product generators as rows of coefficients,
computes graded dimensions by exact linear algebra, fits the Hilbert
polynomial via finite differences and interpolation, and recovers degree /
height / mu with zero reliance on the Tutte route.

Monomials of a fixed total degree are indexed in graded lexicographic
order.  Each degree's basis is kept as a numpy array of rows sorted by
pivot, with an array of its pivot columns.  Over GF(p) the rows are the
reduced row echelon form (RREF) mod p, eliminated in numpy in the dtype
that fields.exact_dtype gives: int64 while no sum of products can
overflow, Python ints (dtype object) past that, so every prime is exact.
Over the rationals the rows are primitive integer echelon rows (dtype
object), eliminated by a fraction-free pure-Python kernel.  Only the
dimensions of these spaces are read, and scaling a linear form by a
nonzero constant changes none of them, so over Q each form is scaled to a
primitive integer column first (oracle_forms): every generator and colon
row is a row of ints, and Fractions appear only in the fitted Hilbert
polynomial.

The engine eliminates only what a cached basis does not already settle.
The x_0 multiples of a degree's basis are the next degree's starting
basis, unchanged; once a degree is full, every later degree is the
identity, with no elimination; and a colon cell reduces only its own
multiplication rows against the cached basis, over GF(p) down to the
columns that carry no pivot.

Dimensions past a certain degree are not eliminated at all.  Gotzmann's
persistence theorem (Gotzmann, Math. Z. 158, 1978; Bruns-Herzog,
Cohen-Macaulay Rings, Thm 4.3.3): if J is generated in degrees <= s and
H_{R/J}(s+1) = H_{R/J}(s)^<s>, Macaulay's bound, then
H_{R/J}(t+1) = H_{R/J}(t)^<t> for every t >= s.  So the Hilbert function
of an ideal is eliminated degree by degree from its largest generator
degree up, and once two consecutive degrees meet the bound with equality,
every later degree is read off the bound (PersistentHF).  The theorem is
stated over any field; over GF(p) it also follows from the case of an
infinite field, since extending the field does not change the dimension
of any graded piece.  It uses no Tutte data, so the oracle stays
independent of the Tutte route.

Persistence cannot settle a constant Hilbert function d before degree d,
so over Q the engine also tries a regularity certificate, the criterion
of Bayer and Stillman ("A criterion for detecting m-regularity", Invent.
Math. 87, 1987, Thm 1.10): if J is generated in degrees <= m, h_1 .. h_j
are linear forms, J_i = J + (h_1 .. h_i), (J_{i-1} : h_i)_m = (J_{i-1})_m
for i = 1 .. j and (J_j)_m is all of degree m, then J is m-regular
(regularity_certificate).  Each colon is one colon_dim_from_engine call,
and passing to R/(h_i) substitutes for one variable in the rows of the
degree-m basis, an engine in one variable fewer.  Then reg R/J <= m - 1,
and H_{R/J}(t) = P(t), the Hilbert polynomial, for every t > reg R/J
(Eisenbud, The Geometry of Syzygies, ch. 4), so for every t >= m: P has
degree <= k-1, so H(m) .. H(m+k-1) give every later degree, and none is
eliminated.  A failure proves nothing and leaves persistence to settle H.
The forms are x_0 + c x_1 + ... + c^{k-1} x_{k-1} for c = 1, 2, 3 in
turn.  A form fails where it vanishes at a point on which two of a code's
lines meet, and with small entries the first often does: on the [6,3] Q
codes (entries in [-3, 3]) of one benchmark pool, c = 1 certified 11 of
33 engines and c = 2 or 3 the other 22, which roughly halved the pool's
median verify time against c = 1 alone.
The certificate reads only the engine's own rows and fixed forms.  It is
tried over Q only, because the field is part of the input: over GF(p) the
forms to try are finitely many and may all fail.  On one benchmark pool
of [7,3] codes over GF(5) and GF(7) it held on 11% of attempts with one
form, 31% with three, and 55% with every point of P^2(GF(p)) as the first
form, and every variant made the pass slower (with every point, 4.1 s
against 0.69 s of elimination).  So over GF(p) the engine never tries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, compress, islice
from math import comb, factorial, gcd

import numpy as np

from .codes import LinearCode, weight_hierarchy
from .fields import (CapExceeded, ExactArithError, FieldSpec,
                     InternalInvariantError, exact_dtype, primitive)

# Without the gcd passes of _echelon_int, a row's entries grow by every
# multiplier applied to it: on a [8,4] code over Q the fit for a = 6 took
# 3.4x as long.  One pass costs about one reduction step, so small
# matrices, whose multipliers are mostly 1, rarely pay for one.
_GROWTH_BITS = 64

# The most a-fold products one ideal may have, checked before any is
# expanded: verify and conjecture take every a <= n, so n <= 16.  It bounds
# the generators, not their elimination, whose cost still grows with k and
# over Q with the size of the entries (README, "--max-n").
PRODUCT_CAP = 1 << 14


class WindowError(ExactArithError):
    """Hilbert function did not stabilize inside the sampling window."""


# -- monomial bookkeeping ----------------------------------------------------

@lru_cache(maxsize=None)
def monomials(k: int, d: int) -> tuple:
    """Exponent tuples of total degree d in k variables, graded lex order."""
    if d < 0:
        return ()
    if k == 0:
        return ((),) if d == 0 else ()
    out = []
    for e in range(d, -1, -1):
        for rest in monomials(k - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(k: int, d: int) -> dict:
    return {m: i for i, m in enumerate(monomials(k, d))}


def ring_dim(k: int, t: int) -> int:
    """dim of the degree-t graded piece of a polynomial ring in k variables."""
    if t < 0:
        return 0
    return comb(t + k - 1, k - 1)


@lru_cache(maxsize=None)
def _mult_map(k: int, d: int, var: int) -> tuple:
    """Index of x_var * (degree-d monomial) among degree-(d+1) monomials."""
    idx = monomial_index(k, d + 1)
    out = []
    for m in monomials(k, d):
        bumped = list(m)
        bumped[var] += 1
        out.append(idx[tuple(bumped)])
    return tuple(out)


@lru_cache(maxsize=None)
def _restriction_matrix(k: int, d: int, c: int) -> np.ndarray:
    """The substitution x_0 -> -(c x_1 + c^2 x_2 + ... + c^{k-1} x_{k-1})
    on degree-d forms, as an integer matrix (dtype object) from the
    degree-d monomials in k variables to those in x_1 .. x_{k-1}: row
    x_0^e x^b is the coefficient row of (-(c x_1 + ...))^e x^b."""
    idx = monomial_index(k - 1, d)
    out = np.zeros((ring_dim(k, d), ring_dim(k - 1, d)), dtype=object)
    neg = [-c ** i for i in range(1, k)]
    powers = [_product_coeffs(None, k - 1, [neg] * e) for e in range(d + 1)]
    for row, (e, *rest) in zip(out, monomials(k, d)):
        for exps, v in zip(monomials(k - 1, e), powers[e]):
            row[idx[tuple(x + y for x, y in zip(exps, rest))]] = v
    return out


def _row_dtype(spec: FieldSpec):
    """dtype of the oracle's rows: exact_dtype(p, 1) over GF(p), Python
    ints (dtype object) over Q."""
    return object if spec.kind == "q" else exact_dtype(spec.modulus, 1)


def oracle_forms(code: LinearCode) -> list:
    """The code's linear forms as the oracle expands them: the columns as
    they are over GF(p), over Q each column scaled to a primitive integer
    column, which spans the same line."""
    columns = code.matrix.columns()
    if code.spec.kind == "q":
        return [primitive(col) for col in columns]
    return columns


def _product_coeffs(p, k: int, columns) -> list:
    """Graded-lex coefficient vector of a product of linear forms, given
    by columns of ints; reduced mod p after each factor unless p is None.

    Each factor sum_i c_i x_i maps the degree-d vector v to the one of
    degree d+1 with v[m] c_i added at x_i m.
    """
    vec = [1]
    for d, col in enumerate(columns):
        nxt = [0] * ring_dim(k, d + 1)
        for i in range(k):
            ci = col[i]
            if not ci:
                continue
            for x, dst in zip(vec, _mult_map(k, d, i)):
                if x:
                    nxt[dst] += x * ci
        vec = nxt if p is None else [x % p for x in nxt]
    return vec


def afold_generators(code: LinearCode, a: int) -> np.ndarray:
    """All C(n, a) expanded a-fold products of the code's oracle_forms, one
    row each, in the order of combinations; CapExceeded, before any is
    expanded, when there are more than PRODUCT_CAP."""
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    return _afold_from_columns(code.spec, code.k, oracle_forms(code), a)


def check_product_cap(n: int, a: int):
    """CapExceeded when the C(n, a) a-fold products of n forms are more
    than PRODUCT_CAP."""
    count = comb(n, a)
    if count > PRODUCT_CAP:
        raise CapExceeded(f"{count} {a}-fold products of {n} forms exceed "
                          f"product cap {PRODUCT_CAP}")


def _afold_from_columns(spec, k, columns, a) -> np.ndarray:
    check_product_cap(len(columns), a)
    p = spec.modulus if spec.kind == "gf" else None
    rows = [_product_coeffs(p, k, [columns[j] for j in subset])
            for subset in combinations(range(len(columns)), a)]
    return np.array(rows, dtype=_row_dtype(spec)).reshape(
        len(rows), ring_dim(k, a))


# -- exact rank engines ------------------------------------------------------

def _echelon_mod_p(mat, p: int) -> np.ndarray:
    """Reduced row echelon form over GF(p); returns the nonzero rows, each
    with its pivot 1 and zeros above and below it, pivots increasing, in
    dtype exact_dtype(p, 1).

    One any() over the rows not yet used lists the columns that can still
    hold a pivot, so columns without one cost nothing; they are taken in
    order, and the list is made again only when a listed column has lost
    its last nonzero entry.  Each pivot clears its column in the rows where
    it is nonzero.  Entries stay below p, so each step sums one product.
    """
    a = np.array(mat, dtype=exact_dtype(p, 1)) % p
    n_rows = len(a)
    r = c = 0
    while r < n_rows:
        for c in c + a[r:, c:].any(axis=0).nonzero()[0]:
            below = a[r:, c].nonzero()[0]
            if not below.size:
                break  # no pivot left in column c: list the columns again
            i = r + int(below[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            row = a[r, c:] * pow(int(a[r, c]), -1, p) % p
            a[r, c:] = row
            col = a[:, c].copy()
            col[r] = 0
            rows = col.nonzero()[0]
            a[rows, c:] = (a[rows, c:] - col[rows, None] * row) % p
            r += 1
            if r == n_rows:
                break
        else:
            break  # every listed column held a pivot
    return a[:r]


def _sub_mul_mod_p(acc: np.ndarray, x: np.ndarray, y: np.ndarray,
                   p: int) -> np.ndarray:
    """(acc - x @ y) mod p, in acc's dtype, for arrays with entries in
    [0, p).  Each entry sums x.shape[1] products and one entry of acc, so
    it is taken in exact_dtype(p, x.shape[1] + 1): over Python ints when
    int64 could overflow, as for p near 2^31."""
    work = exact_dtype(p, x.shape[1] + 1)
    out = (acc.astype(work, copy=False)
           - x.astype(work, copy=False) @ y.astype(work, copy=False)) % p
    return out.astype(acc.dtype, copy=False)


def _leading(v, start):
    """Index of the first nonzero entry of v at or after start, or None."""
    return next(compress(range(start, len(v)), islice(v, start, None)), None)


def _echelon_int(rows, basis=None) -> list:
    """Row echelon form over Q, fraction-free on plain ints; returns the
    nonzero echelon rows sorted by pivot column, each a primitive integer
    list with a positive pivot.

    basis, if given, is a dict pivot column -> row of rows in the form this
    function returns, with distinct pivots; the rows are reduced against it
    and join it, so the dict is extended in place and its rows are reused,
    never copied or changed.  The result then spans the basis rows too.

    A row v enters as a primitive integer vector (fields.primitive) and is
    reduced at its leading entry piv, against the basis row b with that
    pivot, until its leading entry is no pivot; v is zero before piv, so a
    step touches v[piv:] only.  The step is fraction-free, after Bareiss
    (1968): v <- (b[piv]/g) v - (v[piv]/g) b with g = gcd(v[piv], b[piv]).
    The gcd of v's entries is divided out whenever the multipliers
    b[piv]/g since the last division exceed _GROWTH_BITS, and when v
    becomes a basis row, with its pivot made positive.  Only row operations
    are used and the pivots are distinct, so the rows returned span the
    input rows and their number is the rank.
    """
    if basis is None:
        basis = {}
    for row in rows:
        v = primitive(row)
        piv = _leading(v, 0)
        grown = 0
        while piv in basis:
            b, c = basis[piv], v[piv]
            g = gcd(c, b[piv])
            d, c = b[piv] // g, c // g
            w = [d * x - c * y for x, y in zip(v[piv:], b[piv:])]
            grown += d.bit_length()
            if grown > _GROWTH_BITS:
                grown = 0
                g = gcd(*w)
                if g > 1:
                    w = [x // g for x in w]
            v[piv:] = w
            piv = _leading(v, piv + 1)
        if piv is None:
            continue
        g = gcd(*v) if v[piv] > 0 else -gcd(*v)
        if g != 1:
            v = [x // g for x in v]
        basis[piv] = v
    return [basis[piv] for piv in sorted(basis)]


# -- Gotzmann persistence ----------------------------------------------------

def macaulay_bound(h: int, d: int) -> int:
    """Macaulay's bound h^<d> for d >= 1.

    With h written in its d-binomial expansion
    h = C(k_d, d) + C(k_{d-1}, d-1) + ... + C(k_j, j),
    k_d > k_{d-1} > ... > k_j >= j >= 1, the bound is
    h^<d> = C(k_d + 1, d + 1) + ... + C(k_j + 1, j + 1), and 0^<d> = 0.
    Every standard graded algebra has H(d+1) <= H(d)^<d>.
    """
    out = 0
    while h:
        top = d  # the largest top with C(top, d) <= h
        while comb(top + 1, d) <= h:
            top += 1
        out += comb(top + 1, d + 1)
        h -= comb(top, d)
        d -= 1
    return out


class PersistentHF:
    """The Hilbert function H of R/J, for J generated in degrees <= d in
    k variables.

    Each call passes hf, which computes H(t) by elimination, and certify,
    None or a regularity certificate (see below); they are used only until
    H is settled.  Neither is stored, so an engine that holds a
    PersistentHF forms no reference cycle and is freed as soon as it is
    dropped, without waiting for the cycle collector.

    Degrees d, d+1, ... are computed in increasing order, and H settles in
    one of two ways; settled is then the last degree passed to hf, and
    every later degree is derived, never passed to hf.
    - Gotzmann: once two consecutive degrees s and s+1 meet Macaulay's
      bound with equality, H(s+1) = H(s)^<s>, H(t+1) = H(t)^<t> for every
      t >= s, and settled is s+1.
    - Regularity: certify(d) is called once, just before degree d+k would
      be passed to hf, unless Gotzmann has settled by then.  If it returns
      True, J is d-regular, so H(t) = P(t) for every t >= d with P the
      Hilbert polynomial, of degree <= k-1: the k-th difference of H is 0
      from d on, so each later degree follows from the k before it, and
      settled is d+k-1.
    Degrees below d are hf's alone.
    """

    def __init__(self, d: int, k: int):
        self._start = max(d, 1)
        self._k = k
        self._run = []  # H(start), H(start + 1), ... so far
        self.settled = None
        self.certified = False

    def __call__(self, t: int, hf, certify=None) -> int:
        if t < self._start:
            return hf(t)
        run = self._run
        while len(run) <= t - self._start:
            u = self._start + len(run)
            if (self.settled is None and certify is not None
                    and len(run) == self._k and certify(self._start)):
                self.settled, self.certified = u - 1, True
            if self.certified:
                run.append(-sum((-1) ** j * comb(self._k, j) * run[-j]
                                for j in range(1, self._k + 1)))
                continue
            if self.settled is not None:
                run.append(macaulay_bound(run[-1], u - 1))
                continue
            h = hf(u)
            if run and h == macaulay_bound(run[-1], u - 1):
                self.settled = u
            run.append(h)
        return run[t - self._start]


class GradedIdealEngine:
    """Graded pieces of a homogeneous ideal given by generators.

    Bases are built degree by degree: the degree-t piece is spanned by the
    variable multiples of the degree-(t-1) basis plus the generators of
    degree t.  Multiplication by x_0 maps the degree-(t-1) monomials, in
    order, onto the first ring_dim(k, t-1) monomials of degree t, so the
    x_0 multiples are the previous basis padded with zero columns and stay
    echelon; only the other multiples and the generators are reduced
    against them, over GF(p) one variable's multiples at a time.  Once a
    degree is full, every later degree is full too (I_t contains
    R_1 R_{t-1} = R_t), and its basis is the identity with no elimination.
    Bases and their pivots are cached per degree.

    ideal_dim and quotient_dim go through Gotzmann persistence
    (PersistentHF), started at max_degree, the largest generator degree:
    the theorem needs every generator in degrees <= s, so an earlier start
    is wrong for mixed degrees ((x^2, y^5) in K[x, y] has H = 1, 2, 2, 2,
    2, 1, 0, and H(3) = H(2)^<2> = 2).  Over Q they also try, once, the
    regularity certificate (regularity_certificate) for max_degree.  Once
    the Hilbert function has settled either way, no later degree's basis
    is eliminated for a dimension; basis still eliminates when it is
    called.  Over GF(p) the theorem holds as over any field: the
    dimensions do not change under field extension.
    """

    def __init__(self, spec: FieldSpec, k: int, gens: dict):
        """gens maps a degree to its generators: an array, or a list, of
        rows of ring_dim(k, degree) coefficients each, ints over Q and
        residues over GF(p).  They are reduced mod p and their zero rows
        dropped here, once; a row of another width is an ExactArithError."""
        self.spec = spec
        self.k = k
        self._dtype = _row_dtype(spec)
        self.by_degree = {}
        for degree, rows in gens.items():
            width = ring_dim(k, degree)
            try:
                rows = np.asarray(rows, dtype=self._dtype)
            except ValueError:
                # rows of unequal lengths: dtype object reads them as a 1-D
                # array of lists, as it does over Q, whose shape is refused
                rows = np.asarray(rows, dtype=object)
                if rows.shape[1:] == (width,):
                    raise
            if rows.shape[1:] != (width,):
                raise ExactArithError(
                    f"degree-{degree} generators in {k} variables need "
                    f"{width} coefficients, got an array of shape "
                    f"{rows.shape}")
            if spec.kind == "gf":
                rows = rows % spec.modulus
            rows = rows[(rows != 0).any(axis=1)]
            if len(rows):
                self.by_degree[degree] = rows
        self.min_degree = min(self.by_degree, default=None)
        self.max_degree = max(self.by_degree, default=None)
        self._basis = {}   # t -> basis rows, an array sorted by pivot
        self._pivots = {}  # t -> their pivot columns, an int array
        self._hilbert = PersistentHF(self.max_degree or 1, k)

    def basis(self, t: int):
        """Basis rows of the degree-t piece of the ideal, as an array
        sorted by pivot: the RREF mod p over GF(p), in dtype
        exact_dtype(p, 1); over Q echelon rows of primitive integers with
        positive pivots, in dtype object."""
        if t in self._basis:
            return self._basis[t]
        width = ring_dim(self.k, t)
        if self.min_degree is None or t < self.min_degree:
            return self._store_unit_rows(t, width, 0)
        prev = self.basis(t - 1)
        if t > self.min_degree and len(prev) == ring_dim(self.k, t - 1):
            return self._store_unit_rows(t, width, width)
        rows = np.zeros((len(prev), width), dtype=self._dtype)
        rows[:, :prev.shape[1]] = prev
        pivots = self._pivots[t - 1]
        blocks = [self._shift(prev, t, var) for var in range(1, self.k)]
        if t in self.by_degree:
            blocks.append(self.by_degree[t])
        if self.spec.kind == "gf":
            p = self.spec.modulus
            # Block by block, each block is reduced against every pivot
            # found so far by one product.  Stacked, the later blocks would
            # be cleared of the earlier blocks' pivots one outer product at
            # a time, which made [8,4] codes over GF(5) slower than before.
            for block in blocks:
                if len(block):
                    rows, pivots = _extend_rref(rows, pivots, block, p)
        else:
            start = dict(zip(pivots.tolist(), rows.tolist()))
            rows = _echelon_int(np.concatenate(blocks).tolist(), start)
            rows = np.array(rows, dtype=object).reshape(-1, width)
            pivots = np.fromiter(sorted(start), dtype=np.int64)
        self._basis[t], self._pivots[t] = rows, pivots
        return rows

    def _shift(self, prev, t, var):
        """x_var times each degree-(t-1) basis row, as degree-t rows."""
        out = np.zeros((len(prev), ring_dim(self.k, t)), dtype=self._dtype)
        out[:, list(_mult_map(self.k, t - 1, var))] = prev
        return out

    def _store_unit_rows(self, t, width, rank):
        """Cache the unit rows e_0 .. e_{rank-1} as the degree-t basis: the
        empty basis for rank 0, the full degree for rank width."""
        self._basis[t] = np.eye(rank, width, dtype=self._dtype)
        self._pivots[t] = np.arange(rank)
        return self._basis[t]

    def free_monomials(self, t: int) -> list:
        """Indices of the degree-t monomials that are no pivot of the
        degree-t basis; their unit vectors span R_t modulo I_t."""
        self.basis(t)
        free = np.ones(ring_dim(self.k, t), dtype=bool)
        free[self._pivots[t]] = False
        return free.nonzero()[0].tolist()

    def ideal_dim(self, t: int) -> int:
        return ring_dim(self.k, t) - self.quotient_dim(t)

    def quotient_dim(self, t: int) -> int:
        # with no generators the ideal is zero: nothing to certify
        if self.spec.kind == "q" and self.max_degree is not None:
            return self._hilbert(t, self._eliminated_quotient_dim,
                                 partial(regularity_certificate, self))
        return self._hilbert(t, self._eliminated_quotient_dim)

    def _eliminated_quotient_dim(self, t: int) -> int:
        return ring_dim(self.k, t) - len(self.basis(t))

    def rank_with_extra_rows(self, t: int, extra) -> int:
        """Rank of the degree-t ideal piece together with extra vectors.

        Only the extra rows are reduced, against the cached basis: over
        GF(p) down to the quotient_dim(t) columns without a pivot, whose
        rank is added to the basis's.
        """
        base = self.basis(t)
        width = ring_dim(self.k, t)
        if len(base) == width:
            return width
        if self.spec.kind == "q":
            start = dict(zip(self._pivots[t].tolist(), base.tolist()))
            return len(_echelon_int(extra, start))
        p = self.spec.modulus
        extra = np.array(extra, dtype=self._dtype).reshape(-1, width) % p
        _, rest = _reduce_mod_p(base, self._pivots[t], extra, p)
        return len(base) + len(_echelon_mod_p(rest, p))


def _reduce_mod_p(basis, piv, rows, p):
    """Reduce rows against an RREF basis with pivot columns piv, all mod p
    with entries in [0, p).  Returns the mask free of the columns without a
    pivot, and rest = rows[:, free] - rows[:, piv] @ basis[:, free]: the
    reduced rows, which are zero on the pivot columns, so the rank of basis
    and rows together is len(basis) + rank(rest)."""
    free = np.ones(basis.shape[1], dtype=bool)
    free[piv] = False
    return free, _sub_mul_mod_p(rows[:, free], rows[:, piv], basis[:, free], p)


def _extend_rref(start, piv, extra, p):
    """RREF (rows sorted by pivot, and their pivot columns) of the span of
    start, an RREF array with pivot columns piv, and the rows of extra,
    all mod p with entries in [0, p)."""
    free, rest = _reduce_mod_p(start, piv, extra, p)
    new = _echelon_mod_p(rest, p)
    if not len(new):
        return start, piv
    # each row's pivot is its first nonzero entry
    new_piv = np.flatnonzero(free)[(new != 0).argmax(axis=1)]
    added = np.zeros((len(new), start.shape[1]), dtype=start.dtype)
    added[:, free] = new
    # clear the new pivot columns in the old rows; added is zero at piv
    start = _sub_mul_mod_p(start, start[:, new_piv], added, p)
    rows = np.concatenate([start, added])
    pivots = np.concatenate([piv, new_piv])
    order = np.argsort(pivots)
    return rows[order], pivots[order]


# -- Hilbert polynomial fitting ----------------------------------------------

@dataclass(frozen=True)
class FittedHP:
    """Interpolated Hilbert polynomial of a graded quotient.

    poly holds Fraction coefficients in ascending powers of t; empty means
    the zero polynomial (finite length), in which case degree_invariant is
    the total K-length of the quotient.
    """

    k: int
    poly: tuple
    stable_from: int
    samples: dict

    @property
    def dim_proj(self) -> int:
        return len(self.poly) - 1 if self.poly else -1

    @property
    def implied_height(self) -> int:
        return self.k - (self.dim_proj + 1)

    @property
    def degree_invariant(self) -> int:
        if not self.poly:
            return sum(self.samples.values())
        lead = self.poly[-1] * factorial(self.dim_proj)
        if lead.denominator != 1:
            raise ExactArithError(
                f"leading Hilbert coefficient {self.poly[-1]} is not "
                f"1/{self.dim_proj}! times an integer")
        return lead.numerator

    def to_json(self) -> dict:
        return {
            "poly": [str(c) for c in self.poly],
            "stable_from": self.stable_from,
            "dim_proj": self.dim_proj,
            "implied_height": self.implied_height,
            "degree": str(self.degree_invariant),
            "hilbert_function": {str(t): v
                                 for t, v in sorted(self.samples.items())},
        }


def _interpolate(t0: int, values) -> tuple:
    """The polynomial through (t0 + i, values[i]), exact; returns ascending
    Fraction coefficients with trailing zeros trimmed.

    Newton's forward-difference form p(t) = sum_j D^j v_0 C(t - t0, j)
    with m points, times (m-1)!, has integer coefficients: the integer
    differences D^j v_0 times (m-1)!/j! times the falling factorial
    (t - t0)(t - t0 - 1)...(t - t0 - j + 1).  Fractions appear only in the
    division by (m-1)! at the end.
    """
    m = len(values)
    acc = [0] * m
    falling = [1]  # ascending coefficients of the falling factorial
    row = list(values)
    for j in range(m):
        if row[0]:
            w = row[0] * (factorial(m - 1) // factorial(j))
            for i, c in enumerate(falling):
                acc[i] += w * c
        row = [y - x for x, y in zip(row, row[1:])]
        r = t0 + j  # falling *= (t - r)
        falling = [x - r * y for x, y in zip([0] + falling, falling + [0])]
    while acc and acc[-1] == 0:
        acc.pop()
    den = factorial(m - 1) if m else 1
    return tuple(Fraction(c, den) for c in acc)


def fit_graded_quotient(k: int, hf, gen_degree: int,
                        lo: int, hi_steps) -> FittedHP:
    """Fit the eventual polynomial of a Hilbert function.

    hf(t) must return the quotient dimension at degree t; below gen_degree
    the quotient is the full ring piece (the ideal is empty there), which
    is used analytically for the finite-length total.  hi_steps is the
    increasing list of window upper ends tried before giving up.
    """
    samples = {}

    def sample(t):
        if t not in samples:
            samples[t] = ring_dim(k, t) if t < gen_degree else hf(t)
        return samples[t]

    for hi in hi_steps:
        for t in range(lo, hi + 1):
            sample(t)
        ts = sorted(samples)
        tail = ts[-k:] if k else ts[-1:]  # consecutive degrees
        poly = _interpolate(tail[0], [samples[t] for t in tail])
        # walk backward: how far does the fit reproduce the samples?
        stable_from = tail[0]
        for t in reversed(ts):
            val = sum(c * t**i for i, c in enumerate(poly))
            if val != samples[t]:
                break
            stable_from = t
        matched = ts[-1] - stable_from + 1
        if matched < k + 1:
            continue  # widen window
        if not poly:
            # finite length: every degree >= stable_from vanishes; the
            # total K-length adds the full ring pieces below gen_degree
            return FittedHP(k, (), stable_from,
                            {**{t: ring_dim(k, t)
                                for t in range(0, gen_degree)},
                             **{t: sample(t)
                                for t in range(gen_degree, ts[-1] + 1)}})
        return FittedHP(k, poly, stable_from, dict(samples))
    raise WindowError(f"Hilbert function not stabilized by t={hi_steps[-1]}, "
                      "the last degree of the oracle's windows")


def default_windows(a: int, k: int):
    """Default fitting windows: [a-1, a+k+3], doubling width to a hard cap."""
    lo = a - 1
    cap = a + 4 * k + 8
    his = []
    hi = a + k + 3
    while hi < cap:
        his.append(hi)
        hi = a + 2 * (hi - a)
    his.append(cap)
    return lo, his


def ideal_engine(code: LinearCode, a: int) -> GradedIdealEngine:
    return GradedIdealEngine(code.spec, code.k,
                             {a: afold_generators(code, a)})


def fit_hilbert_polynomial(code: LinearCode, a: int, engine=None) -> FittedHP:
    """Hilbert polynomial of R / I_a, fitted from exact graded dimensions
    over default_windows(a, k).

    engine, if given, must be ideal_engine(code, a); its cached bases are
    reused and extended.
    """
    if engine is None:
        engine = ideal_engine(code, a)
    return fit_graded_quotient(code.k, engine.quotient_dim, a,
                               *default_windows(a, code.k))


def mu_oracle(code: LinearCode, a: int, engine=None) -> int:
    """Rank of the generator span in degree a: the minimal generator count.

    engine, if given, must be ideal_engine(code, a).
    """
    if engine is None:
        engine = ideal_engine(code, a)
    return engine.ideal_dim(a)


# -- colon ideals ------------------------------------------------------------

def _linear_multiplication_rows(k, col, t, sources):
    """Rows of multiplication by the linear form of column col, mapping
    the degree-t monomials whose indices are in sources into degree t+1."""
    width = ring_dim(k, t + 1)
    rows = []
    terms = [(_mult_map(k, t, var), c) for var, c in enumerate(col[:k]) if c]
    for src in sources:
        row = [0] * width
        for targets, c in terms:  # x_var * m differ for distinct var
            row[targets[src]] = c
        rows.append(row)
    return rows


def colon_dim_from_engine(engine: GradedIdealEngine, col, t: int) -> int:
    """dim (I : ell)_t = dim R_t - rank of the multiplication image
    modulo the degree-(t+1) piece of I.

    ell I_t lies in I_{t+1}, and the degree-t monomials off the pivots of
    the degree-t basis span R_t modulo I_t, so only their images can add
    to the rank.
    """
    extra = _linear_multiplication_rows(engine.k, col, t,
                                        engine.free_monomials(t))
    joint = engine.rank_with_extra_rows(t + 1, extra)
    image_mod_ideal = joint - engine.ideal_dim(t + 1)
    return ring_dim(engine.k, t) - image_mod_ideal


def colon_dims(engine: GradedIdealEngine, col):
    """t -> dim (I : ell)_t, for I the ideal of engine; the conjecture
    cells and the colon fit share it, so each colon at
    t >= engine.max_degree - 1 is computed once.

    The exact sequence 0 -> R/(I : ell)(-1) -> R/I -> R/(I + ell) -> 0
    gives dim (I : ell)_t = dim R_t - H_{R/I}(t+1) + H_{R/(I+ell)}(t+1).
    I + ell is generated in degrees <= max(1, engine.max_degree), so
    H_{R/(I+ell)} goes through Gotzmann persistence from there; below the
    degree where it settles, its values come from colon_dim_from_engine,
    the one exact colon computation, and past it no colon is eliminated.
    """
    k = engine.k

    def plus_ell(u):
        return (colon_dim_from_engine(engine, col, u - 1)
                - ring_dim(k, u - 1) + engine.quotient_dim(u))

    hf = PersistentHF(engine.max_degree or 1, k)
    return lambda t: (ring_dim(k, t) - engine.quotient_dim(t + 1)
                      + hf(t + 1, plus_ell))


# The c of the forms certificate_form(k, c) a regularity certificate tries,
# in order; the module docstring says why c = 1 alone is not enough.
CERTIFICATE_STEPS = (1, 2, 3)


def certificate_form(k: int, c: int) -> list:
    """x_0 + c x_1 + c^2 x_2 + ... + c^{k-1} x_{k-1}, as a column."""
    return [c ** i for i in range(k)]


def _restricted(engine: GradedIdealEngine, c: int,
                m: int) -> GradedIdealEngine:
    """The engine, in the k-1 variables x_1 .. x_{k-1}, of the ideal
    generated by the image of the degree-m piece in R/(h), for
    h = certificate_form(k, c): each basis row with x_0 replaced by
    -(c x_1 + c^2 x_2 + ... + c^{k-1} x_{k-1})."""
    rows = engine.basis(m).dot(_restriction_matrix(engine.k, m, c))
    return GradedIdealEngine(engine.spec, engine.k - 1, {m: rows})


def regularity_certificate(engine: GradedIdealEngine, m: int) -> bool:
    """Whether the forms of some c in CERTIFICATE_STEPS prove the engine's
    ideal J m-regular by the criterion of Bayer and Stillman.

    J must be generated in degrees <= m.  For each c in turn, h_1, h_2, ...
    are certificate_form(c) in x_0 .. x_{k-1}, then in x_1 .. x_{k-1}, and
    so on, and J_i = J + (h_1 .. h_i).  Each step checks
    (J_{i-1} : h_i)_m = (J_{i-1})_m with colon_dim_from_engine, then
    passes to R/(h_i) (_restricted); c succeeds once some (J_i)_m is all
    of degree m.  Only degrees m and m+1 of each J_i are read, and J_i is
    generated in degrees <= m, so the image of its degree-m piece gives
    both.  A c whose check fails at some step proves nothing, and the next
    c starts over from J.
    """
    for c in CERTIFICATE_STEPS:
        step = engine
        while len(step.basis(m)) < ring_dim(step.k, m):
            if colon_dim_from_engine(step, certificate_form(step.k, c),
                                     m) != len(step.basis(m)):
                break
            if step.k == 1:
                return True  # J_i + (h) holds x_0, so all of degree m
            step = _restricted(step, c, m)
        else:
            return True
    return False


def deleted_generators(code: LinearCode, ell_index: int, a: int,
                       gens: np.ndarray) -> np.ndarray:
    """The a-fold products of the code's columns other than ell_index, in
    the order of combinations of those columns, picked out of gens, which
    must be afold_generators(code, a), in that order."""
    keep = np.fromiter((ell_index not in subset
                        for subset in combinations(range(code.n), a)),
                       dtype=bool, count=len(gens))
    return gens[keep]


# -- conjecture diagnostics --------------------------------------------------

def conjecture_report(code: LinearCode, t_max: int) -> dict:
    """Per-degree colon-equality tables plus Hilbert stabilization and
    degree diagnostics for the linear-resolution and colon conjectures.

    The per-degree equalities at t >= a are reported observations, never
    assertions; the t = a-1 slice, coloop columns and the degree
    comparisons under a "(proved)" hypothesis are proved facts.  Over Q
    each proved fact is checked, and one that fails raises
    InternalInvariantError.  Over GF(p) none is: the conjecture is stated
    for characteristic 0, and which of its proofs hold in positive
    characteristic is not settled.
    An a with C(n, a) > PRODUCT_CAP raises CapExceeded when reached.

    Every matroid fact a cell needs is read once per report from the
    code's flats; no deletion M \\ ell is built.
    Column ell is a coloop when E - ell is a flat of rank k - 1, that is
    a flat of that rank with n - 1 elements.  It divides every a-fold
    product when a > n - |P|, where P, its parallel class, is the rank-1
    flat that holds it.  For each r, the elements that lie in every
    largest flat of rank k - r decide the j = 1 hypothesis (see
    _degree_hypothesis).
    """
    m = code.matroid
    hierarchy = weight_hierarchy(code)
    full = (1 << code.n) - 1
    coloop = [False] * code.n
    for flat in m.flats_of_rank(code.k - 1):
        if flat.size == code.n - 1:
            coloop[(full ^ flat.members).bit_length() - 1] = True
    class_size = [0] * code.n
    for flat in m.flats_of_rank(1):
        for ell in flat.indices():
            class_size[ell] = flat.size
    # the largest flats of rank k - r have n - d_r elements
    in_every_largest = [full] * code.k
    for r in range(1, code.k):
        for flat in m.flats_of_rank(code.k - r):
            if flat.size == code.n - hierarchy.d[r]:
                in_every_largest[r] &= flat.members

    report = {
        "n": code.n,
        "k": code.k,
        "field": ("Q" if code.spec.kind == "q"
                  else f"GF({code.spec.modulus})"),
        "char_zero_hypothesis": code.spec.kind == "q",
        "note": (None if code.spec.kind == "q" else
                 "positive characteristic: outside the stated hypothesis "
                 "(characteristic 0) of the resolution conjecture"),
        "t_max": t_max,
        "entries": [],
    }
    forms = oracle_forms(code)
    gens = afold_generators(code, 1)
    for a in range(2, code.n + 1):
        # each deleted engine for a picks its products out of prev_gens
        prev_gens, gens = gens, afold_generators(code, a)
        engine = GradedIdealEngine(code.spec, code.k, {a: gens})
        entry = {"a": a, "columns": []}
        try:
            fit = fit_hilbert_polynomial(code, a, engine=engine)
            entry["stable_from"] = fit.stable_from
            entry["linear_resolution_consistent"] = fit.stable_from <= a
            entry["fit"] = fit.to_json()
        except WindowError:
            entry["stable_from"] = None
            entry["linear_resolution_consistent"] = None
        r = hierarchy.interval_index(a)
        j = a - hierarchy.d[r]
        for ell in range(code.n):
            cell = {"ell": ell + 1, "label": code.labels[ell]}
            cell["coloop"] = coloop[ell]
            if a > code.n - class_size[ell]:
                # every a-fold product carries this form as a factor
                cell["cells"] = {t: "auto"
                                 for t in range(a - 1, t_max + 1)}
                cell["automatic"] = True
            else:
                cell["automatic"] = False
                deleted = GradedIdealEngine(code.spec, code.k, {
                    a - 1: deleted_generators(code, ell, a - 1, prev_gens)})
                colon_dim = colon_dims(engine, forms[ell])
                cells = {}
                for t in range(a - 1, t_max + 1):
                    lhs = colon_dim(t)
                    rhs = deleted.ideal_dim(t)
                    cells[t] = "=" if lhs == rhs else "!="
                cell["cells"] = cells
                # degree comparison of the two sides via fitted HPs,
                # annotated with the hypothesis the degree equality needs
                if r >= 1:
                    try:
                        colon_fit = fit_graded_quotient(
                            code.k,
                            lambda t: ring_dim(code.k, t) - colon_dim(t),
                            a - 1, *default_windows(a - 1, code.k))
                        del_fit = fit_graded_quotient(
                            code.k, deleted.quotient_dim, a - 1,
                            *default_windows(a - 1, code.k))
                        cell["colon_degree"] = str(colon_fit.degree_invariant)
                        cell["deleted_degree"] = str(del_fit.degree_invariant)
                        cell["degrees_equal"] = (
                            colon_fit.degree_invariant
                            == del_fit.degree_invariant
                            and colon_fit.dim_proj == del_fit.dim_proj)
                    except WindowError:
                        cell["degrees_equal"] = "inconclusive"
                    cell["degree_hypothesis"] = _degree_hypothesis(
                        j, coloop[ell], bool(in_every_largest[r] >> ell & 1))
            if code.spec.kind == "q":
                _check_proved(a, cell)
            entry["columns"].append(cell)
        report["entries"].append(entry)
    return report


def _check_proved(a: int, cell: dict):
    """InternalInvariantError when a column's cells contradict a proved
    fact: a "!=" at t = a-1 or anywhere in a coloop column, or unequal
    degrees under a proved hypothesis."""
    for t, verdict in cell["cells"].items():
        if verdict == "!=" and (t == a - 1 or cell["coloop"]):
            raise InternalInvariantError(
                f"a={a}, ell={cell['ell']}, t={t}: the colon ideal and the "
                f"deleted ideal differ in a proved cell")
    if (cell.get("degrees_equal") is False
            and "(proved" in cell["degree_hypothesis"]):
        raise InternalInvariantError(
            f"a={a}, ell={cell['ell']}: colon degree {cell['colon_degree']} "
            f"!= deleted degree {cell['deleted_degree']} under "
            f"{cell['degree_hypothesis']}")


def _degree_hypothesis(j: int, coloop: bool, in_every_largest: bool) -> str:
    """Which proved hypothesis, if any, gives the colon ideal I_a : ell and
    the deleted ideal equal degrees, for a = d_r + j inside (d_r, d_{r+1}].

    j >= 2 is proved, and so is a coloop ell.  For j = 1 the proof needs
    T(M) and T(M \\ ell) to share the top shifted coefficient p_r, and
    p_r = |largest flat of rank k - r| - (k - r) (Jurrius-Pellikaan,
    "Codes, arrangements and matroids", 2013).  Deleting ell keeps p_r
    exactly when ell avoids some largest flat of rank k - r, that is when
    in_every_largest, whether ell lies in every such flat, is false."""
    if j >= 2:
        return "j>=2 (proved)"
    if coloop:
        return "deleted column is a coloop (proved separately)"
    if not in_every_largest:
        return "j=1 with matching top coefficients (proved)"
    return "j=1 with shifted top coefficient (open)"


def render_conjecture_matrix(report: dict) -> str:
    """Plaintext matrix: rows a, columns t; each cell merges the per-column
    verdicts ('=' all equal, '!=' any mismatch, 'auto' all automatic)."""
    ts = range(1, report["t_max"] + 1)
    lines = [["    "] + [f"t={t}" for t in ts]]
    for entry in report["entries"]:
        row = [f"a={entry['a']:<3}"]
        for t in ts:
            verdicts = set()
            for cell in entry["columns"]:
                v = cell["cells"].get(t)
                if v is not None:
                    verdicts.add(v)
            if not verdicts:
                row.append(".")
            elif "!=" in verdicts:
                row.append("!=")
            elif verdicts == {"auto"}:
                row.append("auto")
            else:
                row.append("=")
        lines.append(row)
    widths = [max(len(line[i]) for line in lines)
              for i in range(len(lines[0]))]
    out = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths))
           for line in lines]
    return "\n".join(out)
