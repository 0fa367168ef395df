"""Independent Hilbert-function verification engine.

Builds the actual a-fold product generators as dense polynomials, computes
graded dimensions by exact linear algebra, fits the Hilbert polynomial via
finite differences and interpolation, and recovers degree / height / mu
with zero reliance on the Tutte route.

Monomials of a fixed total degree are indexed in graded lexicographic
order.  Over GF(p) with p < 2^31 ranks run on int64 numpy arrays with all
arithmetic done mod p, which is still exact, and each degree's basis is
kept in reduced row echelon form (RREF) with its pivot columns.  Over the
rationals, and over GF(p) for larger p, they run in one pure-Python kernel
on plain ints: fraction-free elimination of primitive integer rows over Q,
mod-p elimination otherwise, with each degree's echelon rows kept by
pivot.  Fractions appear in the rational generators and colon rows, whose
denominators are cleared as a row enters the kernel, and in the fitted
Hilbert polynomial, never in elimination.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, islice
from math import comb, factorial, gcd, lcm

import numpy as np

from .codes import LinearCode, weight_hierarchy
from .fields import CapExceeded, ExactArithError, FieldSpec, primitive

# Below this prime ranks use int64 numpy arrays; larger primes use the
# pure-Python kernel.  _echelon_mod_p reduces mod p after every product,
# so its values stay below p^2 < 2^62.  A matrix product of residues, as in
# a colon cell's reduction against an RREF basis, sums its inner products
# in chunks of at most (2^63 - 1) // (p - 1)^2 - 1 terms and reduces after
# each (_sub_mul_mod_p): one term per chunk for p near 2^31.
_NUMPY_P_CAP = 1 << 31

# Without the gcd passes of _echelon_int, a row's entries grow by every
# multiplier applied to it: on a [8,4] code over Q the fit for a = 6 took
# 3.4x as long.  One pass costs about one reduction step, so small
# matrices, whose multipliers are mostly 1, rarely pay for one.
_GROWTH_BITS = 64

# The most a-fold products one ideal may have, checked before any is
# expanded: verify and conjecture take every a <= n, so n <= 16.  Their
# elimination still grows with k, and over Q (README, "--max-n")
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


@dataclass(frozen=True)
class DensePoly:
    """Homogeneous polynomial as a coefficient vector over the graded-lex
    monomial basis of its degree."""

    spec: FieldSpec
    k: int
    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != ring_dim(self.k, self.degree):
            raise ExactArithError("coefficient vector has wrong length")

    @classmethod
    def from_dict(cls, spec, k, degree, table) -> "DensePoly":
        idx = monomial_index(k, degree)
        coeffs = [spec.zero] * ring_dim(k, degree)
        for exps, c in table.items():
            coeffs[idx[exps]] = spec.coerce(c)
        return cls(spec, k, degree, tuple(coeffs))

    def is_zero(self) -> bool:
        zero = self.spec.zero
        return all(c == zero for c in self.coeffs)


def _product_coeffs(spec: FieldSpec, k: int, columns) -> list:
    """Graded-lex coefficient vector of a product of linear forms.

    Each factor sum_i c_i x_i maps the degree-d vector v to the one of
    degree d+1 with v[m] c_i added at x_i m.  All arithmetic is on plain
    ints: reduced mod p after each factor over GF(p); over Q each column
    is scaled by the lcm of its denominators, and the product divided by
    the product of the scales at the end, as Fractions.
    """
    p = spec.modulus if spec.kind == "gf" else None
    scale = 1
    if p is None:
        scaled = []
        for col in columns:
            den = lcm(*(x.denominator for x in col))
            scaled.append([x.numerator * (den // x.denominator) for x in col])
            scale *= den
        columns = scaled
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
    return [Fraction(x, scale) for x in vec] if p is None else vec


def afold_generators(code: LinearCode, a: int) -> list:
    """All C(n, a) expanded a-fold products of the code's linear forms;
    CapExceeded, before any is expanded, when there are more than
    PRODUCT_CAP."""
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    return _afold_from_columns(code.spec, code.k,
                               code.matrix.columns(), a)


def check_product_cap(n: int, a: int):
    """CapExceeded when the C(n, a) a-fold products of n forms are more
    than PRODUCT_CAP."""
    count = comb(n, a)
    if count > PRODUCT_CAP:
        raise CapExceeded(f"{count} {a}-fold products of {n} forms exceed "
                          f"product cap {PRODUCT_CAP}")


def _afold_from_columns(spec, k, columns, a) -> list:
    check_product_cap(len(columns), a)
    return [DensePoly(spec, k, a, tuple(_product_coeffs(
                spec, k, [columns[j] for j in subset])))
            for subset in combinations(range(len(columns)), a)]


# -- exact rank engines ------------------------------------------------------

def _echelon_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over GF(p); returns the nonzero rows, each
    with its pivot 1 and zeros above and below it, pivots increasing.

    One any() over the rows not yet used lists the columns that can still
    hold a pivot, so columns without one cost nothing; they are taken in
    order, and the list is made again only when a listed column has lost
    its last nonzero entry.  Each pivot clears its column in the rows where
    it is nonzero.  Entries stay below p, so products stay below p^2.
    """
    a = np.array(mat, dtype=np.int64) % p
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
    """(acc - x @ y) mod p for int64 arrays with entries in [0, p).

    The inner terms are summed in chunks of at most
    (2^63 - 1) // (p - 1)^2 - 1 terms, reduced mod p after each chunk, so
    no int64 value overflows.  When one chunk holds them all, the product
    is taken at once; otherwise, as for p near 2^31, where a chunk is one
    term, the terms whose column of x or row of y is zero are dropped first.
    """
    step = max(1, (2**63 - 1) // (p - 1) ** 2 - 1)
    if x.shape[1] <= step:  # one chunk: always so for small p
        return (acc - x @ y) % p
    used = x.any(axis=0) & y.any(axis=1)  # the inner terms not all zero
    if not used.all():
        x, y = x[:, used], y[used]
    for s in range(0, x.shape[1], step):
        acc = (acc - x[:, s:s + step] @ y[s:s + step]) % p
    return acc


def _leading(v, start):
    """Index of the first nonzero entry of v at or after start, or None."""
    return next(compress(range(start, len(v)), islice(v, start, None)), None)


def _echelon_int(rows, p=None, basis=None) -> list:
    """Row echelon form over Q (p None) or GF(p), on plain int rows; returns
    the nonzero echelon rows sorted by pivot column.

    basis, if given, is a dict pivot column -> row of rows in the form this
    function returns, with distinct pivots; the rows are reduced against it
    and join it, so the dict is extended in place and its rows are reused,
    never copied or changed.  The result then spans the basis rows too.

    A row v is reduced at its leading entry piv, against the basis row b
    with that pivot, until its leading entry is no pivot; v is zero before
    piv, so a step touches v[piv:] only.  Over Q the step is fraction-free,
    after Bareiss (1968): v enters as a primitive integer vector, and
    v <- (b[piv]/g) v - (v[piv]/g) b with g = gcd(v[piv], b[piv]).  The gcd
    of v's entries is divided out whenever the multipliers b[piv]/g since
    the last division exceed _GROWTH_BITS, and when v becomes a basis row,
    with its pivot made positive.  Over GF(p) basis rows are scaled to
    pivot 1 and the step is v <- v - v[piv] b mod p.  Only row operations
    are used and the pivots are distinct, so the rows returned span the
    input rows and their number is the rank.
    """
    if basis is None:
        basis = {}
    for row in rows:
        v = primitive(row) if p is None else [int(x) % p for x in row]
        piv = _leading(v, 0)
        grown = 0
        while piv in basis:
            b, c = basis[piv], v[piv]
            if p is None:
                g = gcd(c, b[piv])
                d, c = b[piv] // g, c // g
                w = [d * x - c * y for x, y in zip(v[piv:], b[piv:])]
                grown += d.bit_length()
                if grown > _GROWTH_BITS:
                    grown = 0
                    g = gcd(*w)
                    if g > 1:
                        w = [x // g for x in w]
            else:
                w = [(x - c * y) % p for x, y in zip(v[piv:], b[piv:])]
            v[piv:] = w
            piv = _leading(v, piv + 1)
        if piv is None:
            continue
        if p is None:
            g = gcd(*v) if v[piv] > 0 else -gcd(*v)
            if g != 1:
                v = [x // g for x in v]
        else:
            inv = pow(v[piv], -1, p)
            v = [x * inv % p for x in v]
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
    """The Hilbert function H of R/J, for J generated in degrees <= d.

    Each call passes hf, which computes H(t) by elimination; it is used
    only until persistence settles H.  hf is not stored, so an engine that
    holds a PersistentHF forms no reference cycle and is freed as soon as
    it is dropped, without waiting for the cycle collector.

    Degrees d, d+1, ... are computed in increasing order.  Once two
    consecutive ones s and s+1 meet Macaulay's bound with equality,
    H(s+1) = H(s)^<s>, Gotzmann's persistence theorem gives
    H(t+1) = H(t)^<t> for every t >= s: settled is then s+1, and every
    later degree is derived from the bound, never passed to hf.  Degrees
    below d are hf's alone.
    """

    def __init__(self, d: int):
        self._start = max(d, 1)
        self._run = []  # H(start), H(start + 1), ... so far
        self.settled = None

    def __call__(self, t: int, hf) -> int:
        if t < self._start:
            return hf(t)
        run = self._run
        while len(run) <= t - self._start:
            u = self._start + len(run)
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
    2, 1, 0, and H(3) = H(2)^<2> = 2).  Once the Hilbert function has
    settled, no later degree's basis is eliminated for a dimension; basis
    still eliminates when it is called.  Over GF(p) the theorem holds as
    over any field: the dimensions do not change under field extension.
    """

    def __init__(self, spec: FieldSpec, k: int, gens):
        self.spec = spec
        self.k = k
        self.by_degree = {}
        for g in gens:
            if g.k != k:
                raise ExactArithError("generator in wrong ring")
            if not g.is_zero():
                self.by_degree.setdefault(g.degree, []).append(g)
        self.min_degree = min(self.by_degree, default=None)
        self.max_degree = max(self.by_degree, default=None)
        self._gf = spec.kind == "gf" and spec.modulus < _NUMPY_P_CAP
        self._basis = {}   # t -> basis rows
        self._pivots = {}  # t -> pivot columns (numpy), or pivot -> row
        self._hilbert = PersistentHF(self.max_degree or 1)

    def basis(self, t: int):
        """Basis rows of the degree-t piece of the ideal, sorted by pivot:
        an int64 RREF array over GF(p) below _NUMPY_P_CAP, else echelon
        int lists (primitive over Q, pivot 1 over GF(p))."""
        if t in self._basis:
            return self._basis[t]
        width = ring_dim(self.k, t)
        if self.min_degree is None or t < self.min_degree:
            return self._store_unit_rows(t, width, 0)
        prev = self.basis(t - 1)
        if t > self.min_degree and len(prev) == ring_dim(self.k, t - 1):
            return self._store_unit_rows(t, width, width)
        blocks = [self._shift(prev, t, var) for var in range(1, self.k)]
        gens = [list(g.coeffs) for g in self.by_degree.get(t, [])]
        if self._gf:
            p = self.spec.modulus
            rows = np.zeros((len(prev), width), dtype=np.int64)
            rows[:, :prev.shape[1]] = prev
            pivots = self._pivots[t - 1]
            blocks.append(np.array(gens, dtype=np.int64)
                          .reshape(len(gens), width) % p)
            # Block by block, each block is reduced against every pivot
            # found so far by one product.  Stacked, the later blocks would
            # be cleared of the earlier blocks' pivots one outer product at
            # a time, which made [8,4] codes over GF(5) slower than before.
            for block in blocks:
                if len(block):
                    rows, pivots = _extend_rref(rows, pivots, block, p)
            self._basis[t], self._pivots[t] = rows, pivots
        else:
            pad = [0] * (width - ring_dim(self.k, t - 1))
            start = {piv: row + pad
                     for piv, row in self._pivots[t - 1].items()}
            rows = [row for block in blocks for row in block] + gens
            self._basis[t] = _echelon_int(rows, self.spec.modulus, start)
            self._pivots[t] = start
        return self._basis[t]

    def _shift(self, prev, t, var):
        """x_var times each degree-(t-1) basis row, as degree-t rows."""
        mp = list(_mult_map(self.k, t - 1, var))
        width = ring_dim(self.k, t)
        if self._gf:
            out = np.zeros((len(prev), width), dtype=np.int64)
            out[:, mp] = prev
            return out
        out = []
        for row in prev:
            v = [0] * width
            for src, dst in enumerate(mp):
                v[dst] = row[src]
            out.append(v)
        return out

    def _store_unit_rows(self, t, width, rank):
        """Cache the unit rows e_0 .. e_{rank-1} as the degree-t basis: the
        empty basis for rank 0, the full degree for rank width."""
        if self._gf:
            self._basis[t] = np.eye(rank, width, dtype=np.int64)
            self._pivots[t] = np.arange(rank)
        else:
            rows = [[int(i == j) for j in range(width)] for i in range(rank)]
            self._basis[t] = rows
            self._pivots[t] = dict(enumerate(rows))
        return self._basis[t]

    def free_monomials(self, t: int) -> list:
        """Indices of the degree-t monomials that are no pivot of the
        degree-t basis; their unit vectors span R_t modulo I_t."""
        width = ring_dim(self.k, t)
        self.basis(t)
        pivots = self._pivots[t]
        if self._gf:
            free = np.ones(width, dtype=bool)
            free[pivots] = False
            return free.nonzero()[0].tolist()
        return [m for m in range(width) if m not in pivots]

    def ideal_dim(self, t: int) -> int:
        return ring_dim(self.k, t) - self.quotient_dim(t)

    def quotient_dim(self, t: int) -> int:
        return self._hilbert(t, self._eliminated_quotient_dim)

    def _eliminated_quotient_dim(self, t: int) -> int:
        return ring_dim(self.k, t) - len(self.basis(t))

    def rank_with_extra_rows(self, t: int, extra) -> int:
        """Rank of the degree-t ideal piece together with extra vectors.

        Only the extra rows are reduced, against the cached basis: over
        GF(p) below the cap to the quotient_dim(t) columns without a pivot,
        whose rank is added to the basis's.
        """
        base = self.basis(t)
        width = ring_dim(self.k, t)
        if len(base) == width:
            return width
        if not self._gf:
            return len(_echelon_int(extra, self.spec.modulus,
                                    dict(self._pivots[t])))
        p = self.spec.modulus
        extra = np.array(extra, dtype=np.int64).reshape(len(extra), width)
        _, rest = _reduce_mod_p(base, self._pivots[t], extra % p, p)
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
    added = np.zeros((len(new), start.shape[1]), dtype=np.int64)
    added[:, free] = new
    # clear the new pivot columns in the old rows; added is zero at piv
    start = _sub_mul_mod_p(start, start[:, new_piv], added, p)
    rows = np.concatenate([start, added])
    pivots = np.concatenate([piv, new_piv])
    order = np.argsort(pivots)
    return rows[order], pivots[order]


def graded_dim_ideal(gens, t: int) -> int:
    """dim of the degree-t piece of the ideal spanned by the given
    homogeneous generators (monomial multiples, exact rank).

    Reference implementation; agrees with GradedIdealEngine by tests.
    """
    if not gens:
        return 0
    spec, k = gens[0].spec, gens[0].k
    return len(_echelon_from_scratch(spec, _generator_multiples(spec, k, gens,
                                                               t)))


def _generator_multiples(spec, k, gens, t) -> list:
    """Coefficient rows of every monomial multiple of degree t of the
    generators."""
    idx = monomial_index(k, t)
    rows = []
    for g in gens:
        if t < g.degree:
            continue
        terms = [(exps, c) for exps, c in zip(monomials(k, g.degree), g.coeffs)
                 if c != spec.zero]
        for mono in monomials(k, t - g.degree):
            row = [spec.zero] * ring_dim(k, t)
            for exps, c in terms:
                row[idx[tuple(e + m for e, m in zip(exps, mono))]] = c
            rows.append(row)
    return rows


def _echelon_from_scratch(spec, rows) -> list:
    """Echelon rows of the rows by one elimination, with no cached basis."""
    if not rows:
        return []
    if spec.kind == "gf" and spec.modulus < _NUMPY_P_CAP:
        return _echelon_mod_p(np.array(rows, dtype=np.int64),
                              spec.modulus).tolist()
    return _echelon_int(rows, spec.modulus)


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

    def hp_at(self, t: int) -> Fraction:
        acc = Fraction(0)
        for i, c in enumerate(self.poly):
            acc += c * t**i
        return acc

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
    raise WindowError(
        f"Hilbert function not stabilized by t={hi_steps[-1]}; widen window")


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
    return GradedIdealEngine(code.spec, code.k, afold_generators(code, a))


def check_window(window: tuple, k: int):
    """ExactArithError when the degree window (lo, hi) is narrower than a
    fit in k variables needs."""
    lo, hi = window
    if hi - lo < k + 1:
        raise ExactArithError("window must span at least k+1 degrees")


def fit_hilbert_polynomial(code: LinearCode, a: int, window=None,
                           engine=None) -> FittedHP:
    """Hilbert polynomial of R / I_a, fitted from exact graded dimensions.

    engine, if given, must be ideal_engine(code, a); its cached bases are
    reused and extended.
    """
    if engine is None:
        engine = ideal_engine(code, a)
    if window is not None:
        check_window(window, code.k)
        lo, hi = window
        his = [hi]
    else:
        lo, his = default_windows(a, code.k)
    return fit_graded_quotient(code.k, engine.quotient_dim, a, lo, his)


def mu_oracle(code: LinearCode, a: int, engine=None) -> int:
    """Rank of the generator span in degree a: the minimal generator count.

    engine, if given, must be ideal_engine(code, a).
    """
    if engine is None:
        engine = ideal_engine(code, a)
    return engine.ideal_dim(a)


# -- colon ideals ------------------------------------------------------------

def _linear_multiplication_rows(spec, k, col, t, sources=None):
    """Rows of multiplication by the linear form of column col, mapping
    the degree-t monomials (by index: all, or those in sources) into
    degree t+1."""
    width = ring_dim(k, t + 1)
    rows = []
    zero = spec.zero
    terms = [(_mult_map(k, t, var), c) for var, c in enumerate(col[:k])
             if c != zero]
    if sources is None:
        sources = range(ring_dim(k, t))
    for src in sources:
        row = [zero] * width
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
    extra = _linear_multiplication_rows(engine.spec, engine.k, col, t,
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

    hf = PersistentHF(engine.max_degree or 1)
    return lambda t: (ring_dim(k, t) - engine.quotient_dim(t + 1)
                      + hf(t + 1, plus_ell))


def colon_graded_dim(code: LinearCode, ell_index: int, a: int,
                     t: int) -> int:
    """dim of the degree-t piece of (I_a : ell), by exact linear algebra."""
    if not 2 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 2..{code.n}")
    if not 0 <= ell_index < code.n:
        raise ExactArithError(f"column {ell_index} out of range")
    engine = ideal_engine(code, a)
    col = code.matrix.column(ell_index)
    return colon_dim_from_engine(engine, col, t)


def colon_dim_reference(spec, k, gens, col, t: int) -> int:
    """dim (I : ell)_t from scratch: dim R_t minus the rank that the
    multiplication image of R_t adds to the degree-(t+1) multiples of the
    generators, by eliminations with no cached basis.

    Reference implementation; agrees with colon_dim_from_engine by tests.
    """
    ideal = _echelon_from_scratch(
        spec, _generator_multiples(spec, k, gens, t + 1))
    image = _linear_multiplication_rows(spec, k, col, t)
    added = len(_echelon_from_scratch(spec, ideal + image)) - len(ideal)
    return ring_dim(k, t) - added


def deleted_generators(code: LinearCode, ell_index: int, a: int,
                       gens=None) -> list:
    """The a-fold products of the code's columns other than ell_index, in
    the order of combinations of those columns.

    gens, if given, must be afold_generators(code, a): the products that
    avoid the column are then picked out of it, in that order, instead of
    being expanded again.
    """
    if gens is not None:
        return [g for subset, g in zip(combinations(range(code.n), a), gens)
                if ell_index not in subset]
    columns = [code.matrix.column(j) for j in range(code.n)
               if j != ell_index]
    return _afold_from_columns(code.spec, code.k, columns, a) if \
        1 <= a <= len(columns) else []


def deleted_ideal_engine(code: LinearCode, ell_index: int,
                         a: int) -> GradedIdealEngine:
    """Engine for the (a)-fold ideal of the code with one column removed
    (same ambient ring, even if the remaining columns span less)."""
    return GradedIdealEngine(code.spec, code.k,
                             deleted_generators(code, ell_index, a))


# -- conjecture diagnostics --------------------------------------------------

def conjecture_report(code: LinearCode, t_max: int) -> dict:
    """Per-degree colon-equality tables plus Hilbert stabilization and
    degree diagnostics for the linear-resolution and colon conjectures.

    The per-degree equalities at t >= a are reported observations, never
    assertions; the t = a-1 slice and coloop columns are proved facts.
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
    gens = afold_generators(code, 1)
    for a in range(2, code.n + 1):
        # each deleted engine for a picks its products out of prev_gens
        prev_gens, gens = gens, afold_generators(code, a)
        engine = GradedIdealEngine(code.spec, code.k, gens)
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
                deleted = GradedIdealEngine(
                    code.spec, code.k,
                    deleted_generators(code, ell, a - 1, prev_gens))
                colon_dim = colon_dims(engine, code.matrix.column(ell))
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
            entry["columns"].append(cell)
        report["entries"].append(entry)
    return report


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
