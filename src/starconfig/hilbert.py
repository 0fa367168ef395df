"""Independent Hilbert-function verification engine.

Builds the actual a-fold product generators as dense polynomials, computes
graded dimensions by exact linear algebra, fits the Hilbert polynomial via
finite differences and interpolation, and recovers degree / height / mu
with zero reliance on the Tutte route.

Monomials of a fixed total degree are indexed in graded lexicographic
order.  Over GF(p) with p < 2^31 ranks run on int64 numpy arrays with all
arithmetic done mod p, which is still exact.  Over the rationals, and over
GF(p) for larger p, they run in one pure-Python kernel on plain ints:
fraction-free elimination of primitive integer rows over Q, mod-p
elimination otherwise.  Fractions appear in the rational generators and
colon rows, whose denominators are cleared as a row enters the kernel, and
in the fitted Hilbert polynomial, never in elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, islice
from math import comb, factorial, gcd, lcm

import numpy as np

from .codes import LinearCode
from .fields import EXHAUSTIVE_CAP, ExactArithError, FieldSpec

# _echelon_mod_p reduces mod p after every product, so its int64 values
# stay below p^2 < 2^62; larger primes use the pure-Python kernel.
_NUMPY_P_CAP = 1 << 31

# Without the gcd passes of _echelon_int, a row's entries grow by every
# multiplier applied to it: on a [8,4] code over Q the fit for a = 6 took
# 3.4x as long.  One pass costs about one reduction step, so small
# matrices, whose multipliers are mostly 1, rarely pay for one.
_GROWTH_BITS = 64


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


def expand_product(spec: FieldSpec, k: int, columns) -> dict:
    """Expand a product of linear forms (given as coefficient columns)
    into an exponent-tuple -> coefficient table."""
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


def afold_generators(code: LinearCode, a: int) -> list:
    """All C(n, a) expanded a-fold products of the code's linear forms."""
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    return _afold_from_columns(code.spec, code.k,
                               code.matrix.columns(), a)


def _afold_from_columns(spec, k, columns, a) -> list:
    gens = []
    for subset in combinations(range(len(columns)), a):
        table = expand_product(spec, k, [columns[j] for j in subset])
        gens.append(DensePoly.from_dict(spec, k, a, table))
    return gens


# -- exact rank engines ------------------------------------------------------

def _echelon_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Row echelon form over GF(p); returns the nonzero echelon rows."""
    a = np.array(mat, dtype=np.int64) % p
    n_rows, n_cols = a.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % p
        r += 1
    return a[:r]


def _primitive(row) -> list:
    """row (ints and Fractions) scaled to a primitive integer vector: times
    the lcm of its denominators, then divided by the gcd of its entries."""
    try:
        g = gcd(*row)  # ints only; a Fraction raises TypeError
        v = list(row)
    except TypeError:
        den = lcm(*(x.denominator for x in row))
        v = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _leading(v, start):
    """Index of the first nonzero entry of v at or after start, or None."""
    return next(compress(range(start, len(v)), islice(v, start, None)), None)


def _echelon_int(rows, p=None) -> list:
    """Row echelon form over Q (p None) or GF(p), on plain int rows; returns
    the nonzero echelon rows sorted by pivot column.

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
    basis = {}
    for row in rows:
        v = _primitive(row) if p is None else [int(x) % p for x in row]
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


class GradedIdealEngine:
    """Graded pieces of a homogeneous ideal given by generators.

    Bases are built degree by degree: the degree-(t+1) piece is spanned by
    the variable multiples of a degree-t basis plus any generators living
    in degree t+1.  Echelon bases are cached per degree.
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
        self._gf = spec.kind == "gf" and spec.modulus < _NUMPY_P_CAP
        self._basis = {}

    def _echelonize(self, rows, t):
        if self._gf:
            if len(rows) == 0:
                return np.zeros((0, ring_dim(self.k, t)), dtype=np.int64)
            return _echelon_mod_p(np.array(rows, dtype=np.int64),
                                  self.spec.modulus)
        return _echelon_int(rows, self.spec.modulus)

    def basis(self, t: int):
        """Echelon basis rows of the degree-t piece of the ideal."""
        if t in self._basis:
            return self._basis[t]
        if self.min_degree is None or t < self.min_degree:
            rows = self._echelonize([], t)
            self._basis[t] = rows
            return rows
        prev = self.basis(t - 1)
        width = ring_dim(self.k, t)
        rows = []
        if len(prev):
            for var in range(self.k):
                mp = _mult_map(self.k, t - 1, var)
                if self._gf:
                    shifted = np.zeros((len(prev), width), dtype=np.int64)
                    shifted[:, list(mp)] = prev
                    rows.extend(shifted)
                else:
                    for row in prev:
                        out = [0] * width
                        for src, dst in enumerate(mp):
                            out[dst] = row[src]
                        rows.append(out)
        rows.extend(list(g.coeffs) for g in self.by_degree.get(t, []))
        result = self._echelonize(rows, t)
        self._basis[t] = result
        return result

    def ideal_dim(self, t: int) -> int:
        return len(self.basis(t))

    def quotient_dim(self, t: int) -> int:
        return ring_dim(self.k, t) - self.ideal_dim(t)

    def rank_with_extra_rows(self, t: int, extra) -> int:
        """Rank of the degree-t ideal piece together with extra vectors."""
        return len(self._echelonize(list(self.basis(t)) + list(extra), t))


def graded_dim_ideal(gens, t: int) -> int:
    """dim of the degree-t piece of the ideal spanned by the given
    homogeneous generators (monomial multiples, exact rank).

    Reference implementation; agrees with GradedIdealEngine by tests.
    """
    if not gens:
        return 0
    spec, k = gens[0].spec, gens[0].k
    rows = []
    for g in gens:
        if t < g.degree:
            continue
        shift = t - g.degree
        for mono in monomials(k, shift):
            table = {}
            idx_src = monomials(k, g.degree)
            for src_exps, c in zip(idx_src, g.coeffs):
                if c == spec.zero:
                    continue
                key = tuple(e + m for e, m in zip(src_exps, mono))
                table[key] = c
            idx = monomial_index(k, t)
            row = [spec.zero] * ring_dim(k, t)
            for exps, c in table.items():
                row[idx[exps]] = c
            rows.append(row)
    if not rows:
        return 0
    if spec.kind == "gf" and spec.modulus < _NUMPY_P_CAP:
        return len(_echelon_mod_p(np.array(rows, dtype=np.int64),
                                  spec.modulus))
    return len(_echelon_int(rows, spec.modulus))


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
            total = self._finite_length
            return total
        lead = self.poly[-1] * factorial(self.dim_proj)
        if lead.denominator != 1:
            raise ExactArithError(
                f"leading Hilbert coefficient {self.poly[-1]} is not "
                f"1/{self.dim_proj}! times an integer")
        return lead.numerator

    @property
    def _finite_length(self) -> int:
        return sum(self.samples.values())

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


def _interpolate(points) -> tuple:
    """Lagrange interpolation through (t, value) pairs, exact Fractions;
    returns ascending coefficients with trailing zeros trimmed."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (ti, vi) in enumerate(points):
        # numerator polynomial prod_{j != i} (t - tj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (tj, _) in enumerate(points):
            if j == i:
                continue
            denom *= ti - tj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * tj
                nxt[d + 1] += c
            basis = nxt
        scale = Fraction(vi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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
        tail = ts[-k:] if k else ts[-1:]
        poly = _interpolate([(t, samples[t]) for t in tail])
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


def fit_hilbert_polynomial(code: LinearCode, a: int, window=None,
                           engine=None) -> FittedHP:
    """Hilbert polynomial of R / I_a, fitted from exact graded dimensions.

    engine, if given, must be ideal_engine(code, a); its cached bases are
    reused and extended.
    """
    if engine is None:
        engine = ideal_engine(code, a)
    if window is not None:
        lo, hi = window
        if hi - lo < code.k + 1:
            raise ExactArithError("window must span at least k+1 degrees")
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

def _linear_multiplication_rows(spec, k, col, t):
    """Rows of multiplication by the linear form of column col, mapping
    the degree-t monomial basis into degree t+1."""
    width = ring_dim(k, t + 1)
    rows = []
    zero = spec.zero
    maps = [_mult_map(k, t, var) for var in range(k)]
    for src in range(ring_dim(k, t)):
        row = [zero] * width
        for var in range(k):
            c = col[var]
            if c != zero:
                dst = maps[var][src]
                row[dst] = spec.add(row[dst], c)
        rows.append(row)
    return rows


def colon_dim_from_engine(engine: GradedIdealEngine, spec, k, col,
                          t: int) -> int:
    """dim (I : ell)_t = dim R_t - rank of the multiplication image
    modulo the degree-(t+1) piece of I."""
    extra = _linear_multiplication_rows(spec, k, col, t)
    joint = engine.rank_with_extra_rows(t + 1, extra)
    image_mod_ideal = joint - engine.ideal_dim(t + 1)
    return ring_dim(k, t) - image_mod_ideal


def colon_graded_dim(code: LinearCode, ell_index: int, a: int,
                     t: int) -> int:
    """dim of the degree-t piece of (I_a : ell), by exact linear algebra."""
    if not 2 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 2..{code.n}")
    if not 0 <= ell_index < code.n:
        raise ExactArithError(f"column {ell_index} out of range")
    engine = ideal_engine(code, a)
    col = code.matrix.column(ell_index)
    return colon_dim_from_engine(engine, code.spec, code.k, col, t)


def deleted_ideal_engine(code: LinearCode, ell_index: int,
                         a: int) -> GradedIdealEngine:
    """Engine for the (a)-fold ideal of the code with one column removed
    (same ambient ring, even if the remaining columns span less)."""
    columns = [code.matrix.column(j) for j in range(code.n)
               if j != ell_index]
    gens = _afold_from_columns(code.spec, code.k, columns, a) if \
        1 <= a <= len(columns) else []
    return GradedIdealEngine(code.spec, code.k, gens)


def parallel_count(code: LinearCode, ell_index: int) -> int:
    """Number of other columns proportional to the given one."""
    spec = code.spec
    col = code.matrix.column(ell_index)
    zero = spec.zero
    lead = next(i for i, x in enumerate(col) if x != zero)
    norm = spec.inv(col[lead])
    ref = tuple(spec.mul(norm, x) for x in col)
    count = 0
    for j in range(code.n):
        if j == ell_index:
            continue
        other = code.matrix.column(j)
        if other[lead] == zero:
            continue
        inv = spec.inv(other[lead])
        if tuple(spec.mul(inv, x) for x in other) == ref:
            count += 1
    return count


# -- conjecture diagnostics --------------------------------------------------

def conjecture_report(code: LinearCode, t_max: int,
                      cap: int = EXHAUSTIVE_CAP) -> dict:
    """Per-degree colon-equality tables plus Hilbert stabilization and
    degree diagnostics for the linear-resolution and colon conjectures.

    The per-degree equalities at t >= a are reported observations, never
    assertions; the t = a-1 slice and coloop columns are proved facts.
    cap bounds the ground set of every exhaustive subset scan, the code's
    and each deletion's, as --max-n does.
    """
    from .tutte import tutte_subset_sum, whitney_shift
    from .codes import weight_hierarchy

    # the subset sum builds the rank table under cap; the hierarchy reads it
    shifted = whitney_shift(tutte_subset_sum(code.matroid, cap), code.k)
    hierarchy = weight_hierarchy(code)

    @lru_cache(maxsize=None)
    def deleted_shift(ell):
        """Shifted Tutte coefficients of M \\ ell; None for a coloop."""
        deleted = code.matroid.delete(ell)
        if deleted.full_rank < code.k:
            return None
        return whitney_shift(tutte_subset_sum(deleted, cap), code.k)

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
    for a in range(2, code.n + 1):
        engine = ideal_engine(code, a)
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
            tilde_n0 = parallel_count(code, ell)
            cell["coloop"] = code.matroid.is_coloop(ell)
            if a >= code.n - tilde_n0:
                # every a-fold product carries this form as a factor
                cell["cells"] = {t: "auto"
                                 for t in range(a - 1, t_max + 1)}
                cell["automatic"] = True
            else:
                cell["automatic"] = False
                deleted = deleted_ideal_engine(code, ell, a - 1)
                col = code.matrix.column(ell)
                colon_dims = {}  # t -> dim (I_a : ell)_t, shared with the fit

                def colon_dim(t):
                    if t not in colon_dims:
                        colon_dims[t] = colon_dim_from_engine(
                            engine, code.spec, code.k, col, t)
                    return colon_dims[t]

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
                        shifted, deleted_shift, ell, r, j)
            entry["columns"].append(cell)
        report["entries"].append(entry)
    return report


def _degree_hypothesis(shifted, deleted_shift, ell, r, j) -> str:
    """Whether the proved degree-equality hypothesis (j >= 2, or j = 1
    with matching top y-degrees after deletion) applies; deleted_shift(ell)
    gives the shifted coefficients of M \\ ell, or None for a coloop."""
    if j >= 2:
        return "j>=2 (proved)"
    shifted_del = deleted_shift(ell)
    if shifted_del is None:
        return "deleted column is a coloop (proved separately)"
    if shifted.p[r] == shifted_del.p[r]:
        return "j=1 with matching top coefficients (proved)"
    return "j=1 with shifted top coefficient (open)"


def render_conjecture_matrix(report: dict) -> str:
    """Plaintext matrix: rows a, columns t; each cell merges the per-column
    verdicts ('=' all equal, '!=' any mismatch, 'auto' all automatic)."""
    t_max = report["t_max"]
    ts = None
    lines = []
    header = None
    for entry in report["entries"]:
        a = entry["a"]
        row = [f"a={a:<3}"]
        ts = list(range(1, t_max + 1))
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
        if header is None:
            header = ["    "] + [f"t={t}" for t in ts]
    widths = [max(len(line[i]) for line in [header] + lines)
              for i in range(len(header))]
    out = []
    for line in [header] + lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(out)
