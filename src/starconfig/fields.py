"""Exact scalar and matrix arithmetic over GF(p) and the rationals.

Elements of GF(p) are canonical residues (plain ints in [0, p)); rational
elements are `fractions.Fraction` values, which are always reduced with a
positive denominator.  There is no floating point anywhere and no rounding,
ever.  All matrices are immutable after construction.

Every Gauss-Jordan elimination over a FieldSpec here, and every point rank
of the matroid module, goes through one kernel, rref_join: it joins one
vector to a row space in reduced row echelon form.  rref, column_rank and
kernel_basis fold rows through it.  The matroid module's span-join pass
joins each column to many subspaces at once in numpy, mod p
(matroid._span_join), and the Hilbert oracle keeps its own integer and
mod-p kernels; both take rational rows through primitive.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral

# Ground sets are encoded as bitmasks of up to MAX_GROUND_SET elements
MAX_GROUND_SET = 63


class ExactArithError(ValueError):
    pass


class CapExceeded(ExactArithError):
    """An input is larger than a documented size cap."""


class InternalInvariantError(RuntimeError):
    """Two provably-equal quantities disagreed; a bug, never user error."""


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for all p < 2^64."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either GF(p) for a prime p < 2^64, or the rationals."""

    kind: str  # "gf" or "q"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == "gf":
            if self.modulus is None or self.modulus < 2:
                raise ExactArithError("prime field needs a modulus >= 2")
            if self.modulus >= 1 << 64:
                raise ExactArithError("modulus must fit in 64 bits")
            if not is_prime(self.modulus):
                raise ExactArithError(f"modulus {self.modulus} is not prime")
        elif self.kind == "q":
            if self.modulus is not None:
                raise ExactArithError("the rationals take no modulus")
        else:
            raise ExactArithError(f"unknown field kind {self.kind!r}")

    # -- element constructors ------------------------------------------------

    @property
    def zero(self):
        return 0 if self.kind == "gf" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind == "gf" else Fraction(1)

    def coerce(self, x):
        """Map an int / Fraction / element into canonical form.  Anything
        else, a float included, is an ExactArithError; a numpy int becomes
        an int, which cannot wrap around in later products."""
        if not isinstance(x, (int, Fraction)):
            if not isinstance(x, Integral):
                raise ExactArithError(f"{x!r} is not an exact scalar "
                                      "(an int or a Fraction)")
            x = int(x)
        if self.kind == "gf":
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return x.numerator % self.modulus
                if x.denominator % self.modulus == 0:
                    raise ExactArithError(
                        f"{x} has no value in GF({self.modulus}): its "
                        f"denominator is divisible by {self.modulus}")
                return self.div(x.numerator % self.modulus,
                                x.denominator % self.modulus)
            return x % self.modulus
        return Fraction(x)

    def parse(self, token: str):
        """Parse an integer or 'a/b' token."""
        token = token.strip()
        try:
            if "/" in token:
                num, den = token.split("/")
                val = Fraction(int(num), int(den))
            else:
                val = Fraction(int(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactArithError(f"bad scalar token {token!r}") from exc
        return self.coerce(val)

    def to_str(self, x) -> str:
        return str(x)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.modulus if self.kind == "gf" else a + b

    def sub(self, a, b):
        return (a - b) % self.modulus if self.kind == "gf" else a - b

    def mul(self, a, b):
        return (a * b) % self.modulus if self.kind == "gf" else a * b

    def neg(self, a):
        return (-a) % self.modulus if self.kind == "gf" else -a

    def inv(self, a):
        if self.kind == "gf":
            if a % self.modulus == 0:
                raise ZeroDivisionError("inverse of zero in GF(p)")
            return pow(a, -1, self.modulus)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- vectors -------------------------------------------------------------

    def sub_scaled(self, x, c, y) -> list:
        """x - c*y entrywise, for equal-length vectors x and y."""
        if self.kind == "gf":
            p = self.modulus
            return [(a - c * b) % p for a, b in zip(x, y)]
        return [a - c * b for a, b in zip(x, y)]

    def scale(self, c, x) -> list:
        """c*x entrywise."""
        if self.kind == "gf":
            p = self.modulus
            return [c * a % p for a in x]
        return [c * a for a in x]


QQ = FieldSpec("q")


def GF(p: int) -> FieldSpec:
    return FieldSpec("gf", p)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable row-major matrix with entries in a single FieldSpec.

    Zero-row / zero-column shapes are allowed so that matroid minors can
    degenerate all the way down to the empty matroid.
    """

    spec: FieldSpec
    entries: tuple = field(default=())  # tuple of row tuples
    empty_cols: int = 0  # column count when there are no rows

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows, cols: int | None = None) -> "ExactMatrix":
        coerced = tuple(tuple(spec.coerce(x) for x in row) for row in rows)
        widths = {len(r) for r in coerced}
        if len(widths) > 1:
            raise ExactArithError("ragged rows")
        if not coerced:
            return cls(spec, coerced, cols or 0)
        return cls(spec, coerced)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else self.empty_cols

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise ExactArithError(f"column index {j} out of range")
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def submatrix_cols(self, cols) -> "ExactMatrix":
        cols = list(cols)
        for j in cols:
            if not 0 <= j < self.cols:
                raise ExactArithError(f"column index {j} out of range")
        rows = tuple(tuple(row[j] for j in cols) for row in self.entries)
        return ExactMatrix(self.spec, rows, len(cols) if not rows else 0)


def rref_join(rows, pivots: tuple, v, spec: FieldSpec):
    """The RREF of span(rows) + span(v), or None when v lies in span(rows).

    rows is a reduced row echelon basis whose pivot columns, ascending,
    are pivots; rows and v are sequences of field elements (lists, tuples
    or slices of a packed key).  Returns a new (rows, pivots) pair, rows
    sorted by pivot.  Nothing passed in is mutated; rows that the join
    leaves unchanged are shared with the result.
    """
    zero = spec.zero
    for p, row in zip(pivots, rows):
        if v[p] != zero:
            v = spec.sub_scaled(v, v[p], row)
    p = next((t for t, x in enumerate(v) if x != zero), None)
    if p is None:
        return None
    v = spec.scale(spec.inv(v[p]), v)
    at = bisect(pivots, p)
    # rows after `at` have their pivot right of p, so a zero at p
    rows = [spec.sub_scaled(row, row[p], v) if row[p] != zero else row
            for row in rows[:at]] + [v] + list(rows[at:])
    return rows, pivots[:at] + (p,) + pivots[at:]


def _rref_rows(rows, spec: FieldSpec):
    """(basis, pivots): the nonzero rows of the RREF of rows, by rref_join."""
    basis, pivots = [], ()
    for row in rows:
        joined = rref_join(basis, pivots, row, spec)
        if joined is not None:
            basis, pivots = joined
    return basis, pivots


def rref(m: ExactMatrix):
    """Reduced row echelon form.

    Returns (reduced, rank, pivot_cols); the row space is preserved and the
    result is the unique RREF of the input, zero rows last.
    """
    basis, pivots = _rref_rows(m.entries, m.spec)
    zero_rows = ((m.spec.zero,) * m.cols,) * (m.rows - len(pivots))
    entries = tuple(map(tuple, basis)) + zero_rows
    reduced = ExactMatrix(m.spec, entries, 0 if entries else m.cols)
    return reduced, len(pivots), pivots


def column_rank(m: ExactMatrix, cols) -> int:
    """Rank of the submatrix on the selected columns; 0 for the empty set."""
    return len(_rref_rows(m.submatrix_cols(cols).entries, m.spec)[1])


def kernel_basis(rows, width: int, spec: FieldSpec) -> list:
    """Basis of {v in K^width : row . v = 0 for every row}, as tuples: one
    per column f, increasing, that is no pivot of the RREF of rows, with
    1 at f and minus the RREF's column f at the pivots."""
    basis_rows, piv = _rref_rows(rows, spec)
    basis = []
    for f in sorted(set(range(width)) - set(piv)):
        v = [spec.zero] * width
        v[f] = spec.one
        for r, c in enumerate(piv):
            v[c] = spec.neg(basis_rows[r][f])
        basis.append(tuple(v))
    return basis


def left_kernel_basis(m: ExactMatrix, cols) -> list:
    """Basis of {v in K^k : v . G_cols = 0}, as length-k tuples.

    Always has size k - column_rank(m, cols); for cols = [] this is the
    standard basis of K^k.
    """
    # v . G_cols = 0  <=>  (G_cols)^T v = 0: the chosen columns are the rows
    return kernel_basis(map(m.column, cols), m.rows, m.spec)


def primitive(row) -> list:
    """row (ints or Fractions) scaled to a primitive integer vector: times
    the lcm of its denominators, then divided by the gcd of its entries
    (a zero row stays zero)."""
    try:
        g = gcd(*row)  # ints only; a Fraction raises TypeError
        v = list(row)
    except TypeError:
        den = lcm(*(x.denominator for x in row))
        v = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*v)
    return [x // g for x in v] if g > 1 else v
