"""Heights, degrees, minimal generator counts and low-height minimal primes
of the a-fold product ideals of a linear code, all read off the shifted
Tutte coefficients and the lattice of flats.

Two independent degree formulas (coefficient sum vs binomial sum over
minimal primes) are computed and cross-checked whenever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .codes import LinearCode, WeightHierarchy
from .fields import ExactArithError, InternalInvariantError
from .matroid import Flat
from .tutte import ShiftedCoeffs


@dataclass(frozen=True)
class MinimalPrime:
    """A height-(k-r) minimal prime, recorded by its flat, with the
    multiplicity exponent of its primary component."""

    flat: Flat
    nu: int        # number of code forms lying in the prime = |flat|
    exponent: int  # a - n + nu

    def to_json(self) -> dict:
        return {"flat": [i + 1 for i in self.flat.indices()],
                "nu": self.nu, "exponent": self.exponent}


@dataclass(frozen=True)
class IdealProfile:
    """Complete invariant record of the a-fold product ideal."""

    a: int
    r: int          # index with d_r < a <= d_{r+1}
    j: int          # a - d_r
    height: int     # k - r
    degree: int
    mu: int
    primes: tuple = field(default=())
    # height-k case: the only low-height minimal prime is the irrelevant
    # maximal ideal; everything of larger height stays an opaque marker
    irrelevant_power: bool = False

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "r": self.r,
            "j": self.j,
            "height": self.height,
            "degree": str(self.degree),
            "mu": str(self.mu),
            "irrelevant_power": self.irrelevant_power,
            "primes": [p.to_json() for p in self.primes],
            "residual": "K (unknown, height > height(I_a))",
        }


def height_of_ideal(code: LinearCode, hierarchy: WeightHierarchy,
                    a: int) -> int:
    """k - r on the interval d_r < a <= d_{r+1}."""
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    return code.k - hierarchy.interval_index(a)


def degree_from_tutte(code: LinearCode, coeffs: ShiftedCoeffs,
                      hierarchy: WeightHierarchy, a: int) -> int:
    """Sum of the top j shifted coefficients in the x^r slice."""
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    r = hierarchy.interval_index(a)
    j = a - hierarchy.d[r]
    return sum(coeffs.coeff(r, coeffs.p[r] - t) for t in range(j))


def minimal_primes_low_height(code: LinearCode, hierarchy: WeightHierarchy,
                              a: int) -> list:
    """All flats of rank k-r with at least n-a+1 elements, each carrying
    exponent a - n + |flat|.

    In the height-k case (a <= d_1) the ideal is the a-th power of the
    irrelevant maximal ideal; the full ground set is returned as its flat.
    """
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    r = hierarchy.interval_index(a)
    m = code.matroid
    if r == 0:
        full = Flat((1 << code.n) - 1, code.k)
        return [MinimalPrime(full, code.n, a)]
    out = []
    for f in m.flats_of_rank(code.k - r):
        if f.size >= code.n - a + 1:
            out.append(MinimalPrime(f, f.size, a - code.n + f.size))
    return out


def degree_from_primes(code: LinearCode, hierarchy: WeightHierarchy,
                       primes, a: int) -> int:
    """Binomial sum over the low-height minimal primes; requires r >= 1."""
    r = hierarchy.interval_index(a)
    if r == 0:
        raise ExactArithError(
            "prime-sum degree needs height < k; use the closed form "
            "binom(k+a-1, k) for powers of the irrelevant ideal")
    c = code.k - r
    return sum(comb(p.nu - code.n + a + c - 1, c) for p in primes)


def mu_of_ideal(code: LinearCode, coeffs: ShiftedCoeffs, a: int) -> int:
    """Minimal generator count: an antidiagonal sum of shifted coefficients."""
    if not 1 <= a <= code.n:
        raise ExactArithError(f"a={a} out of range 1..{code.n}")
    top = min(code.k, code.n - a)
    return sum(coeffs.coeff(code.k - u, code.n - a - u)
               for u in range(top + 1))


def binomial_identity_check(alpha: int, beta: int, gamma: int) -> bool:
    """The alternating-sum identity behind the degree recursion."""
    if not alpha > beta >= gamma >= 1:
        raise ExactArithError("need alpha > beta >= gamma >= 1")
    lhs = comb(alpha - beta + gamma - 1, gamma - 1)
    rhs = sum((-1) ** (u - beta) * comb(alpha, u) * comb(u - gamma, u - beta)
              for u in range(beta, alpha + 1))
    return lhs == rhs


def full_profile(code: LinearCode, coeffs: ShiftedCoeffs,
                 hierarchy: WeightHierarchy) -> list:
    """One IdealProfile per a = 1..n, with the two degree routes
    cross-checked before anything is returned."""
    out = []
    for a in range(1, code.n + 1):
        r = hierarchy.interval_index(a)
        j = a - hierarchy.d[r]
        height = code.k - r
        degree = degree_from_tutte(code, coeffs, hierarchy, a)
        primes = minimal_primes_low_height(code, hierarchy, a)
        if r == 0:
            closed = comb(code.k + a - 1, code.k)
            if degree != closed:
                raise InternalInvariantError(
                    f"a={a}: coefficient degree {degree} != closed form "
                    f"{closed}")
        else:
            by_primes = degree_from_primes(code, hierarchy, primes, a)
            if degree != by_primes:
                raise InternalInvariantError(
                    f"a={a}: coefficient degree {degree} != prime-sum "
                    f"degree {by_primes}")
        mu = mu_of_ideal(code, coeffs, a)
        out.append(IdealProfile(a=a, r=r, j=j, height=height, degree=degree,
                                mu=mu, primes=tuple(primes),
                                irrelevant_power=(r == 0)))
    return out
