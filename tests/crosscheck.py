"""Reference oracles and the random cross-check of every route.

Nothing here is called by a command: these are the from-scratch routes
the package is checked against, the flats-to-subcodes dictionary, and the
per-code checks of scripts/random_crosscheck.py.  The module imports only
the standard library and starconfig, so that the tests and the script can
both import it.

The from-scratch eliminations call the Hilbert module's kernels through
the module (hilbert._echelon_mod_p and hilbert._echelon_int), so a test
that patches those kernels patches these references too.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field

from starconfig import hilbert as hilbert_module
from starconfig.cli import TutteCache
from starconfig.codes import (LinearCode, dual_generator_matrix,
                              ghw_bruteforce, ghw_from_dual_rank,
                              ghw_from_tutte, weight_hierarchy,
                              wei_duality_check)
from starconfig.fields import (GF, QQ, ExactArithError, ExactMatrix,
                               kernel_basis)
from starconfig.hilbert import (GradedIdealEngine,
                                _linear_multiplication_rows,
                                afold_generators, colon_dim_from_engine,
                                default_windows, fit_hilbert_polynomial,
                                monomial_index, monomials, mu_oracle,
                                oracle_forms, ring_dim)
from starconfig.matroid import Flat, VectorMatroid, bits_of
from starconfig.star import full_profile
from starconfig.tutte import (BivarPoly, canonical_matrix_key,
                              tutte_deletion_contraction, tutte_subset_sum,
                              whitney_shift)


# -- graded pieces and colons from scratch -----------------------------------
#
# Generators are given as GradedIdealEngine takes them: a dict degree ->
# rows of ring_dim(k, degree) coefficients.

def poly_from_dict(spec, k, degree, table) -> list:
    """The coefficient row of the degree-`degree` form with the given
    exponent-tuple -> coefficient table, each coefficient coerced."""
    idx = monomial_index(k, degree)
    row = [spec.zero] * ring_dim(k, degree)
    for exps, c in table.items():
        row[idx[exps]] = spec.coerce(c)
    return row


def graded_dim_ideal(spec, k, gens, t: int) -> int:
    """dim of the degree-t piece of the ideal spanned by the given
    homogeneous generators (monomial multiples, exact rank).

    Reference implementation; agrees with GradedIdealEngine by tests.
    """
    return len(_echelon_from_scratch(spec, _generator_multiples(spec, k, gens,
                                                               t)))


def _generator_multiples(spec, k, gens, t) -> list:
    """Coefficient rows of every monomial multiple of degree t of the
    generators."""
    idx = monomial_index(k, t)
    rows = []
    for degree, gen_rows in gens.items():
        if t < degree:
            continue
        for g in gen_rows:
            terms = [(exps, c) for exps, c in zip(monomials(k, degree), g)
                     if c]
            for mono in monomials(k, t - degree):
                row = [0] * ring_dim(k, t)
                for exps, c in terms:
                    row[idx[tuple(e + m for e, m in zip(exps, mono))]] = c
                rows.append(row)
    return rows


def _echelon_from_scratch(spec, rows) -> list:
    """Echelon rows of the rows by one elimination, with no cached basis."""
    if not rows:
        return []
    if spec.kind == "gf":
        return hilbert_module._echelon_mod_p(rows, spec.modulus).tolist()
    return hilbert_module._echelon_int(rows)


def colon_dim_reference(spec, k, gens, col, t: int) -> int:
    """dim (I : ell)_t from scratch: dim R_t minus the rank that the
    multiplication image of R_t adds to the degree-(t+1) multiples of the
    generators, by eliminations with no cached basis.

    Reference implementation; agrees with colon_dim_from_engine by tests.
    """
    ideal = _echelon_from_scratch(
        spec, _generator_multiples(spec, k, gens, t + 1))
    image = _linear_multiplication_rows(k, col, t, range(ring_dim(k, t)))
    added = len(_echelon_from_scratch(spec, ideal + image)) - len(ideal)
    return ring_dim(k, t) - added


# -- arithmetic only the tests use -------------------------------------------

def field_add(spec, x, y):
    """x + y in the field of spec."""
    return (x + y) % spec.modulus if spec.kind == "gf" else x + y


def poly_mul(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """The product of two polynomials in x and y."""
    out = {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return BivarPoly(out)


def is_coloop(m: VectorMatroid, i: int) -> bool:
    """Whether element i is a coloop of m: deleting it lowers the rank."""
    full = (1 << m.n) - 1
    return m.rank(full ^ (1 << i)) == m.full_rank - 1


# -- flats <-> subcodes ------------------------------------------------------

def closure(m: VectorMatroid, mask: int) -> Flat:
    """cl(I) = {j : r(I + j) = r(I)}; same rank as I."""
    base = m.rank(mask)
    members = mask
    for j in range(m.n):
        bit = 1 << j
        if not mask & bit and m.rank(mask | bit) == base:
            members |= bit
    return Flat(members, base)


def left_kernel_basis(m: ExactMatrix, cols) -> list:
    """Basis of {v in K^k : v . G_cols = 0}, as length-k tuples.

    Always has size k minus the rank of the chosen columns; for cols = []
    this is the standard basis of K^k.
    """
    # v . G_cols = 0  <=>  (G_cols)^T v = 0: the chosen columns are the rows
    return kernel_basis(map(m.column, cols), m.rows, m.spec)


@dataclass(frozen=True)
class Subcode:
    """Subcode spanned by v_i G for a left-kernel basis {v_i} of G_I."""

    basis: tuple  # codewords, length-n tuples
    support: int  # bitmask
    source_flat: Flat

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def support_size(self) -> int:
        return bin(self.support).count("1")


def subcode_from_flat(code: LinearCode, f: Flat) -> Subcode:
    m = code.matroid
    if closure(m, f.members).members != f.members:
        raise ExactArithError("subset is not a flat")
    if f.rank >= code.k:
        raise ExactArithError("flat of full rank yields the zero subcode")
    spec = code.spec
    kernel = left_kernel_basis(code.matrix, bits_of(f.members))
    words = []
    support = 0
    for v in kernel:
        w = []
        for j in range(code.n):
            col = code.matrix.column(j)
            acc = spec.zero
            for vi, gij in zip(v, col):
                acc = field_add(spec, acc, spec.mul(vi, gij))
            w.append(acc)
            if acc != spec.zero:
                support |= 1 << j
        words.append(tuple(w))
    return Subcode(tuple(words), support, f)


# -- the random cross-check --------------------------------------------------

@dataclass
class ExperimentConfig:
    num_codes: int = 25
    max_k: int = 4
    max_n: int = 9
    primes: tuple = (2, 3, 5)
    seed: int = 0
    hilbert: bool = True
    fields: list = field(init=False)

    def __post_init__(self):
        self.fields = [GF(p) for p in self.primes] + [QQ]


def sample_code(rng: random.Random, config: ExperimentConfig) -> LinearCode:
    while True:
        k = rng.randint(1, config.max_k)
        n = rng.randint(k, config.max_n)
        spec = rng.choice(config.fields)
        if spec.kind == "q":
            rows = [[rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(k)]
        else:
            rows = [[rng.randrange(spec.modulus) for _ in range(n)]
                    for _ in range(k)]
        try:
            return LinearCode(ExactMatrix.from_rows(spec, rows))
        except Exception:
            continue


def check_code(code: LinearCode, hilbert: bool) -> list:
    failures = []
    m = code.matroid
    ranks = [m._rank_by_elimination(sub) for sub in range(1 << m.n)]
    counts = [[0] * (m.n + 1) for _ in range(m.full_rank + 1)]
    closures = [set() for _ in range(m.full_rank + 1)]
    for sub, r in enumerate(ranks):
        size = bin(sub).count("1")
        counts[r][size] += 1
        if r == size:  # independent: its closure is a flat of rank r
            closures[r].add(sub | sum(1 << j for j in range(m.n)
                                      if ranks[sub | 1 << j] == r))
    if m.rank_size_counts().tolist() != counts:
        failures.append("rank-size counts disagree with point queries")
    for s, flats in enumerate(closures):
        if [f.members for f in m.flats_of_rank(s)] != sorted(flats):
            failures.append(f"flats of rank {s} disagree with the closures "
                            f"of the independent sets")
    tutte = tutte_subset_sum(code.matroid)
    if tutte != tutte_deletion_contraction(code.matroid):
        failures.append("tutte engines disagree")
    with tempfile.TemporaryDirectory() as tmp, TutteCache(tmp) as cold:
        if tutte != tutte_deletion_contraction(code.matroid, cache=cold):
            failures.append("deletion-contraction through a cold disk "
                            "cache disagrees with subset sum")
        # a second cache, opened while the first is still open, sees the
        # entries the cold call wrote, so the root's entry answers it
        memo = {}
        with TutteCache(tmp) as warm:
            poly = tutte_deletion_contraction(code.matroid, memo, warm)
        if tutte != poly:
            failures.append("deletion-contraction through a warm disk "
                            "cache disagrees with subset sum")
        stripped = without_loops_and_coloops(code.matroid)
        if stripped.n == 0:
            if memo:
                failures.append("the warm call keyed a minor of a code "
                                "whose columns are all coloops")
        elif len(memo) != 1:
            failures.append("the cold call's entries were not committed "
                            "when it returned")
        elif list(memo) != [json.dumps(canonical_matrix_key(
                stripped.matrix))]:
            failures.append("the warm call's memo key is not the text of "
                            "the canonical key of the stripped code")
    dual = VectorMatroid(dual_generator_matrix(code))
    swapped = BivarPoly({(j, i): c for (i, j), c in tutte.terms.items()})
    if tutte_deletion_contraction(dual) != swapped:
        failures.append("T of the dual generator matrix is not T(y, x)")
    with tempfile.TemporaryDirectory() as tmp, TutteCache(tmp) as cold:
        if tutte_deletion_contraction(dual, cache=cold) != swapped:
            failures.append("T of the dual generator matrix through a cold "
                            "disk cache is not T(y, x)")
        # a second cache reads the rows back from the database, where the
        # cold one would answer them from memory
        with TutteCache(tmp) as warm:
            if tutte_deletion_contraction(dual, cache=warm) != swapped:
                failures.append("T of the dual generator matrix through a "
                                "warm disk cache is not T(y, x)")
    shifted = whitney_shift(tutte, code.k)
    hierarchy = weight_hierarchy(code)
    for r in range(code.k + 1):
        routes = {ghw_bruteforce(code, r), ghw_from_tutte(shifted, code, r),
                  ghw_from_dual_rank(code, r)}
        if len(routes) != 1:
            failures.append(f"ghw routes disagree at r={r}: {routes}")
    holds, lhs, rhs, _ = wei_duality_check(code)
    if not holds:
        failures.append(f"Wei duality violated: {lhs} vs {rhs}")
    profiles = full_profile(code, shifted, hierarchy)  # cross-checks degrees
    if hilbert:
        for p in profiles:
            gens = {p.a: afold_generators(code, p.a)}
            engine = GradedIdealEngine(code.spec, code.k, gens)
            fit = fit_hilbert_polynomial(code, p.a, engine=engine)
            if fit.degree_invariant != p.degree:
                failures.append(
                    f"a={p.a}: Hilbert degree {fit.degree_invariant} "
                    f"!= Tutte degree {p.degree}")
            if fit.implied_height != p.height:
                failures.append(
                    f"a={p.a}: Hilbert height {fit.implied_height} "
                    f"!= interval height {p.height}")
            if mu_oracle(code, p.a, engine) != p.mu:
                failures.append(f"a={p.a}: mu oracle disagrees")
            lo, his = default_windows(p.a, code.k)
            for t in range(lo, his[0] + 1):
                got = engine.quotient_dim(t)
                want = ring_dim(code.k, t) - graded_dim_ideal(
                    code.spec, code.k, gens, t)
                if got != want:
                    failures.append(f"a={p.a}, t={t}: quotient dimension "
                                    f"{got} != from scratch {want}")
        failures += check_colons(code)
    return failures


def without_loops_and_coloops(m: VectorMatroid) -> VectorMatroid:
    """m with its loops deleted and its coloops contracted, from the last
    element down, through VectorMatroid minors."""
    for i in reversed(range(m.n)):
        if m.is_loop(i):
            m = m.delete(i)
        elif is_coloop(m, i):
            m = m.contract(i)
    return m


def check_colons(code: LinearCode) -> list:
    failures = []
    forms = oracle_forms(code)
    for a in range(2, code.n + 1):
        gens = {a: afold_generators(code, a)}
        engine = GradedIdealEngine(code.spec, code.k, gens)
        for ell, col in enumerate(forms):
            for t in range(a - 1, a + 2):
                got = colon_dim_from_engine(engine, col, t)
                want = colon_dim_reference(code.spec, code.k, gens, col, t)
                if got != want:
                    failures.append(f"a={a}, ell={ell + 1}, t={t}: colon "
                                    f"dimension {got} != from scratch {want}")
    return failures
