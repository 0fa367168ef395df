#!/usr/bin/env python3
"""Randomized cross-check experiment.

Samples random linear codes, then verifies on every sample that all
independent computation routes agree:

  * the rank-size counts and the flats of the span-join pass (over Q, run
    mod a few Hadamard-certified primes) vs a count of one rref_join point
    rank per mask, over the code's field, and the closures of the
    independent sets under those ranks,
  * subset-sum Tutte vs deletion-contraction Tutte, in memory and through
    an on-disk TutteCache in a fresh directory, once cold and once warm
    (the warm run opens the directory again while the cold run's cache is
    still open, and must be answered from the entry the cold run wrote
    under the canonical key of the code with its loops and coloops
    stripped, which is committed when that call returns; its one memo key
    is json.dumps of that canonical_matrix_key, and its memo is empty when
    every column is a coloop),
  * Tutte duality, T of the dual generator matrix H by deletion-contraction
    vs T of the code by subset sum with x and y swapped, in memory and
    through an on-disk TutteCache in a fresh directory, once cold and once
    warm, the warm run through a second cache on the directory, which reads
    the cold run's rows back from the database (H's series classes are the
    code's parallel classes, and deletion-contraction removes each in one
    step),
  * the generalized Hamming weights by brute force vs from the shifted
    Tutte coefficients (the dual-rank route reads the brute-force counts,
    so it restates that route), and Wei duality,
  * coefficient-sum degree vs prime-sum degree vs fitted Hilbert degree,
  * the mu coefficient formula vs the generator-span rank,
  * each quotient dimension of R / I_a across the default fit window
    [a-1, a+k+3], from the engine, which derives the degrees past Gotzmann
    persistence from Macaulay's bound, vs a from-scratch elimination of
    the generator multiples,
  * each colon dimension dim (I_a : ell)_t, a >= 2 and t = a-1 .. a+1, from
    the cached-basis engine vs a from-scratch elimination of the degree-(t+1)
    generator multiples and the multiplication rows.

Codes are drawn over GF(p) for the given primes and over the rationals,
with rational entries in [-3, 3].  Codes over Q of dimension
Q_HILBERT_SKIP_K or more skip the Hilbert and colon checks, and the
summary line says how many did.  Exits nonzero on the first disagreement.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field

from starconfig.cli import TutteCache
from starconfig.codes import (LinearCode, dual_generator_matrix,
                              ghw_bruteforce, ghw_from_dual_rank,
                              ghw_from_tutte, weight_hierarchy,
                              wei_duality_check)
from starconfig.fields import GF, QQ, ExactArithError, ExactMatrix
from starconfig.hilbert import (GradedIdealEngine, afold_generators,
                                colon_dim_from_engine, colon_dim_reference,
                                default_windows, fit_hilbert_polynomial,
                                graded_dim_ideal, mu_oracle, ring_dim)
from starconfig.matroid import VectorMatroid
from starconfig.star import full_profile
from starconfig.tutte import (BivarPoly, canonical_matrix_key,
                              tutte_deletion_contraction, tutte_subset_sum,
                              whitney_shift)


# Over Q the Hilbert and colon checks eliminate over the integers, at a
# cost that grows steeply with k: one [9,4] code over Q took more than
# 3000 s, far more than all the other codes of a 200-code run.
Q_HILBERT_SKIP_K = 4


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
            gens = afold_generators(code, p.a)
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
                want = ring_dim(code.k, t) - graded_dim_ideal(gens, t)
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
        elif m.is_coloop(i):
            m = m.contract(i)
    return m


def check_colons(code: LinearCode) -> list:
    failures = []
    for a in range(2, code.n + 1):
        gens = afold_generators(code, a)
        engine = GradedIdealEngine(code.spec, code.k, gens)
        for ell in range(code.n):
            col = code.matrix.column(ell)
            for t in range(a - 1, a + 2):
                got = colon_dim_from_engine(engine, col, t)
                want = colon_dim_reference(code.spec, code.k, gens, col, t)
                if got != want:
                    failures.append(f"a={a}, ell={ell + 1}, t={t}: colon "
                                    f"dimension {got} != from scratch {want}")
    return failures


def run(config: ExperimentConfig) -> int:
    rng = random.Random(config.seed)
    t0 = time.monotonic()
    skipped = 0
    for i in range(config.num_codes):
        code = sample_code(rng, config)
        skip = (config.hilbert and code.spec.kind == "q"
                and code.k >= Q_HILBERT_SKIP_K)
        skipped += skip
        failures = check_code(code, config.hilbert and not skip)
        over = ("Q" if code.spec.kind == "q"
                else f"GF({code.spec.modulus})")
        tag = (f"[{i + 1:>3}/{config.num_codes}] "
               f"[{code.n},{code.k}] over {over}")
        if failures:
            print(f"{tag}  FAIL")
            for f in failures:
                print(f"    {f}")
            print("generator matrix rows:")
            for row in code.matrix.entries:
                print("   ", " ".join(str(x) for x in row))
            return 1
        print(f"{tag}  ok")
    print(f"all {config.num_codes} codes consistent; {skipped} over Q with "
          f"k >= {Q_HILBERT_SKIP_K} skipped the Hilbert and colon checks "
          f"({time.monotonic() - t0:.1f}s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-codes", type=int, default=25)
    parser.add_argument("--max-k", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=9)
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-hilbert", action="store_true",
                        help="skip the Hilbert-oracle comparison")
    args = parser.parse_args(argv)
    if args.max_k < 1:
        parser.error(f"--max-k must be at least 1, got {args.max_k}")
    if args.max_n < args.max_k:
        parser.error(f"--max-n {args.max_n} is below --max-k {args.max_k}")
    for p in args.primes:
        try:
            GF(p)
        except ExactArithError as exc:
            parser.error(f"--primes: {exc}")
    config = ExperimentConfig(num_codes=args.num_codes, max_k=args.max_k,
                              max_n=args.max_n, primes=tuple(args.primes),
                              seed=args.seed, hilbert=not args.no_hilbert)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
