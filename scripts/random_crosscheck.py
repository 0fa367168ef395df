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
    persistence from Macaulay's bound and, over Q, those past a
    regularity certificate from the k degrees before them, vs a
    from-scratch elimination of the generator multiples,
  * each colon dimension dim (I_a : ell)_t, a >= 2 and t = a-1 .. a+1, from
    the cached-basis engine vs a from-scratch elimination of the degree-(t+1)
    generator multiples and the multiplication rows.

Codes are drawn over GF(p) for the given primes and over the rationals,
with rational entries in [-3, 3].  Codes over Q of dimension
Q_HILBERT_SKIP_K or more skip the Hilbert and colon checks, and the
summary line says how many did.  Exits nonzero on the first disagreement.
The checks are in tests/crosscheck.py; this script samples and reports.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from starconfig.fields import GF, ExactArithError

# the checks live with the tests, which run them on a small seeded budget
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from crosscheck import ExperimentConfig, check_code, sample_code  # noqa: E402


# Over Q the Hilbert and colon checks eliminate over the integers, at a
# cost that grows steeply with k: one [9,4] code over Q took more than
# 3000 s, far more than all the other codes of a 200-code run.
Q_HILBERT_SKIP_K = 4


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
    if args.num_codes < 1:
        parser.error(f"--num-codes must be at least 1, got {args.num_codes}")
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
