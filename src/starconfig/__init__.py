"""Exact Tutte-polynomial and Hilbert-function invariants of generalized
star configuration ideals built from linear codes."""

from .fields import GF, QQ, ExactMatrix, FieldSpec, rref
from .matroid import Flat, VectorMatroid
from .tutte import (BivarPoly, ShiftedCoeffs, tutte_deletion_contraction,
                    tutte_subset_sum, whitney_shift)
from .codes import (LinearCode, WeightHierarchy, ghw_bruteforce,
                    ghw_from_dual_rank, ghw_from_tutte, weight_hierarchy,
                    wei_duality_check)
from .star import (IdealProfile, MinimalPrime, binomial_identity_check,
                   degree_from_primes, degree_from_tutte, full_profile,
                   minimal_primes_low_height, mu_of_ideal)
from .hilbert import (FittedHP, afold_generators,
                      conjecture_report, fit_hilbert_polynomial, mu_oracle)

__all__ = [name for name in dir() if not name.startswith("_")]
