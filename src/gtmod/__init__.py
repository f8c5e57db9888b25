"""Exact-arithmetic Gelfand-Tsetlin tableau modules for gl(n).

The package builds the classical tableau modules (finite-dimensional and
generic) and their 1-singular extension by derivative tableaux, entirely
over exact rationals, plus a verification harness that checks every
algebraic identity with zero tolerance.

Layers, bottom up:

* :mod:`gtmod.ratfun`   -- univariate rational functions over Q and the
  point operators at t = 0 (the oracle form of a coefficient, which no
  module family reads);
* :mod:`gtmod.tableaux` -- tableaux, shift vectors, row permutations,
  singular frames;
* :mod:`gtmod.coeffs`   -- the coefficient functions e_rs (as integer
  2-jets at t = 0, and as whole functions for the oracles) and gamma_rs
  (as its half-derivative and value at t = 0), the permutation form every
  family acts by, and the classical oracle;
* :mod:`gtmod.lincomb`  -- sparse formal linear combinations, and sums of
  their scaled images under linear maps;
* :mod:`gtmod.core`     -- ``TableauModule``, the base class every module
  family subclasses: its three stores and the shared operations
  (action on combinations and on single symbols; bracket defects and
  composed central words, both summed by one evaluator of signed generator
  words, on a combination or straight on a basis symbol; the memoized
  closed-form gamma_rs pair);
* :mod:`gtmod.generic`, :mod:`gtmod.singular`, :mod:`gtmod.finite` -- the
  three module families, each adding its own state and its action on one
  symbol;
* :mod:`gtmod.n3`       -- the ten-piece decomposition over the all-equal
  n = 3 base point;
* :mod:`gtmod.verify`, :mod:`gtmod.cli` -- reportable verification suites.
"""

from .ratfun import PoleError, Poly, RatFun
from .lincomb import LinComb
from .tableaux import (
    PermTuple, ShiftVector, SingularFrame, Tableau,
    epsilon, is_generic, is_standard, omega_plus,
    phi_set, singular_pairs, tau_perm, tau_star, window_shifts,
)
from .coeffs import Jet, classical_action, coeff_e, coeff_ratfun, gamma, perm_action
from .generic import GenericModule, submodule_membership
from .singular import (
    DER, REG, BasisSymbol, InvariantViolation, SingularModule,
    canonical_window, canonicalize, connecting_shift, generation_witnesses,
    irreducibility_hypothesis,
)
from .finite import FiniteModule, standard_tableaux, weyl_dimension
from .n3 import classify_shift, weight_key
from .verify import (
    Config, VerificationReport, build_action_matrix, export_action, run_suite,
)
from . import fixtures

__version__ = "0.1.0"
