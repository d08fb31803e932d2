"""Identification of binary hidden Markov processes from exact string distributions.

Given the full table of probabilities a stationary-or-not process assigns to
binary strings of length n, this package decides whether some hidden Markov
process on at most floor((n+1)/2) states generates it, and if so recovers
transition, emission and initial parameters up to relabeling of the hidden
states.  The decision rests on the ranks of finite Hankel blocks of the
table; recovery diagonalizes an operator quotient built from them.
"""

__version__ = "0.1.0"

from .tolerances import ToleranceConfig, DEFAULT_TOLERANCES
from .strings import check_binary, string_index, strings_of_length, strings_up_to
from .distribution import (StringDistribution, validate, marginals, marginalize,
                           prefix_probability, is_stationary,
                           load_distribution, save_distribution)
from .hmp import (HmpParams, split, string_probability,
                  full_distribution, vandermonde_example, random_stochastic,
                  permute_states, equivalent_up_to_permutation, validate_params,
                  load_params, save_params)
from .hankel import hankel_block, numerical_rank, select_basis
from .finitary import (FinitaryParams, infer_finitary, infer_finitary_detailed,
                       finitary_probability, process_constraint_residual)
from .recover import recover_hmm, genericity_report, RECOVERED, NOT_GENERIC, NOT_STOCHASTIC
from .identify import (identify, certify, verdict_to_jsonable, max_states_cap,
                       HMP, NO_HMP, CANNOT_DECIDE)
from .minors import minor_membership, minor_count
from . import errors

__all__ = [
    "ToleranceConfig", "DEFAULT_TOLERANCES", "check_binary", "string_index",
    "strings_of_length", "strings_up_to", "StringDistribution", "validate", "marginals",
    "marginalize", "prefix_probability", "is_stationary", "load_distribution",
    "save_distribution", "HmpParams", "split", "string_probability", "full_distribution",
    "vandermonde_example", "random_stochastic", "permute_states",
    "equivalent_up_to_permutation", "validate_params", "load_params", "save_params",
    "hankel_block", "numerical_rank", "select_basis", "FinitaryParams", "infer_finitary",
    "infer_finitary_detailed", "finitary_probability", "process_constraint_residual",
    "recover_hmm", "genericity_report", "RECOVERED", "NOT_GENERIC", "NOT_STOCHASTIC",
    "identify", "certify", "verdict_to_jsonable", "max_states_cap", "HMP", "NO_HMP",
    "CANNOT_DECIDE", "minor_membership", "minor_count", "errors",
]
