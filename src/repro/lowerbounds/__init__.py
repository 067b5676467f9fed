"""Constructive lower-bound machinery from the paper's proofs.

Everything here is an *executable* version of a proof object: range
finding (the intermediate game), RF-Construction and the CD tree
construction (algorithm -> strategy transforms), target-distance coding
(strategy -> prefix code), the success-probability lemmas, strongly
selective families, non-interactive contention resolution, and the
closed-form bound formulas of Tables 1 and 2.
"""

from .. import _lazy

# ``rf_construction`` names a submodule and its function: importing the
# function here binds the name before an import of the submodule could
# bind the module to it.
from .rf_construction import rf_construction

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    # range finding
    "SequenceRangeFinder": ".range_finding",
    "LabeledBinaryTree": ".range_finding",
    "default_sequence_tolerance": ".range_finding",
    "default_tree_tolerance": ".range_finding",
    # constructions
    "rf_construction": ".rf_construction",
    "rf_range_finder": ".rf_construction",
    "guess_from_probability": ".rf_construction",
    "unfold_probability_tree": ".tree_construction",
    "relabel_with_guesses": ".tree_construction",
    "canonical_range_tree": ".tree_construction",
    "canonical_insert_depth": ".tree_construction",
    "build_range_finding_tree": ".tree_construction",
    # coding
    "elias_gamma_encode": ".target_distance_coding",
    "elias_gamma_decode": ".target_distance_coding",
    "SequenceTargetDistanceCode": ".target_distance_coding",
    "TreeTargetDistanceCode": ".target_distance_coding",
    # success-probability lemmas
    "single_success_probability": ".success_bounds",
    "lemma_2_6_window": ".success_bounds",
    "lemma_2_6_threshold": ".success_bounds",
    "lemma_2_10_window": ".success_bounds",
    "lemma_2_10_threshold": ".success_bounds",
    "lemma_2_13_lower_bound": ".success_bounds",
    "window_violation": ".success_bounds",
    # selective families
    "is_strongly_selective": ".selective_families",
    "find_unselected_pair": ".selective_families",
    "random_selectivity_counterexample": ".selective_families",
    "singleton_family": ".selective_families",
    "bit_family": ".selective_families",
    "polynomial_family": ".selective_families",
    "exhaustive_minimum_family_size": ".selective_families",
    "theorem_3_2_threshold": ".selective_families",
    # parallel-advice reduction (Theorem 3.6)
    "parallel_advice_protocol": ".parallel_advice",
    "ParallelAdviceProtocol": ".parallel_advice",
    # non-interactive CR
    "NonInteractiveScheme": ".noninteractive",
    "verify_scheme": ".noninteractive",
    "is_weakly_selective": ".noninteractive",
    "exhaustive_minimum_weak_family_size": ".noninteractive",
    "scheme_from_protocol": ".noninteractive",
    "theorem_3_3_bound": ".noninteractive",
    # closed-form bounds
    "log2_clamped": ".bounds",
    "loglog": ".bounds",
    "logloglog": ".bounds",
    "loglogloglog": ".bounds",
    "table1_nocd_lower": ".bounds",
    "table1_nocd_upper": ".bounds",
    "table1_cd_lower": ".bounds",
    "table1_cd_upper": ".bounds",
    "table2_det_nocd_lower": ".bounds",
    "table2_det_nocd_upper": ".bounds",
    "table2_det_cd_lower": ".bounds",
    "table2_det_cd_upper": ".bounds",
    "table2_rand_nocd": ".bounds",
    "table2_rand_cd": ".bounds",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
