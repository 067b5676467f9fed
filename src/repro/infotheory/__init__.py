"""Information-theoretic substrate for the reproduction.

Exposes the quantities the paper's bounds are written in - entropy of the
condensed size distribution, KL divergence between truth and prediction -
plus the coding machinery (Huffman / Shannon / canonical prefix codes) that
both the CD upper-bound algorithm and the lower-bound reductions consume.
"""

from .. import _lazy

# ``entropy`` names a submodule and its function: importing the function
# here binds the name before an import of the submodule could bind the
# module to it.
from .entropy import entropy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    # entropy
    "entropy": ".entropy",
    "cross_entropy": ".entropy",
    "kl_divergence": ".entropy",
    "max_entropy": ".entropy",
    "min_entropy": ".entropy",
    "renyi_entropy": ".entropy",
    "guesswork": ".entropy",
    "total_variation": ".entropy",
    "normalize": ".entropy",
    "validate_pmf": ".entropy",
    # condensation
    "MIN_NETWORK_SIZE": ".condense",
    "CondensedDistribution": ".condense",
    "num_ranges": ".condense",
    "range_of_size": ".condense",
    "range_interval": ".condense",
    "range_probability": ".condense",
    "representative_size": ".condense",
    # distributions
    "SizeDistribution": ".distributions",
    "Sampler": ".distributions",
    # coding
    "PrefixCode": ".coding",
    "CodewordError": ".coding",
    "code_from_lengths": ".coding",
    "kraft_sum": ".coding",
    "kraft_lengths_realizable": ".coding",
    "shannon_code_lengths": ".coding",
    "huffman_code": ".huffman",
    "huffman_code_lengths": ".huffman",
    "optimal_code_for": ".huffman",
    "shannon_code": ".source_coding",
    "CodingReport": ".source_coding",
    "source_coding_report": ".source_coding",
    "cross_coding_report": ".source_coding",
    "expected_code_length": ".source_coding",
    # perturbations
    "mix_with_uniform": ".perturb",
    "temperature": ".perturb",
    "shift_ranges": ".perturb",
    "swap_extremes": ".perturb",
    "floor_support": ".perturb",
    "from_condensed_profile": ".perturb",
    "divergence_between": ".perturb",
    "entropy_of": ".perturb",
    "prediction_quality_sweep": ".perturb",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
