"""Measurement harness: Monte Carlo estimators, exact solvers, summaries,
and plain-text rendering for experiment output."""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "Summary": ".metrics",
    "ProportionEstimate": ".metrics",
    "wilson_interval": ".metrics",
    "linear_fit": ".metrics",
    "loglog_slope": ".metrics",
    "RoundsEstimate": ".montecarlo",
    "estimate_uniform_rounds": ".montecarlo",
    "estimate_success_within": ".montecarlo",
    "estimate_player_rounds": ".montecarlo",
    "SolveTimeDistribution": ".exact",
    "schedule_solve_time": ".exact",
    "schedule_success_within": ".exact",
    "round_success_probabilities": ".exact",
    "expected_rounds_mixture": ".exact",
    "cd_expected_rounds": ".exact",
    "phased_search_expected_rounds": ".exact_search",
    "PhasedSearchExpectation": ".exact_search",
    "render_table": ".tables",
    "render_csv": ".tables",
    "rows_to_columns": ".tables",
    "format_cell": ".tables",
    "text_plot": ".textplot",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
