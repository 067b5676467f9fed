"""Reproduction experiments: one module per paper artefact.

:mod:`repro.experiments.registry` is the experiment index (id ->
runner); ``repro list`` prints it.
"""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "ExperimentConfig": ".base",
    "ExperimentResult": ".base",
    "EXPERIMENTS": ".registry",
    "experiment_ids": ".registry",
    "get_experiment": ".registry",
    "run_experiment": ".registry",
    "run_all": ".registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
