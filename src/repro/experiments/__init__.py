"""Reproduction experiments: one module per paper artefact.

:mod:`repro.experiments.registry` is the experiment index (id ->
runner); ``repro list`` prints it.
"""

from .base import ExperimentConfig, ExperimentResult
from .registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
    run_all,
    run_experiment,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "EXPERIMENTS",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
    "run_all",
]
