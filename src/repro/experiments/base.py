"""Experiment infrastructure: configs, results and shape checks.

Every experiment in the registry consumes an :class:`ExperimentConfig`
(scale knobs + RNG seed) and produces an :class:`ExperimentResult` - a
table of measured rows, a set of named boolean *shape checks* (the
operational meaning of "reproduced" for an asymptotic claim) and
free-form notes.  The CLI and the benchmark
harness both render results through :meth:`ExperimentResult.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.tables import render_csv, render_table

__all__ = ["ExperimentConfig", "ExperimentResult"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and reproducibility knobs shared by all experiments.

    Attributes
    ----------
    n:
        Maximum network size (``2^16`` default: 16 condensed ranges).
    trials:
        Monte Carlo trials per measured point.
    seed:
        Root RNG seed; every experiment derives its generator from it.
    quick:
        Thinned sweeps and reduced trials, for benchmarks and CI.  The
        full scale is what ``tools/generate_experiments_md.py`` runs.
    batch:
        Run uniform Monte Carlo estimation on the vectorized batch engine
        (the default; protocols that cannot batch fall back to the scalar
        loop automatically).  ``False`` forces the scalar reference loop
        everywhere - the ``--no-batch`` escape hatch for A/B-ing the two
        substrates.
    """

    n: int = 2**16
    trials: int = 3000
    seed: int = 2021
    quick: bool = False
    batch: bool = True

    def rng(self) -> np.random.Generator:
        """A fresh generator seeded from :attr:`seed`."""
        return np.random.default_rng(self.seed)

    def effective_trials(self, quick_trials: int = 400) -> int:
        """Trial count honouring the quick flag."""
        return min(self.trials, quick_trials) if self.quick else self.trials

    def batch_mode(self) -> bool | None:
        """The estimators' ``batch`` argument for this config.

        ``None`` (auto-detect with scalar fallback) when batching is on,
        ``False`` (forced scalar) when it is off - the config never forces
        ``batch=True`` because registry experiments mix batchable and
        non-batchable protocols.
        """
        return None if self.batch else False


@dataclass
class ExperimentResult:
    """A rendered-ready experiment outcome.

    ``checks`` maps a human-readable claim to whether the measurement
    satisfied it; an experiment "reproduces" its paper artefact when all
    checks pass.  ``reference`` names the paper artefact (table cell,
    theorem) being reproduced.
    """

    experiment_id: str
    title: str
    reference: str
    headers: list[str]
    rows: list[list[object]]
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def all_checks_pass(self) -> bool:
        """Whether every named shape check held."""
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        """Names of the checks that did not hold."""
        return [name for name, passed in self.checks.items() if not passed]

    def render(self, *, precision: int = 3) -> str:
        """Full plain-text report: table, checks, notes."""
        parts = [
            f"== {self.experiment_id}: {self.title}",
            f"   reproduces: {self.reference}",
            "",
            render_table(self.headers, self.rows, precision=precision),
        ]
        if self.checks:
            parts.append("checks:")
            for name, passed in self.checks.items():
                parts.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        if self.notes:
            parts.append("notes:")
            for note in self.notes:
                parts.append(f"  - {note}")
        return "\n".join(parts) + "\n"

    def to_csv(self) -> str:
        """The measurement table as CSV."""
        return render_csv(self.headers, self.rows)
