"""The experiment registry: id -> runner.

One entry per reproduced paper artefact; the CLI and the benchmark
suite both dispatch through :func:`get_experiment` / :func:`run_experiment`
so the set of reproducible artefacts is defined in exactly one place.
"""

from __future__ import annotations

from collections.abc import Callable

from . import coding, crossover, divergence, lemmas, pliam, ssf
from . import adapt_robust, jam_robust, learning_loop, robustness
from . import table1_cd, table1_nocd, table2
from .base import ExperimentConfig, ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
    "run_all",
]

Runner = Callable[[ExperimentConfig], ExperimentResult]

#: Experiment id -> (runner, one-line description).
EXPERIMENTS: dict[str, tuple[Runner, str]] = {
    "T1-NCD-UP": (
        table1_nocd.run_upper,
        "Table 1 no-CD upper: sorted probing within 2^(2H) (Thm 2.12)",
    ),
    "T1-NCD-LOW": (
        table1_nocd.run_lower,
        "Table 1 no-CD lower: RF-Construction entropy floor (Thm 2.4)",
    ),
    "T1-CD-UP": (
        table1_cd.run_upper,
        "Table 1 CD upper: code-class search within O(H^2) (Thm 2.16)",
    ),
    "T1-CD-LOW": (
        table1_cd.run_lower,
        "Table 1 CD lower: tree-construction entropy floor (Thm 2.8)",
    ),
    "T2-DET-NCD": (
        table2.run_det_nocd,
        "Table 2 deterministic no-CD: Theta(n/2^b) (Thm 3.4)",
    ),
    "T2-DET-CD": (
        table2.run_det_cd,
        "Table 2 deterministic CD: Theta(log n - b) (Thm 3.5)",
    ),
    "T2-RAND-NCD": (
        table2.run_rand_nocd,
        "Table 2 randomized no-CD: Theta(log n / 2^b) (Thm 3.6)",
    ),
    "T2-RAND-CD": (
        table2.run_rand_cd,
        "Table 2 randomized CD: Theta(log log n - b) (Thm 3.7)",
    ),
    "KL-NCD": (
        divergence.run_nocd,
        "Divergence cost, no-CD: budget 2^(2H+2D) (Thm 2.12)",
    ),
    "KL-CD": (
        divergence.run_cd,
        "Divergence cost, CD: budget (H+D+1)^2 (Thm 2.16)",
    ),
    "SRC-CODE": (
        coding.run,
        "Source coding and cross-coding sandwiches (Thms 2.2/2.3)",
    ),
    "PLIAM": (
        pliam.run,
        "Entropy vs guesswork separation (Sec 2.5 conjecture)",
    ),
    "LEMMA-PROBS": (
        lemmas.run,
        "Success-probability windows (Lemmas 2.6/2.10/2.13)",
    ),
    "BASELINE-X": (
        crossover.run,
        "Prediction protocols vs decay/Willard across entropy",
    ),
    "SSF": (
        ssf.run,
        "Strongly selective families + non-interactive advice (Sec 3.2)",
    ),
    "LEARN": (
        learning_loop.run,
        "Online learning loop: divergence falls, rounds converge (Sec 1)",
    ),
    "ADVICE-ROBUST": (
        robustness.run,
        "Faulty advice failure modes + fallback repair (Sec 1.3)",
    ),
    "JAM-ROBUST": (
        jam_robust.run,
        "Budgeted jamming robustness curves for the CD protocols",
    ),
    "ADAPT-ROBUST": (
        adapt_robust.run,
        "Adaptive-adversary stress curves: predictions vs robust baselines",
    ),
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in registry order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Runner:
    """The runner for ``experiment_id``; raises ``KeyError`` with options."""
    try:
        return EXPERIMENTS[experiment_id][0]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Run one experiment under ``config`` (default config otherwise)."""
    runner = get_experiment(experiment_id)
    return runner(config if config is not None else ExperimentConfig())


def run_all(config: ExperimentConfig | None = None) -> list[ExperimentResult]:
    """Run the full registry in order (the EXPERIMENTS.md regeneration)."""
    return [run_experiment(experiment_id, config) for experiment_id in EXPERIMENTS]
