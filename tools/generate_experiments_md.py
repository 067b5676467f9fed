#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a full run of the experiment registry.

Usage:  python tools/generate_experiments_md.py [--quick] [--trials N]

Runs every registered experiment at the configured scale and writes
EXPERIMENTS.md with, per experiment: the paper claim being reproduced, the
measured table, and the PASS/FAIL shape checks.  The preamble explains how
to read a finite-n reproduction of asymptotic claims.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.base import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, run_experiment

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

This file is regenerated by `python tools/generate_experiments_md.py`.
It records, for every artefact in the paper's evaluation (Tables 1 and 2
plus the supporting lemmas/conjecture), the paper's claim and this
reproduction's measurement.

**How to read a finite-n reproduction of asymptotic claims.**  The paper's
results are `O / Omega / Theta` statements with unspecified constants; no
finite experiment can confirm or refute a constant-free asymptotic.  What
the experiments check instead ("shape checks"):

- *budget containment*: upper-bound algorithms succeed within the
  theorem's own budget formula, at or above the theorem's success
  probability (explicit constants 1/16, 1/8 are checked as stated);
- *floor containment*: the constructive lower-bound objects never beat
  their information-theoretic floors (Source Coding Theorem `E[len] >= H`
  is checked exactly — it is constant-free);
- *scaling*: measured curves regress to the claimed exponents/slopes, and
  are monotone in the driving parameter (entropy, divergence, advice bits);
- *tightness*: for the Table 2 Theta-bounds, measured worst cases sit
  within small constant factors of the formulas, in both directions.

A `[PASS]` line means the named check held at the recorded scale and seed.
Every number is reproducible: configuration and seed are printed with each
experiment, and `repro run <ID> --seed ... --trials ...` replays it.
"""

CLAIMS: dict[str, str] = {
    "T1-NCD-UP": (
        "**Paper claim (Theorem 2.12 / Corollary 2.15; Table 1, no-CD "
        "upper).** With prediction Y = X, sorted probing solves contention "
        "resolution within O(2^{2H(c(X))}) rounds with probability >= 1/16."
    ),
    "T1-NCD-LOW": (
        "**Paper claim (Theorem 2.4 via Lemmas 2.5 + 2.7; Table 1, no-CD "
        "lower).** Every uniform algorithm needs Omega(2^{H(c(X))} / log "
        "log n) expected rounds; constructively, RF-Construction turns any "
        "schedule into a range-finding sequence with E[Z] <= 2 t_X(n), and "
        "its target-distance code cannot beat the entropy floor."
    ),
    "T1-CD-UP": (
        "**Paper claim (Theorem 2.16 / Corollary 2.18; Table 1, CD "
        "upper).** With prediction Y = X, the code-class search solves "
        "within O(H(c(X))^2) rounds with constant probability."
    ),
    "T1-CD-LOW": (
        "**Paper claim (Theorem 2.8 via Lemmas 2.9 + 2.11; Table 1, CD "
        "lower).** Uniform CD algorithms need >= H(c(X))/2 - O(log log log "
        "log n) expected rounds; constructively, the labelled-tree code of "
        "any CD algorithm cannot beat the entropy floor, and expected tree "
        "depth is dominated by twice the algorithm's expected rounds."
    ),
    "T2-DET-NCD": (
        "**Paper claim (Theorem 3.4 + Section 3.2 upper; Table 2).** "
        "Deterministic, no CD: with b bits of perfect advice the worst case "
        "is Theta(n / 2^b) rounds (lower n^{1-alpha}/2, upper 2^{w-b})."
    ),
    "T2-DET-CD": (
        "**Paper claim (Theorem 3.5 + Section 3.2 upper; Table 2).** "
        "Deterministic, CD: worst case Theta(log n - b) rounds (upper "
        "log n - b + 1)."
    ),
    "T2-RAND-NCD": (
        "**Paper claim (Theorem 3.6; Table 2).** Randomized, no CD: "
        "expected rounds Theta(log n / 2^b) via truncated decay."
    ),
    "T2-RAND-CD": (
        "**Paper claim (Theorem 3.7; Table 2).** Randomized, CD: expected "
        "rounds Theta(log log n - b) via truncated Willard search; O(1) "
        "once b >= log log n."
    ),
    "KL-NCD": (
        "**Paper claim (Theorem 2.12, divergence term).** Prediction error "
        "inflates the no-CD budget to 2^{2H + 2 D_KL(c(X)||c(Y))}; "
        "bounded-constant-factor mispredictions cost O(1)."
    ),
    "KL-CD": (
        "**Paper claim (Theorem 2.16, divergence term).** Prediction error "
        "inflates the CD budget to O((H + D_KL)^2)."
    ),
    "SRC-CODE": (
        "**Paper claim (Theorems 2.2 / 2.3, used by every bound).** "
        "Uniquely decodable codes satisfy H <= E[len]; an optimal code for "
        "Y fed by X satisfies H + D_KL <= E[len] <= H + D_KL + 1."
    ),
    "PLIAM": (
        "**Paper claim (Section 2.5 conjecture, footnote 3, via Pliam "
        "[19]).** For every constant alpha there is a distribution X_alpha "
        "on which the natural sorted-probing strategy needs more than "
        "alpha * 2^{H(c(X_alpha))} rounds - entropy does not control "
        "guesswork, supporting the conjecture that the factor-2 exponent "
        "in Theorem 2.12 is fundamental for this strategy."
    ),
    "LEMMA-PROBS": (
        "**Paper claims (Lemmas 2.6, 2.10, 2.13).** Success probability "
        "k p (1-p)^{k-1} is < 1/(2 log n) outside the no-CD probability "
        "window, < 1/(2 log log n) outside the CD window, and >= 1/8 on "
        "the probe interval (1/(2k), 1/k]."
    ),
    "BASELINE-X": (
        "**Paper framing (Section 1.1).** Informative predictions beat the "
        "worst-case baselines (decay [2], Willard [22]) at low entropy and "
        "cost only a constant factor at maximum entropy."
    ),
    "SSF": (
        "**Paper claims (Definition 3.1, Theorems 3.2-3.5).** Strongly "
        "selective families with k >= sqrt(2n) need >= n sets; "
        "non-interactive contention resolution needs >= log n advice bits; "
        "the Theorem 3.4/3.5 reductions compile the advice protocols into "
        "correct non-interactive schemes with the claimed accounting."
    ),
    "LEARN": (
        "**Paper motivation (Section 1), made operational.** Predictions "
        "produced by models observing the environment improve over time, "
        "and the algorithms 'improve for free': the divergence term of "
        "Theorems 2.12/2.16 vanishes as the learner converges, and "
        "adaptive learners recover from drift while frozen ones keep "
        "paying.  (Extension beyond the paper's formal results; the claim "
        "checked is the theorems' divergence accounting on a learned Y.)"
    ),
    "ADVICE-ROBUST": (
        "**Paper question (Section 1.3), made operational.** 'The "
        "challenge lies in ensuring that they continue to perform well "
        "when the advice is faulty': corrupted advice breaks the bare "
        "Section 3.2 deterministic protocols with growing probability, "
        "and a budgeted fallback restores correctness at a smoothly "
        "degrading cost.  (Extension beyond the paper's formal results.)"
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trials", type=int, default=3000)
    parser.add_argument("--n", type=int, default=2**16)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).parent.parent / "EXPERIMENTS.md"
    )
    args = parser.parse_args()

    config = ExperimentConfig(
        n=args.n, trials=args.trials, seed=args.seed, quick=args.quick
    )
    sections: list[str] = [PREAMBLE]
    sections.append(
        f"\n**Configuration of this run**: n = {config.n}, "
        f"trials/point = {config.trials}"
        f"{' (quick sweeps)' if config.quick else ''}, seed = {config.seed}, "
        f"generated {time.strftime('%Y-%m-%d %H:%M:%S')}.\n"
    )
    failures = 0
    for experiment_id, (_, description) in EXPERIMENTS.items():
        print(f"[{time.strftime('%H:%M:%S')}] running {experiment_id}...", flush=True)
        result = run_experiment(experiment_id, config)
        status = "PASS" if result.all_checks_pass() else "FAIL"
        if status == "FAIL":
            failures += 1
        sections.append(f"\n---\n\n## {experiment_id} — {result.title}\n")
        sections.append(CLAIMS.get(experiment_id, description) + "\n")
        sections.append(f"**Reproduces**: {result.reference}.\n")
        sections.append(f"**Outcome**: **{status}** "
                        f"({len(result.checks)} checks).\n")
        sections.append("**Measured**:\n\n```")
        from repro.analysis.tables import render_table

        sections.append(render_table(result.headers, result.rows).rstrip())
        sections.append("```\n")
        sections.append("**Checks**:\n")
        for name, passed in result.checks.items():
            sections.append(f"- [{'x' if passed else ' '}] {name}")
        if result.notes:
            sections.append("\n**Notes**:")
            for note in result.notes:
                sections.append(f"- {note}")
        sections.append("")
    sections.append(
        f"\n---\n\n**Summary**: {len(EXPERIMENTS) - failures} / "
        f"{len(EXPERIMENTS)} experiments reproduce their paper artefacts."
    )
    args.output.write_text("\n".join(sections) + "\n")
    print(f"wrote {args.output} ({failures} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
