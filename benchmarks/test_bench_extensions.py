"""Benches for the extension experiments (learned predictions, robustness).

Both go beyond the paper's formal results, operationalising its Section 1
motivation (learned models improving over time) and Section 1.3 question
(faulty advice).
"""

from .conftest import run_and_check


def test_learning_loop(benchmark, bench_config):
    """Online loop: divergence falls, rounds converge to the oracle."""
    run_and_check(benchmark, "LEARN", bench_config)


def test_advice_robustness(benchmark, bench_config):
    """Faulty advice breaks bare protocols; the fallback repairs them."""
    run_and_check(benchmark, "ADVICE-ROBUST", bench_config)
