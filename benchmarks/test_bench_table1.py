"""Table 1 regeneration benches: entropy-parameterised bounds.

Cells (see ``repro list`` for the experiment index):

* ``T1-NCD-UP``  - no-CD upper ``O(2^{2H})`` (Theorem 2.12 / Cor 2.15)
* ``T1-NCD-LOW`` - no-CD lower ``Omega(2^H / log log n)`` (Theorem 2.4)
* ``T1-CD-UP``   - CD upper ``O(H^2)`` (Theorem 2.16 / Cor 2.18)
* ``T1-CD-LOW``  - CD lower ``H/2 - O(llll n)`` (Theorem 2.8)
"""

from .conftest import run_and_check


def test_t1_nocd_upper(benchmark, bench_config):
    """Sorted probing succeeds w.p. >= 1/16 within its 2^(2H) budget."""
    run_and_check(benchmark, "T1-NCD-UP", bench_config)


def test_t1_nocd_lower(benchmark, bench_config):
    """RF-Construction range finding respects the 2^H entropy floor."""
    run_and_check(benchmark, "T1-NCD-LOW", bench_config)


def test_t1_cd_upper(benchmark, bench_config):
    """Code-class search succeeds within its (H+1)^2 budget."""
    run_and_check(benchmark, "T1-CD-UP", bench_config)


def test_t1_cd_lower(benchmark, bench_config):
    """Tree construction codes respect the Source Coding Theorem floor."""
    run_and_check(benchmark, "T1-CD-LOW", bench_config)
