"""The import set of the CLI and the lazy package exports.

Each check runs in a fresh interpreter, because the test process has long
since imported everything: a cold ``scenario run`` / fused ``scenario
sweep`` must load only the modules it runs, and every public name of the
lazily exporting packages must still resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules neither the example run nor the fused example sweep needs.
NOT_LOADED = (
    "repro.experiments",
    "repro.learning",
    "repro.lowerbounds",
    "repro.opensys",
    "repro.scenarios.open",
    "repro.scenarios.supervised",
    "repro.analysis.exact",
    "repro.analysis.exact_search",
    "repro.channel.models",
    "repro.channel.network",
    "repro.channel.arrivals",
    "repro.core.faulty_advice",
    "repro.infotheory.source_coding",
    "repro.protocols.restart",
    "repro.protocols.adapters",
    "repro.protocols.advice_deterministic",
    "repro.protocols.advice_randomized",
    "repro.protocols.backoff",
    "repro.protocols.jiang_zheng",
    "repro.protocols.fixed_probability",
    "multiprocessing",
)

#: Modules only the CD sweep needs: prediction codes, perturbed
#: predictions, the CD protocols, and the sweep layer with its result
#: store.  The example run (one sorted-probing point on a no-CD channel)
#: loads none of them.
RUN_NOT_LOADED = (
    "repro.infotheory.coding",
    "repro.infotheory.huffman",
    "repro.infotheory.perturb",
    "repro.protocols.willard",
    "repro.protocols.searching",
    "repro.protocols.code_search",
    "repro.scenarios.store",
    "repro.scenarios.sweep",
)

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.scenarios",
    "repro.core",
    "repro.channel",
    "repro.infotheory",
    "repro.protocols",
    "repro.opensys",
    "repro.lowerbounds",
    "repro.learning",
    "repro.experiments",
)

#: The open driver and what only it uses: a closed run whose workload is
#: an open arrival family needs ``repro.opensys.arrivals`` alone.
OPEN_DRIVER = (
    "repro.opensys.driver",
    "repro.opensys.latency",
    "repro.opensys.policies",
)

#: A closed run on a ``poisson`` workload (one round's arrivals per trial).
POISSON_SCENARIO = {
    "name": "decay-poisson",
    "protocol": {"id": "decay", "params": {}},
    "workload": {"kind": "poisson", "params": {"rate": 4.0}},
    "channel": "nocd",
    "n": 1024,
    "trials": 200,
    "max_rounds": 256,
    "seed": 2021,
}

#: The lower-bound modules of Theorems 2.4-3.5 that the exact solvers,
#: which use one success-probability lemma, never need.
THEOREM_MODULES = (
    "repro.lowerbounds.bounds",
    "repro.lowerbounds.noninteractive",
    "repro.lowerbounds.parallel_advice",
    "repro.lowerbounds.selective_families",
    "repro.lowerbounds.target_distance_coding",
    "repro.lowerbounds.tree_construction",
)


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return the JSON on its last line."""
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])),
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


CLI_PROBE = """
import contextlib, io, json, sys
import numpy

# NumPy 1.x imports numpy.ma with numpy itself; 2.x only on demand.
eager_ma = "numpy.ma" in sys.modules
from repro.cli import main

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([eager_ma, sorted(sys.modules)]))
"""


def cold_load(tmp_path, *commands: str) -> tuple[set[str], bool]:
    """Modules a fresh interpreter loads running the example ``commands``
    (``"run"``, ``"sweep"``, ``"open"``, ``"poisson"``), and whether
    ``import numpy`` loaded numpy.ma."""
    from repro.cli import EXAMPLE_SCENARIO
    from repro.scenarios import EXAMPLE_CD_SWEEP, EXAMPLE_OPEN_SCENARIO

    run_path, sweep_path = tmp_path / "run.json", tmp_path / "sweep.json"
    run_path.write_text(json.dumps(EXAMPLE_SCENARIO))
    sweep_path.write_text(json.dumps(EXAMPLE_CD_SWEEP))
    open_path, poisson_path = tmp_path / "open.json", tmp_path / "poisson.json"
    open_path.write_text(json.dumps(EXAMPLE_OPEN_SCENARIO))
    poisson_path.write_text(json.dumps(POISSON_SCENARIO))
    argv = {
        "run": ["scenario", "run", str(run_path), "--json"],
        "sweep": ["scenario", "sweep", str(sweep_path), "--executor", "fused", "--json"],
        "open": ["scenario", "run", str(open_path), "--json"],
        "poisson": ["scenario", "run", str(poisson_path), "--json"],
    }
    eager_ma, loaded = run_fresh(CLI_PROBE, json.dumps([argv[c] for c in commands]))
    return set(loaded), eager_ma


def test_cold_run_and_fused_sweep_load_only_what_they_run(tmp_path):
    loaded, eager_ma = cold_load(tmp_path, "run", "sweep")
    assert {"repro.cli", "repro.scenarios.sweep"} <= loaded  # the probe ran
    assert sorted(set(NOT_LOADED) & loaded) == []
    if not eager_ma:
        assert "numpy.ma" not in loaded


def test_cold_run_loads_no_prediction_code_or_cd_protocol(tmp_path):
    loaded, eager_ma = cold_load(tmp_path, "run")
    assert {"repro.cli", "repro.protocols.sorted_probing"} <= loaded  # it ran
    assert sorted(set(NOT_LOADED + RUN_NOT_LOADED) & loaded) == []
    if not eager_ma:
        assert "numpy.ma" not in loaded


def test_cold_poisson_workload_run_loads_arrivals_but_no_open_driver(tmp_path):
    loaded, _ = cold_load(tmp_path, "poisson")
    assert {"repro.cli", "repro.opensys.arrivals"} <= loaded  # it ran
    assert sorted(set(OPEN_DRIVER) & loaded) == []


def test_cold_faithful_open_run_loads_no_channel_model(tmp_path):
    loaded, _ = cold_load(tmp_path, "open")
    assert {"repro.cli", "repro.opensys.driver"} <= loaded  # it ran
    assert "repro.channel.models" not in loaded


EXACT_PROBE = """
import json, sys
import repro.analysis.exact

print(json.dumps(sorted(sys.modules)))
"""


def test_exact_solvers_load_no_lower_bound_theorem_module():
    loaded = set(run_fresh(EXACT_PROBE))
    assert "repro.lowerbounds.success_bounds" in loaded  # the lemma they use
    assert sorted(set(THEOREM_MODULES) & loaded) == []


EXPORTS_PROBE = """
import importlib, json, sys

report = {}
for name in json.loads(sys.argv[1]):
    package = importlib.import_module(name)
    unlisted = sorted(set(package.__all__) - set(dir(package)))
    unresolved = [n for n in package.__all__ if not hasattr(package, n)]
    star = {}
    exec(f"from {name} import *", star)
    unbound = sorted(set(package.__all__) - set(star))
    report[name] = [len(package.__all__), unlisted, unresolved, unbound]
print(json.dumps(report))
"""


def test_every_public_name_is_listed_resolves_and_star_imports():
    report = run_fresh(EXPORTS_PROBE, json.dumps(LAZY_PACKAGES))
    for package, (count, unlisted, unresolved, unbound) in report.items():
        assert count > 0, package
        assert unlisted == [], f"{package}: missing from dir()"
        assert unresolved == [], f"{package}: names that do not resolve"
        assert unbound == [], f"{package}: names 'import *' does not bind"


SUBMODULE_FIRST_PROBE = """
import importlib, json, sys

report = []
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)  # the submodule, before its package's name is read
    package, _, attribute = name.rpartition(".")
    report.append(callable(getattr(sys.modules[package], attribute)))
print(json.dumps(report))
"""


def test_a_name_shared_with_its_submodule_stays_the_function():
    names = ["repro.infotheory.entropy", "repro.lowerbounds.rf_construction"]
    assert run_fresh(SUBMODULE_FIRST_PROBE, json.dumps(names)) == [True, True]


SUPERVISED_PROBE = """
import json, sys
import repro.scenarios

scenarios = repro.scenarios
registered = "supervised" in scenarios.EXECUTORS
preloaded = "repro.scenarios.supervised" in sys.modules
sweep = scenarios.Sweep.from_dict({
    "base": {
        "protocol": "decay", "workload": {"kind": "fixed", "params": {"k": 4}},
        "channel": "nocd", "n": 256, "trials": 20, "max_rounds": 64, "seed": 5,
    },
    "grid": {"workload.params.k": [2, 6]},
})
supervised = scenarios.run_sweep(sweep, executor="supervised", max_workers=1)
serial = scenarios.run_sweep(sweep, executor="serial")
print(json.dumps({
    "registered": registered,
    "preloaded": preloaded,
    "executor": supervised.executor,
    "failures": supervised.failures,
    "identical": supervised.results == serial.results,
}))
"""


def test_supervised_executor_runs_after_a_bare_package_import():
    outcome = run_fresh(SUPERVISED_PROBE)
    assert outcome == {
        "registered": True,
        "preloaded": False,
        "executor": "supervised",
        "failures": [],
        "identical": True,
    }
