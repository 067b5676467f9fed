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
    "multiprocessing",
)

LAZY_PACKAGES = ("repro", "repro.analysis", "repro.scenarios")


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
from repro.cli import main

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_cold_run_and_fused_sweep_load_only_what_they_run(tmp_path):
    from repro.cli import EXAMPLE_SCENARIO
    from repro.scenarios import EXAMPLE_CD_SWEEP

    run_path, sweep_path = tmp_path / "run.json", tmp_path / "sweep.json"
    run_path.write_text(json.dumps(EXAMPLE_SCENARIO))
    sweep_path.write_text(json.dumps(EXAMPLE_CD_SWEEP))
    commands = [
        ["scenario", "run", str(run_path), "--json"],
        ["scenario", "sweep", str(sweep_path), "--executor", "fused", "--json"],
    ]
    loaded = set(run_fresh(CLI_PROBE, json.dumps(commands)))
    assert {"repro.cli", "repro.scenarios.sweep"} <= loaded  # the probe ran
    assert sorted(set(NOT_LOADED) & loaded) == []


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
