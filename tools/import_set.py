"""Print the cold import set of the example runs and the fused CD sweep.

Runs the example ``scenario run``, the fused ``--cd-grid`` sweep, the
open example's ``scenario run`` (``scenario example --open``) and a
closed ``scenario run`` on a ``poisson`` workload, each in a fresh
interpreter, and prints per command how many ``repro`` modules it
loaded, their raw source lines, and whether ``numpy.ma`` was loaded.
Where no bytecode cache is written (``PYTHONDONTWRITEBYTECODE`` or a
read-only tree), every cold start compiles each module it imports, so
these counts track the repository's share of a cold start beside the
size that ``tools/code_lines.py`` prints.

Usage::

    python tools/import_set.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: The package source, found from this file so any working directory will do.
SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the CLI on its arguments, then reports what it loaded.
PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "repro"]
lines = sum(len(Path(m.__file__).read_bytes().splitlines()) for m in modules)
print(json.dumps([code, len(modules), lines, "numpy.ma" in sys.modules]))
"""

#: A closed run whose workload is an open arrival family: it needs
#: ``repro.opensys.arrivals`` but none of the open driver.
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


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.cli import EXAMPLE_SCENARIO
    from repro.scenarios import EXAMPLE_CD_SWEEP, EXAMPLE_OPEN_SCENARIO

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, [path])]))
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        run, sweep = Path(scratch, "run.json"), Path(scratch, "cd-grid.json")
        open_run, poisson = Path(scratch, "open.json"), Path(scratch, "poisson.json")
        run.write_text(json.dumps(EXAMPLE_SCENARIO))
        sweep.write_text(json.dumps(EXAMPLE_CD_SWEEP))
        open_run.write_text(json.dumps(EXAMPLE_OPEN_SCENARIO))
        poisson.write_text(json.dumps(POISSON_SCENARIO))
        commands = {
            "scenario run": ["scenario", "run", str(run), "--json"],
            "fused --cd-grid sweep": [
                "scenario", "sweep", str(sweep), "--executor", "fused", "--json"
            ],
            "open scenario run": ["scenario", "run", str(open_run), "--json"],
            "poisson-workload run": ["scenario", "run", str(poisson), "--json"],
        }
        for label, argv in commands.items():
            completed = subprocess.run(
                [sys.executable, "-c", PROBE, *argv],
                capture_output=True, text=True, env=env,
            )
            if completed.returncode != 0:
                print(f"{label}: failed\n{completed.stderr}", file=sys.stderr)
                failed += 1
                continue
            code, modules, lines, masked = json.loads(completed.stdout.splitlines()[-1])
            failed += code != 0
            print(
                f"{label}: {modules} repro modules, {lines} lines, numpy.ma "
                f"{'loaded' if masked else 'not loaded'}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
