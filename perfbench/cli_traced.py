"""Run the ``repro`` CLI with layer spans recorded.

Usage: ``python3 perfbench/cli_traced.py SPANS_OUT <repro CLI arguments>``.
Behaves like ``python -m repro <arguments>`` and additionally writes the
spans of :mod:`perfbench.tracing` to ``SPANS_OUT`` as a JSON list, which
the traced ``cli_cold`` op grafts under its own op span.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Tracer, installed  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with installed(tracer):
        code = cli_main(cli_argv)
    Path(spans_out).write_text(json.dumps(tracer.records()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
