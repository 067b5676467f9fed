"""Count the lines of the package source: raw lines and code lines.

Raw lines are every line of every ``.py`` file under ``src/``.  Code
lines are the lines that hold a token of code, read with
:mod:`tokenize`: blank lines, comment lines and docstrings (a string
that is a statement of its own) do not count; a line holding code and a
trailing comment does.  A code token that spans lines, such as a
multi-line string argument, counts every line it spans.

Usage::

    python tools/code_lines.py
"""

from __future__ import annotations

import tokenize
from pathlib import Path

#: The package source, found from this file so any working directory will do.
SRC = Path(__file__).resolve().parents[1] / "src"
#: Tokens that are neither code nor statement boundaries.
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
#: Tokens that end a statement or open or close a block.
_BOUNDARY = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_file(path: Path) -> tuple[int, int]:
    """``(raw lines, code lines)`` of one Python file."""
    with path.open("rb") as handle:
        tokens = [
            token
            for token in tokenize.tokenize(handle.readline)
            if token.type not in _SKIP
        ]
    code: set[int] = set()
    # A docstring is a string that is a whole statement: a boundary comes
    # before it and a NEWLINE (or the end of the file) after it.
    before = tokenize.NEWLINE
    for token, after in zip(tokens, tokens[1:] + tokens[-1:]):
        docstring = (
            token.type == tokenize.STRING
            and before in _BOUNDARY
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        before = token.type
        if token.type not in _BOUNDARY and not docstring:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(path.read_bytes().splitlines()), len(code)


def main() -> None:
    files = sorted(SRC.rglob("*.py"))
    raw = code = 0
    for path in files:
        file_raw, file_code = count_file(path)
        raw += file_raw
        code += file_code
    print(f"src: {len(files)} files, {raw} raw lines, {code} code lines")


if __name__ == "__main__":
    main()
