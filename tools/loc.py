"""Count the lines of each module of a Python package: raw lines, and code
lines without docstrings, comments and blank lines.

A code line is a line that holds a token other than a comment, a newline or
an indent, and is not part of a docstring. Docstrings are the string
statements that open a module, class or function body, found with `ast`;
the tokens come from `tokenize`. A statement split over several lines counts
once per line.

Run from the repository root:

    python3 tools/loc.py [package directory, default src/swingwords]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                            if line not in docs)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/swingwords")
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{total_raw:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
