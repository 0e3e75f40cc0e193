"""Print the code lines of each module of a package, and their total.

A code line holds a token that is neither a comment nor part of a
docstring (of a module, class or function); blank lines, comment lines and
docstring lines do not count.  Every line of a multi-line token that is
not a docstring, such as a long string or an expression continued over
several lines, counts.  Standard library only.

    python3 tools/count_loc.py [PACKAGE_DIR]    # default: src/daekit
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    docs = docstring_lines(ast.parse(path.read_bytes(), filename=str(path)))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/daekit")
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
