"""Print the code lines of each module of a package, and their total.

A code line holds a token that is neither a comment nor part of a
docstring (of a module, class or function); blank lines, comment lines and
docstring lines do not count.  Every line of a multi-line token that is
not a docstring, such as a long string or an expression continued over
several lines, counts.  Standard library only.

    python3 tools/count_loc.py [PACKAGE_DIR]                 # default: src/daekit
    python3 tools/count_loc.py [PACKAGE_DIR] --against REV

``--against REV`` prints each module's code lines at the git revision REV
(read through ``git show``), the worktree's, and the change; a module
missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def code_lines(source: bytes, name: str = "<source>") -> int:
    docs = docstring_lines(ast.parse(source, filename=name))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def worktree_counts(package: Path) -> dict:
    return {path.name: code_lines(path.read_bytes(), str(path))
            for path in sorted(package.glob("*.py"))}


def revision_counts(package: Path, rev: str) -> dict:
    """The counts of the package's modules at git revision ``rev``."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], check=True, capture_output=True).stdout
    # ls-tree and a "./" path are read relative to the working directory
    names = git("ls-tree", "--name-only", rev, f"{package.as_posix()}/").decode().split()
    return {Path(name).name: code_lines(git("show", f"{rev}:./{name}"), f"{rev}:{name}")
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/daekit")
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv[1:])
    package = Path(args.package)
    counts = worktree_counts(package)
    if args.against is None:
        width = max(map(len, counts), default=0)
        for name, n in counts.items():
            print(f"{name:<{width}}  {n:>5}")
        print(f"{'total':<{width}}  {sum(counts.values()):>5}")
        return 0
    try:
        before = revision_counts(package, args.against)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.decode().strip() or exc, file=sys.stderr)
        return 1
    rows = [(name, before.get(name, 0), counts.get(name, 0))
            for name in sorted(before.keys() | counts.keys())]
    rows.append(("total", sum(b for _, b, _ in rows), sum(a for _, _, a in rows)))
    width = max(len(name) for name, _, _ in rows)
    rev = args.against[:12]
    print(f"{'':<{width}}  {rev:>12}  {'worktree':>8}  {'delta':>6}")
    for name, b, a in rows:
        print(f"{name:<{width}}  {b:>12}  {a:>8}  {a - b:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
