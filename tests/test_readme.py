"""The examples in README.md run and print what the text says they print."""

import ast
import re
import shlex
from pathlib import Path

from daekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_print_their_commented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        printed = []
        exec(compile(block, str(README), "exec"),
             {"print": lambda *values: printed.extend(values)})
        # each `print(x)  # value` line states the value as a Python literal
        want = [ast.literal_eval(line.split("#", 1)[1].strip())
                for line in block.splitlines() if line.startswith("print(")]
        assert want
        assert printed == want


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("daekit ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_readme_classify_claim(capsys):
    claim = re.search(r"for `(ex\d+)` on \[(\S+), (\S+)\] it reports\s+`([a-z-]+)` "
                      r"with a critical point at (\d\.\d+)", README.read_text())
    name, a, b, classification, point = claim.groups()
    assert main(["classify", "--problem", name, "--interval", a, b]) == 0
    out = capsys.readouterr().out
    assert f"classification: {classification}" in out
    assert f"critical points: {point}\n" in out
