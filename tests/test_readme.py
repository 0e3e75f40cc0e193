"""The Python examples in README.md run and print what their comments say."""

import ast
import re
from pathlib import Path

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
