"""The Python examples of the README run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})
