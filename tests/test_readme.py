"""The README's Python examples run as written, so an API change that breaks
them fails here instead of leaving the documentation wrong."""
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_example_runs(k):
    exec(compile(BLOCKS[k], f"README.md python block {k}", "exec"), {})
